"""First-level (large page) allocator.

The LCM allocator owns the whole KV-cache region, pre-partitioned into
fixed-size *large pages* whose size is the least common multiple of every
layer type's small page size (paper Section 4.1).  Because all large pages
are identical, there is no external fragmentation at this level: any free
large page can serve any layer type.

The allocator is deliberately simple -- a free list plus ownership
bookkeeping -- because all policy (request-aware placement, eviction,
prefix caching) lives in the per-type customized allocators and the
prefix-subset evictor above it.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional

from .math_utils import compatible_page_bytes
from .pages import PhysicalExtent

__all__ = ["LCMAllocator", "OutOfLargePagesError"]


class OutOfLargePagesError(Exception):
    """Raised when the large-page pool is exhausted.

    Callers (the two-level allocator) normally probe with
    :meth:`LCMAllocator.has_free` or catch this to fall back to eviction, so
    the exception carries enough context for diagnostics.
    """

    def __init__(self, requester: str, num_pages: int) -> None:
        super().__init__(
            f"group {requester!r} requested a large page but all "
            f"{num_pages} large pages are in use"
        )
        self.requester = requester
        self.num_pages = num_pages


class LCMAllocator:
    """Fixed-size slab allocator over the KV-cache byte region.

    Args:
        total_bytes: Size of the KV-cache region to manage.
        small_page_sizes: Mapping from layer-type group id to that group's
            small page size in bytes.  The compatible large page size is
            derived from these.
        strategy: Compatibility-size strategy, one of ``"lcm"`` (default,
            Jenga), ``"gcd"``, ``"max"`` -- exposed for the Section 4.4
            ablation.

    The region is split into ``total_bytes // large_page_bytes`` pages; the
    remainder (always smaller than one large page) is reported via
    :attr:`slack_bytes` and counts as allocator overhead in the
    fragmentation benchmarks.
    """

    def __init__(
        self,
        total_bytes: int,
        small_page_sizes: Dict[str, int],
        strategy: str = "lcm",
    ) -> None:
        if total_bytes <= 0:
            raise ValueError(f"total_bytes must be positive, got {total_bytes}")
        if not small_page_sizes:
            raise ValueError("at least one layer-type group is required")
        self.strategy = strategy
        self.small_page_sizes = dict(small_page_sizes)
        self.large_page_bytes = compatible_page_bytes(
            list(small_page_sizes.values()), strategy=strategy
        )
        self.num_pages = total_bytes // self.large_page_bytes
        if self.num_pages == 0:
            raise ValueError(
                f"KV region of {total_bytes} bytes cannot hold even one "
                f"large page of {self.large_page_bytes} bytes"
            )
        self.total_bytes = total_bytes
        self.slack_bytes = total_bytes - self.num_pages * self.large_page_bytes
        # Owning group per large-page id; None while the page is free.
        self._owner: List[Optional[str]] = [None] * self.num_pages
        self._free: Deque[int] = deque(range(self.num_pages))

    # ------------------------------------------------------------------
    # Allocation interface
    # ------------------------------------------------------------------

    def allocate(self, group_id: str) -> int:
        """Hand a free large page to ``group_id``; returns its id.

        Raises :class:`OutOfLargePagesError` when the pool is exhausted; the
        two-level allocator then attempts eviction (Section 5.4 step 3).
        """
        if not self._free:
            raise OutOfLargePagesError(group_id, self.num_pages)
        page_id = self._free.popleft()
        self._owner[page_id] = group_id
        return page_id

    def free(self, page_id: int) -> None:
        """Return a large page to the free pool.

        The caller must have already released all small pages carved from
        it; freeing an unowned page is a bookkeeping bug and raises.
        """
        if self._owner[page_id] is None:
            raise ValueError(f"double free of large page {page_id}")
        self._owner[page_id] = None
        self._free.append(page_id)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def has_free(self) -> bool:
        return bool(self._free)

    @property
    def num_free(self) -> int:
        return len(self._free)

    @property
    def num_allocated(self) -> int:
        return self.num_pages - len(self._free)

    def owner_of(self, page_id: int) -> Optional[str]:
        return self._owner[page_id]

    def extent_of(self, page_id: int) -> PhysicalExtent:
        """Byte range of a large page in the flat KV tensor."""
        if not 0 <= page_id < self.num_pages:
            raise IndexError(f"large page {page_id} out of range")
        return PhysicalExtent(page_id * self.large_page_bytes, self.large_page_bytes)

    def small_pages_per_large(self, group_id: str) -> int:
        """How many of ``group_id``'s small pages fit in one large page.

        Under the LCM and MAX strategies this is exact division.  Under the
        GCD strategy a small page *spans* multiple large pages instead; the
        GCD baseline therefore inverts this computation and this method
        returns 1 when the small page is at least as large as the large
        page (the baseline accounts for the spanning separately).
        """
        small = self.small_page_sizes[group_id]
        if small >= self.large_page_bytes:
            return 1
        return self.large_page_bytes // small

    def utilization(self) -> float:
        """Fraction of large pages currently allocated."""
        return self.num_allocated / self.num_pages
