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

from .math_utils import lcm_of
from .pages import PhysicalExtent

__all__ = ["LCMAllocator", "OutOfLargePagesError"]


class OutOfLargePagesError(Exception):
    """Raised when fewer large pages are free than a caller takes.

    The two-level allocator never raises it: it takes at most
    :attr:`LCMAllocator.num_free` pages and falls back to eviction for
    the rest (Section 5.4 step 3).  The exception carries enough context
    for diagnostics.
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
            small page size in bytes.  The large page size is their least
            common multiple.

    The region is split into ``total_bytes // large_page_bytes`` pages; the
    remainder (always smaller than one large page) is reported via
    :attr:`slack_bytes` and counts as allocator overhead in the
    fragmentation benchmarks.
    """

    def __init__(self, total_bytes: int, small_page_sizes: Dict[str, int]) -> None:
        if total_bytes <= 0:
            raise ValueError(f"total_bytes must be positive, got {total_bytes}")
        if not small_page_sizes:
            raise ValueError("at least one layer-type group is required")
        self.small_page_sizes = dict(small_page_sizes)
        self.large_page_bytes = lcm_of(small_page_sizes.values())
        self.num_pages = total_bytes // self.large_page_bytes
        if self.num_pages == 0:
            raise ValueError(
                f"KV region of {total_bytes} bytes cannot hold even one "
                f"large page of {self.large_page_bytes} bytes"
            )
        self.total_bytes = total_bytes
        self.slack_bytes = total_bytes - self.num_pages * self.large_page_bytes
        # Owning group per large-page id; None while the page is free.
        # The two-level allocator reads it directly, and re-points a step-3
        # victim it recycles in place (the page never comes back free).
        self.owner: List[Optional[str]] = [None] * self.num_pages
        self._free: Deque[int] = deque(range(self.num_pages))

    # ------------------------------------------------------------------
    # Allocation interface
    # ------------------------------------------------------------------

    def take(self, group_id: str, k: int) -> List[int]:
        """Hand ``k`` free large pages to ``group_id``, least recently freed
        first; returns their ids.

        Raises :class:`OutOfLargePagesError` when fewer than ``k`` are free.
        """
        free = self._free
        if k > len(free):
            raise OutOfLargePagesError(group_id, self.num_pages)
        taken = [free.popleft() for _ in range(k)]
        owner = self.owner
        for page_id in taken:
            owner[page_id] = group_id
        return taken

    def free(self, page_id: int) -> None:
        """Return a large page to the free pool.

        The caller must have already released all small pages carved from
        it; freeing an unowned page is a bookkeeping bug and raises.
        """
        if self.owner[page_id] is None:
            raise ValueError(f"double free of large page {page_id}")
        self.owner[page_id] = None
        self._free.append(page_id)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def num_free(self) -> int:
        return len(self._free)

    def owner_of(self, page_id: int) -> Optional[str]:
        return self.owner[page_id]

    def extent_of(self, page_id: int) -> PhysicalExtent:
        """Byte range of a large page in the flat KV tensor."""
        if not 0 <= page_id < self.num_pages:
            raise IndexError(f"large page {page_id} out of range")
        return PhysicalExtent(page_id * self.large_page_bytes, self.large_page_bytes)

    def small_pages_per_large(self, group_id: str) -> int:
        """How many of ``group_id``'s small pages fit in one large page.

        Exact division: the large page is a multiple of every small page.
        """
        return self.large_page_bytes // self.small_page_sizes[group_id]
