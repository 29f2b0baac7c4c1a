"""Page objects shared by the two-level allocator.

Jenga manages GPU memory at two granularities (paper Section 4):

* **Large pages** -- fixed-size slabs whose size is compatible with (an
  integral multiple of) every layer type's small page size.  The
  :class:`~repro.core.lcm_allocator.LCMAllocator` owns these.
* **Small pages** -- per-layer-type pages carved out of a large page by that
  type's customized allocator.  A small page holds the KV cache (or Mamba
  state, or vision embedding) of ``tokens_per_page`` tokens for every layer
  in the type's group.

Section 5.4 gives each small page one of three states:

* ``EMPTY``     -- holds no valid cache and is not referenced by any request.
* ``USED``      -- referenced by at least one running request; unevictable.
* ``EVICTABLE`` -- holds valid cached KV but no running request references
  it; it may be reclaimed, losing the cached prefix.

A large page is *empty* if all of its small pages are empty and *evictable*
if all of its small pages are evictable (mixed states pin the large page).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

__all__ = ["PageState", "SmallPage", "LargePage", "PhysicalExtent"]


class PageState(enum.IntEnum):
    """Lifecycle state of a small page (paper Section 5.4); the value
    indexes a ``[empty, used, evictable]`` count list."""

    EMPTY = 0
    USED = 1
    EVICTABLE = 2


# A ``PageState.X`` read goes through the enum metaclass (~0.1 us); the
# per-page predicates below sit on the allocator's hot path.
EMPTY, USED, EVICTABLE = PageState


@dataclass
class SmallPage:
    """A per-layer-type page carved from a large page.

    Attributes:
        page_id: Identifier unique within the owning small-page allocator.
            Attention kernels address the KV cache of one layer type purely
            through these ids, so heterogeneity is invisible to them.
        group_id: The layer-type group this page belongs to.
        large_page_id: The large page this small page was carved from, or
            ``None`` while the page is not backed by physical memory.
        slot: Index of this small page inside its large page.
        state: Current :class:`PageState`.
        request_id: Request-aware-allocation association (Section 4.3): the
            request whose tokens this page was last carved for.  Pages are
            preferentially re-used by their associated request so that a
            completing request frees whole large pages.
        ref_count: Number of running requests referencing the page.  Shared
            prefixes make this exceed one.
        last_access: Logical timestamp of the most recent access, set through
            the layer policy's ``update_last_access`` (Section 5.1).
        prefix_length: Fine-grained eviction tiebreak set through
            ``set_prefix_length``: among pages with equal ``last_access`` the
            page with the *largest* ``prefix_length`` is evicted first, which
            aligns eviction across layer types.
        block_hash: Content hash of the tokens stored in this page when the
            page holds a completed, prefix-cacheable block; ``None``
            otherwise.
        num_tokens: Number of token slots currently filled (at most the
            group's ``tokens_per_page``).
    """

    page_id: int
    group_id: str
    large_page_id: Optional[int] = None
    slot: int = 0
    state: PageState = PageState.EMPTY
    request_id: Optional[str] = None
    ref_count: int = 0
    last_access: float = -1.0
    prefix_length: float = 0.0
    block_hash: Optional[int] = None
    num_tokens: int = 0

    def reset(self) -> None:
        """Return the page to a pristine ``EMPTY`` state.

        Physical placement (``large_page_id``/``slot``) is preserved: a
        reset page stays carved out of its large page until the large page
        itself is returned to the LCM allocator.
        """
        self.state = EMPTY
        self.request_id = None
        self.ref_count = 0
        self.last_access = -1.0
        self.prefix_length = 0.0
        self.block_hash = None
        self.num_tokens = 0

    @property
    def is_empty(self) -> bool:
        return self.state is EMPTY

    @property
    def is_used(self) -> bool:
        return self.state is USED

    @property
    def is_evictable(self) -> bool:
        return self.state is EVICTABLE


@dataclass
class LargePage:
    """A compatibility-layer slab handed out by the LCM allocator.

    Attributes:
        page_id: Identifier unique within the LCM allocator; also the
            physical placement (large page ``i`` covers bytes
            ``[i * lcm_bytes, (i + 1) * lcm_bytes)`` of the KV region).
        owner_group: Layer-type group currently holding the page, or ``None``
            when the page sits in the free pool.
        small_page_ids: Ids of the small pages carved from this page (empty
            while the page is free).
    """

    page_id: int
    owner_group: Optional[str] = None
    small_page_ids: List[int] = field(default_factory=list)

    @property
    def is_free(self) -> bool:
        return self.owner_group is None


@dataclass(frozen=True)
class PhysicalExtent:
    """Byte range of one small page inside the flat KV-cache tensor.

    Jenga's page-layer partition (Section 4.2) keeps every small page
    physically contiguous; kernels receive ``(start_ptr, page_size, page_id)``
    exactly as with standard PagedAttention.  The engine uses extents to
    verify that no two live pages overlap (a memory-safety invariant that the
    tests exercise heavily).
    """

    start: int
    size: int

    @property
    def end(self) -> int:
        return self.start + self.size

    def overlaps(self, other: "PhysicalExtent") -> bool:
        return self.start < other.end and other.start < self.end

    def as_tuple(self) -> Tuple[int, int]:
        return (self.start, self.size)
