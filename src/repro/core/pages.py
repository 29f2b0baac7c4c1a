"""Small-page states and physical extents shared by the two-level allocator.

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

The pool never changes size, so a small page is a slot, not an object: the
group's page ``large_page_id * small_per_large + slot`` is slot ``slot`` of
large page ``large_page_id``, and its fields are entries of the group's
flat per-field lists, all indexed by page id and built once
(:class:`~repro.core.two_level.GroupAllocator`).  A slot's ``state`` is
``None`` while the group does not own its large page; carving a large page
writes ``EMPTY`` over its slots and returning it writes ``None`` back.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Tuple

__all__ = ["PageState", "PhysicalExtent"]


class PageState(enum.IntEnum):
    """Lifecycle state of a small page (paper Section 5.4); the value
    indexes a ``[empty, used, evictable]`` count list."""

    EMPTY = 0
    USED = 1
    EVICTABLE = 2


# A ``PageState.X`` read goes through the enum metaclass (~0.1 us); the
# per-page tests on the allocator's hot path compare these aliases.
EMPTY, USED, EVICTABLE = PageState


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
