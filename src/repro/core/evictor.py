"""LRU eviction with the paper's two-key priority.

Jenga's eviction order (Section 5.1) is driven by two values that layer
policies assign to every page:

1. ``last_access`` -- coarse-grained.  Pages with the *earliest* last access
   are evicted first.  Policies keep these timestamps identical for tokens of
   the same request across layer types, which makes eviction **balanced**.
2. ``prefix_length`` -- fine-grained tiebreak among pages sharing a
   timestamp.  The page with the *largest* prefix length is evicted first
   (deep suffix tokens go before shallow prefix tokens), and policies assign
   the same value to the corresponding token across layer types, which makes
   eviction **aligned**.

:class:`LRUEvictor` is a priority queue over ``(last_access,
-prefix_length)`` implemented as a lazy-deletion binary heap: updates push a
new entry and stale entries are skipped on pop.  All operations are amortized
``O(log n)``; this matters because the engine touches evictor state for every
block of every scheduled request on every step.

Lazy deletion leaves dead entries in the heap.  Under touch-heavy churn
(every re-``add`` of a live item strands its previous heap entry) the heap
can grow far beyond the live set, inflating every subsequent push/pop.  The
evictor therefore rebuilds the heap from the live priority map whenever dead
entries outnumber live ones by :data:`COMPACT_RATIO`, bounding heap size to
a constant multiple of the live set while keeping compaction cost amortized
``O(1)`` per operation.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Dict, Generic, Hashable, Iterator, List, Optional, Tuple, TypeVar

__all__ = ["LRUEvictor", "COMPACT_RATIO"]

_Key = Tuple[float, float, int]

T = TypeVar("T", bound=Hashable)

# Rebuild the lazy-deletion heap once it holds more than this many entries
# per live item.  4x keeps rebuilds rare (amortized O(1) per mutation) while
# bounding heap bloat -- and therefore per-operation log factors -- under
# touch-heavy churn.
COMPACT_RATIO = 4


class LRUEvictor(Generic[T]):
    """Priority queue of evictable items keyed by (last_access, -prefix_length).

    Items are arbitrary hashable ids (small-page ids for the customized
    evictors; large-page ids for the LCM page table's evictor).
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[_Key, T]] = []
        self._priority: Dict[T, _Key] = {}
        self._counter = itertools.count()
        self.num_compactions = 0

    def __len__(self) -> int:
        return len(self._priority)

    def __contains__(self, item: T) -> bool:
        return item in self._priority

    def add(self, item: T, last_access: float, prefix_length: float = 0.0) -> None:
        """Insert ``item`` or update its priority if already present."""
        key = (last_access, -prefix_length, next(self._counter))
        self._priority[item] = key
        heapq.heappush(self._heap, (key, item))
        if len(self._heap) > COMPACT_RATIO * max(1, len(self._priority)):
            self._rebuild()

    def remove(self, item: T) -> None:
        """Remove ``item`` (e.g. a cache hit revived the page).

        Raises :class:`KeyError` if absent, because silently ignoring a
        missing page would hide ref-counting bugs upstream.
        """
        del self._priority[item]

    def discard(self, item: T) -> bool:
        """Remove ``item`` if present; return whether it was present."""
        return self._priority.pop(item, None) is not None

    def peek(self) -> Optional[T]:
        """Return the next eviction victim without removing it."""
        self._compact()
        if not self._heap:
            return None
        return self._heap[0][1]

    def evict(self) -> T:
        """Pop and return the item with the earliest last access.

        Ties on ``last_access`` break toward the largest ``prefix_length``
        (aligned eviction).  Raises :class:`KeyError` when empty.
        """
        return self.evict_with_key()[0]

    def evict_with_key(self) -> Tuple[T, float, float]:
        """Like :meth:`evict`, also returning the victim's priority.

        Returns ``(item, last_access, prefix_length)`` -- the two-key
        eviction priority the victim held, reported through
        :meth:`~repro.core.events.Observer.page_evicted`.
        """
        self._compact()
        if not self._heap:
            raise KeyError("evictor is empty")
        key, item = heapq.heappop(self._heap)
        del self._priority[item]
        return item, key[0], -key[1]

    def priority_of(self, item: T) -> Tuple[float, float]:
        """Return ``(last_access, prefix_length)`` currently recorded for ``item``."""
        key = self._priority[item]
        return (key[0], -key[1])

    def items_in_order(self) -> List[T]:
        """All items in eviction order (cheapest victim first); ``O(n log n)``."""
        return list(self.iter_in_order())

    def iter_in_order(self) -> Iterator[T]:
        """Items in eviction order, lazily and read-only: a walk of the heap
        tree that costs ``O(k log k)`` (plus the stale entries passed) for
        the first ``k`` items, so a capacity check can peek at the victims
        it would take without taking them."""
        heap = self._heap
        priority = self._priority
        frontier = [(heap[0], 0)] if heap else []
        while frontier:
            (key, item), index = heapq.heappop(frontier)
            if priority.get(item) == key:
                yield item
            for child in (2 * index + 1, 2 * index + 2):
                if child < len(heap):
                    heapq.heappush(frontier, (heap[child], child))

    def _compact(self) -> None:
        """Drop stale heap entries left behind by updates and removals."""
        heap = self._heap
        while heap:
            key, item = heap[0]
            if self._priority.get(item) == key:
                return
            heapq.heappop(heap)

    def _rebuild(self) -> None:
        """Rebuild the heap from the live priority map (dead/live > ratio)."""
        self._heap = [(key, item) for item, key in self._priority.items()]
        heapq.heapify(self._heap)
        self.num_compactions += 1
