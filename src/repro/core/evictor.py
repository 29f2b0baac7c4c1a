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

:class:`LRUEvictor` is a lazy-deletion binary heap of flat entries
``(last_access, -prefix_length, seq, item)``.  ``seq`` counts adds, so keys
are distinct (ties go to the earlier add) and a comparison never reaches
``item``.  ``_priority`` maps each item to its live entry; an update pushes
a new one, and an entry is stale unless ``priority.get(item) is entry``.
:meth:`~LRUEvictor.add_run` is ``add`` over a run of triples, in order,
pushing each entry.  All operations are amortized ``O(log n)``.

Stale entries left by re-adds and removals could grow the heap far beyond
the live set, so after each run the heap is rebuilt from the live entries
if it holds more than :data:`COMPACT_RATIO` entries per live item:
compaction stays amortized ``O(1)``.  Only adds grow the heap, so checking
there bounds it; removals leave their stale entries to the next run's check
or to ``evict_with_key``'s pop loop.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Dict, Generic, Hashable, Iterable, Iterator, List, Tuple, TypeVar

__all__ = ["LRUEvictor", "COMPACT_RATIO"]

T = TypeVar("T", bound=Hashable)
_Entry = Tuple[float, float, int, T]  # (last_access, -prefix_length, seq, item)

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
        self._heap: List[_Entry[T]] = []
        self._priority: Dict[T, _Entry[T]] = {}
        self._counter = itertools.count()
        self.num_compactions = 0

    def __len__(self) -> int:
        return len(self._priority)

    def __contains__(self, item: T) -> bool:
        return item in self._priority

    def add(self, item: T, last_access: float, prefix_length: float = 0.0) -> None:
        """Insert ``item`` or update its priority if already present."""
        self.add_run(((item, last_access, prefix_length),))

    def add_run(self, triples: Iterable[Tuple[T, float, float]]) -> None:
        """``add(item, last_access, prefix_length)`` for each triple, in
        order (a re-added item keeps its last priority)."""
        counter = self._counter
        run: List[_Entry[T]] = [
            (last_access, -prefix_length, next(counter), item)
            for item, last_access, prefix_length in triples
        ]
        self._priority.update((entry[3], entry) for entry in run)
        heap = self._heap
        for entry in run:
            heapq.heappush(heap, entry)
        if len(heap) > COMPACT_RATIO * len(self._priority):
            self._heap = list(self._priority.values())
            heapq.heapify(self._heap)
            self.num_compactions += 1

    def remove(self, item: T) -> None:
        """Remove ``item`` (a cache hit revived the page); :class:`KeyError`
        if absent, since ignoring it would hide a ref-counting bug upstream."""
        del self._priority[item]

    def discard(self, item: T) -> bool:
        """Remove ``item`` if present; return whether it was present."""
        return self._priority.pop(item, None) is not None

    def evict(self) -> T:
        """Pop and return the next victim; :class:`KeyError` when empty."""
        return self.evict_with_key()[0]

    def evict_with_key(self) -> Tuple[T, float, float]:
        """Like :meth:`evict`, also returning the victim's priority.

        Returns ``(item, last_access, prefix_length)`` -- the two-key
        eviction priority the victim held, reported through
        :meth:`~repro.core.events.Observer.page_evicted`.
        """
        heap = self._heap
        priority = self._priority
        while heap:
            entry = heapq.heappop(heap)
            item = entry[3]
            if priority.get(item) is entry:
                del priority[item]
                return item, entry[0], -entry[1]
        raise KeyError("evictor is empty")

    def priority_of(self, item: T) -> Tuple[float, float]:
        """Return ``(last_access, prefix_length)`` currently recorded for ``item``."""
        entry = self._priority[item]
        return (entry[0], -entry[1])

    def iter_in_order(self) -> Iterator[T]:
        """Items in eviction order, lazily and read-only: a walk of the heap
        tree that costs ``O(k log k)`` (plus the stale entries passed) for
        the first ``k`` items, so :meth:`peek` and tests can read the
        victims without taking them."""
        heap = self._heap
        priority = self._priority
        frontier = [(heap[0], 0)] if heap else []
        while frontier:
            entry, index = heapq.heappop(frontier)
            if priority.get(entry[3]) is entry:
                yield entry[3]
            for child in (2 * index + 1, 2 * index + 2):
                if child < len(heap):
                    heapq.heappush(frontier, (heap[child], child))
