"""Admission-bound cache: event-invalidated pool snapshot + demand memo.

:meth:`~repro.core.kv_manager.JengaKVCacheManager.can_admit` answers the
scheduler's "will this prompt's footprint ever fit?" question from two
independent inputs:

* the **pool side** -- per group, ``num_free + len(evictor)`` minus the
  fully-evictable-large-page overlap, plus the shared
  ``lcm.num_free + len(large_evictor)`` availability.  This changes only
  when pages move between states, and every such move already publishes a
  typed record on the allocation-event bus;
* the **demand side** -- the request's steady-state resident footprint per
  group (:meth:`~repro.core.kv_manager.JengaKVCacheManager.resident_pages_needed`)
  plus the policy's peak-residency correction
  (:meth:`~repro.core.layer_policy.LayerTypePolicy.peak_pages`).  For a
  fixed prompt this is a pure function of the sequence's length and tag
  layout, yet a blocked request used to recompute it on every engine step
  it spent waiting.

:class:`AdmissionCache` memoizes both.  The pool snapshot is rebuilt
lazily and invalidated event-driven: the cache subscribes to the count-
changing event classes (:data:`AdmissionCache.INVALIDATING`) on the same
bus the allocator emits on, mirroring the ``has_subscribers`` guarded
fast path -- a step that allocates nothing leaves the snapshot untouched.
The demand memo is keyed by ``(request_id, computed-length bucket)`` and
holds the *gross* per-group footprint; pages the request already holds
(prefix hits acquired at ``begin_request``) are subtracted live, since
they change between probes without the sequence growing.

Every invalidation also bumps a monotone :attr:`~AdmissionCache.version`
counter.  The engine uses it (via ``KVCacheManager.admission_version``) to
skip re-probing a blocked head-of-queue request outright: the admission
verdict is a pure function of pool counts and sequence length, so an
unchanged version with an unchanged head means an unchanged verdict.

``can_admit_uncached`` (the original, recompute-everything path) stays as
the ``stats_slow()``-style cross-check; ``tests/test_admission_cache.py``
property-tests the two against each other under randomized churn.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple, Type

from .events import (
    Event,
    EventBus,
    LargePageCarved,
    PageAcquired,
    PageAllocated,
    PageEvicted,
    PageReleased,
    PagesAllocated,
    QuotaResized,
)
from .layer_policy import GroupSpec, LayerTypePolicy
from .sequence import SequenceSpec
from .two_level import TwoLevelAllocator

__all__ = ["AdmissionCache", "AdmissionSnapshot", "DemandEntry"]


@dataclass
class AdmissionSnapshot:
    """Pool-side admission bounds, valid until the next invalidating event.

    ``local[g]`` is group ``g``'s directly claimable small pages --
    ``num_free + len(evictor)`` minus the small pages inside its own
    fully-evictable large pages (those are claimable through ``available``
    instead; counting them twice would offset other groups' deficits).
    ``available`` is the shared large-page headroom,
    ``lcm.num_free + len(large_evictor)``.

    ``quota_headroom[g]`` is the soft-quota carve headroom
    ``max(0, quota - owned)`` (``None`` = unquotaed), and
    ``own_fully_evictable[g]`` the group's members of the large evictor:
    large pages a group pulls from ``available`` need carve headroom,
    except that reclaiming its *own* fully-evictable pages is
    quota-neutral (in-place via §5.4 step 5), so up to that many come
    free of headroom.
    """

    local: Dict[str, int] = field(default_factory=dict)
    small_per_large: Dict[str, int] = field(default_factory=dict)
    available: int = 0
    quota_headroom: Dict[str, Optional[int]] = field(default_factory=dict)
    own_fully_evictable: Dict[str, int] = field(default_factory=dict)


@dataclass
class DemandEntry:
    """A request's memoized admission demand at ``target_global`` tokens.

    ``gross[g]`` is ``len(policy.active_page_indices(stream_len))`` --
    the resident footprint *before* subtracting pages the request already
    holds (held references change between probes as prefix-cache contents
    move, so they are read live).  ``stream_total[g]`` feeds the policy's
    peak-residency correction (``peak_pages``), which also depends on the
    probe's ``chunk_tokens`` and so is applied at evaluation time.
    """

    target_global: int
    gross: Dict[str, int]
    stream_total: Dict[str, int]


class AdmissionCache:
    """Event-invalidated pool snapshot plus per-request demand memo.

    One instance per manager, created over the manager's allocator and
    subscribed to the allocator's event bus.  ``bind_events`` re-homes the
    subscription (and conservatively dirties the snapshot, since events
    emitted while subscribed elsewhere were missed).
    """

    #: Event classes that change the counts the snapshot is built from.
    #: Everything else on the bus (prefix-hit accounting, request
    #: lifecycle, step records, host-offload spills) leaves the pool's
    #: free/evictable/fully-evictable accounting untouched.
    INVALIDATING: Tuple[Type[Event], ...] = (
        PageAllocated,
        PagesAllocated,
        LargePageCarved,
        PageAcquired,
        PageEvicted,
        PageReleased,
        QuotaResized,
    )

    #: Demand-memo bound: oldest entries are dropped past this many
    #: requests.  Entries are *not* purged on release -- the engine
    #: releases a blocked request right after every failed probe, and the
    #: memoized demand is a pure function of the sequence's geometry, so
    #: it stays valid across probe cycles.
    DEMAND_CAPACITY = 4096

    def __init__(self, allocator: TwoLevelAllocator, bus: Optional[EventBus]) -> None:
        self._allocator = allocator
        self._bus: Optional[EventBus] = None
        self._snapshot: Optional[AdmissionSnapshot] = None
        self._dirty = True
        self._version = 0
        self._demand: Dict[str, DemandEntry] = {}
        # Effectiveness counters (surfaced by the admission benchmark).
        self.num_rebuilds = 0
        self.num_invalidations = 0
        self.num_demand_hits = 0
        self.num_demand_misses = 0
        if bus is not None:
            self.bind(bus)

    # -- bus plumbing ----------------------------------------------------

    @property
    def bus(self) -> Optional[EventBus]:
        """The bus the invalidation handler is currently subscribed to."""
        return self._bus

    def bind(self, bus: EventBus) -> None:
        """Move the invalidation subscription to ``bus``.

        Dirties the snapshot and bumps the version: events emitted while
        we were subscribed to the previous bus (or to none) were missed,
        so nothing cached before the rebind may be trusted or skipped.
        """
        if bus is self._bus:
            return
        if self._bus is not None:
            self._bus.unsubscribe(self._invalidate)
        self._bus = bus
        bus.subscribe(self._invalidate, self.INVALIDATING)
        self._dirty = True
        self._version += 1

    def _invalidate(self, event: Event) -> None:
        self._dirty = True
        self._version += 1
        self.num_invalidations += 1

    # -- cached state ----------------------------------------------------

    @property
    def dirty(self) -> bool:
        """Whether the next :meth:`snapshot` call will rebuild."""
        return self._dirty

    @property
    def version(self) -> int:
        """Monotone pool-state version; equal versions mean no
        invalidating event (and no rebind) happened in between."""
        return self._version

    def snapshot(self) -> AdmissionSnapshot:
        """The current pool-side bounds, rebuilt only when dirty."""
        snap = self._snapshot
        if snap is None or self._dirty:
            allocator = self._allocator
            local: Dict[str, int] = {}
            small_per_large: Dict[str, int] = {}
            quota_headroom: Dict[str, Optional[int]] = {}
            own_fully_evictable: Dict[str, int] = {}
            for group_id, group in allocator.groups.items():
                own_fe = allocator.fully_evictable_large_pages(group_id)
                overlap = own_fe * group.small_per_large
                local[group_id] = group.num_free + len(group.evictor) - overlap
                small_per_large[group_id] = group.small_per_large
                own_fully_evictable[group_id] = own_fe
                quota = group.quota
                quota_headroom[group_id] = (
                    None if quota is None
                    else max(0, quota - allocator.large_pages_owned(group_id))
                )
            snap = AdmissionSnapshot(
                local=local,
                small_per_large=small_per_large,
                available=allocator.lcm.num_free + len(allocator.large_evictor),
                quota_headroom=quota_headroom,
                own_fully_evictable=own_fully_evictable,
            )
            self._snapshot = snap
            self._dirty = False
            self.num_rebuilds += 1
        return snap

    def demand(
        self,
        seq: SequenceSpec,
        specs: Dict[str, GroupSpec],
        policies: Dict[str, LayerTypePolicy],
    ) -> DemandEntry:
        """``seq``'s gross per-group footprint at its current length.

        Memoized per ``(request_id, len(seq))``; a waiting request probed
        across many steps computes its footprint once.  Assumes request
        ids are not reused for different content within one cache's
        lifetime (the engine guarantees monotone ids).
        """
        target = len(seq)
        entry = self._demand.get(seq.request_id)
        if entry is not None and entry.target_global == target:
            self.num_demand_hits += 1
            return entry
        gross: Dict[str, int] = {}
        stream_total: Dict[str, int] = {}
        for group_id, spec in specs.items():
            stream_len = seq.stream_length(spec.accepted_tags, target)
            gross[group_id] = len(policies[group_id].active_page_indices(stream_len))
            stream_total[group_id] = seq.stream_length(spec.accepted_tags)
        entry = DemandEntry(target, gross, stream_total)
        if seq.request_id not in self._demand and len(self._demand) >= self.DEMAND_CAPACITY:
            self._demand.pop(next(iter(self._demand)))
        self._demand[seq.request_id] = entry
        self.num_demand_misses += 1
        return entry
