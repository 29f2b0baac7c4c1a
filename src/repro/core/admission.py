"""Admission demand memo: a request's per-group footprint, computed once.

:meth:`~repro.core.kv_manager.JengaKVCacheManager.can_admit` answers the
scheduler's "will this prompt's footprint ever fit?" question from two
independent inputs:

* the **pool side** -- per group, ``num_free + len(evictor)`` minus the
  fully-evictable-large-page overlap, the quota headroom, plus the shared
  ``lcm.num_free + len(large_evictor)`` availability.  Every term is an
  O(1) counter the allocator maintains, so ``can_admit`` reads them live;
* the **demand side** -- the request's steady-state resident footprint per
  group (:meth:`~repro.core.kv_manager.JengaKVCacheManager.resident_pages_needed`)
  plus the policy's peak-residency correction
  (:meth:`~repro.core.layer_policy.LayerTypePolicy.peak_pages`).  For a
  fixed prompt this is a pure function of the sequence's length and tag
  layout, so a blocked request need not recompute it on every engine step
  it spends waiting.

:class:`AdmissionCache` memoizes the demand side, keyed by
``(request_id, computed-length bucket)``.  It holds the *gross* per-group
footprint; pages the request already holds (prefix hits acquired at
``begin_request``) are subtracted live, since they change between probes
without the sequence growing.

Skipping a blocked head-of-queue probe outright is the engine's
:class:`~repro.engine.scheduler.AdmissionGate`, keyed on
:attr:`TwoLevelAllocator.version <repro.core.two_level.TwoLevelAllocator.version>`
(via ``KVCacheManager.admission_version``): the verdict is a pure function
of pool counters and sequence length, so an unchanged version with an
unchanged head means an unchanged verdict.

``can_admit_uncached`` (the original, recompute-everything path) stays as
the ``stats_slow()``-style cross-check; ``tests/test_admission_cache.py``
property-tests the two against each other under randomized churn.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from .layer_policy import GroupSpec, LayerTypePolicy
from .sequence import SequenceSpec

__all__ = ["AdmissionCache", "DemandEntry"]


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
    """Per-request demand memo behind ``can_admit`` (one per manager)."""

    #: Demand-memo bound: oldest entries are dropped past this many
    #: requests.  Entries are *not* purged on release -- the engine
    #: releases a blocked request right after every failed probe, and the
    #: memoized demand is a pure function of the sequence's geometry, so
    #: it stays valid across probe cycles.
    DEMAND_CAPACITY = 4096

    def __init__(self) -> None:
        self._demand: Dict[str, DemandEntry] = {}
        # Effectiveness counters (surfaced by the admission benchmark).
        self.num_demand_hits = 0
        self.num_demand_misses = 0

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
