"""Pool-pressure view: the fold's counters -> per-replica pressure gauges.

:class:`PressureMonitor` is the sensing half of elastic pool
repartitioning.  It subscribes to nothing: the
:class:`~repro.obs.registry.BusTelemetry` fold counts admission blocks,
evictions (total and per group) and preemptions once, and ticks this view
from its ``StepCompleted`` handler.  The view turns the *per-step deltas*
of those counters into exponentially-weighted moving averages, so the
gauges answer "how hard is this replica's pool being squeezed *right
now*", not "how many evictions ever happened".  The composite
``pressure/score`` in ``[0, 1]`` is the max of the block-rate,
preemption-rate, and non-reclaimable-occupancy terms: any one of them
saturating means the pool is the bottleneck.
"""

from __future__ import annotations

from typing import Any, Dict

from .registry import BusTelemetry, KeyMemo

__all__ = ["PressureMonitor"]

#: EWMA weight for per-step rates: ~the last ``1/alpha`` steps dominate.
_EWMA_ALPHA = 0.2

#: EWMA gauge -> the fold counters whose per-step delta it averages.
_RATE_INPUTS = {
    "pressure/blocked_rate": ("pressure/admission_blocked",),
    "pressure/eviction_rate": ("evict/small", "evict/large"),
    "pressure/preemption_rate": ("preempt/victim", "preempt/self"),
}


class PressureMonitor:
    """EWMA/score math over a :class:`BusTelemetry` fold's counters.

    Gauges (folded per step, all in the fold's registry):

    * ``pressure/blocked_rate`` / ``pressure/eviction_rate`` /
      ``pressure/preemption_rate`` -- EWMA events-per-step,
    * ``pressure/group/<gid>/eviction_rate`` -- per-group EWMA,
    * ``pressure/waste_frac`` / ``pressure/occupancy`` -- from the step's
      :class:`~repro.engine.metrics.MemorySnapshot` (needs
      ``record_memory``); occupancy counts only non-reclaimable bytes,
      mirroring :class:`~repro.serving.replica.ReplicaLoad.pressure`,
    * ``pressure/score`` -- composite in ``[0, 1]``.

    ``pressure/score`` and ``pressure/waste_frac`` are also recorded as
    sim-clock timelines, so the squeeze is plottable next to the ``mem/*``
    tracks in the merged cluster trace.  The counters it reads
    (``pressure/admission_blocked``, ``evict/*``, ``preempt/*``) and the
    ``pressure/queue_depth`` gauge are the fold's.
    """

    def __init__(self, telemetry: BusTelemetry) -> None:
        self.registry = telemetry.registry
        self._group_keys = telemetry.group_eviction_keys
        # Counter name -> its value at the previous step (delta baseline;
        # whatever the fold counted before this view existed is not its).
        self._seen: Dict[str, int] = dict(self.registry.counters)
        # EWMA state per gauge name, and per group id.
        self._rates: Dict[str, float] = dict.fromkeys(_RATE_INPUTS, 0.0)
        self._group_rates: Dict[str, float] = {}
        self._group_rate_keys = KeyMemo("pressure/group/", "/eviction_rate")
        self.score = 0.0

    def group_eviction_rates(self) -> Dict[str, float]:
        """Per-group EWMA eviction rates (events/step), a fresh copy.

        The per-group pressure component a bound
        :class:`~repro.core.resizer.PoolResizer` folds into its demand
        weights; O(#groups) per call, control-plane only.
        """
        return dict(self._group_rates)

    # ------------------------------------------------------------------

    def on_step(self, time: float, memory: Any) -> None:
        """Close this step's window: fold counter deltas into the gauges."""
        reg = self.registry
        for gauge, counters in _RATE_INPUTS.items():
            window = sum(self._delta(name) for name in counters)
            prev = self._rates[gauge]
            self._rates[gauge] = cur = prev + _EWMA_ALPHA * (window - prev)
            reg.set_gauge(gauge, cur)
        for gid, key in self._group_keys.items():
            prev = self._group_rates.get(gid, 0.0)
            self._group_rates[gid] = cur = prev + _EWMA_ALPHA * (self._delta(key) - prev)
            reg.set_gauge(self._group_rate_keys[gid], cur)

        occupancy = 0.0
        if memory is not None:
            total = (
                memory.used_bytes + memory.evictable_bytes
                + memory.waste_bytes + memory.free_bytes
            )
            if total > 0:
                waste_frac = memory.waste_bytes / total
                # Evictable bytes are reclaimable headroom, not occupancy
                # (same convention as ReplicaLoad.pressure).
                occupancy = 1.0 - (memory.free_bytes + memory.evictable_bytes) / total
                reg.set_gauge("pressure/waste_frac", waste_frac)
                reg.set_gauge("pressure/occupancy", occupancy)
                reg.record_point("pressure/waste_frac", time, waste_frac)

        score = min(1.0, max(
            self._rates["pressure/blocked_rate"],
            self._rates["pressure/preemption_rate"],
            occupancy,
        ))
        self.score = score
        reg.set_gauge("pressure/score", score)
        reg.record_point("pressure/score", time, score)

    def _delta(self, name: str) -> int:
        """How far counter ``name`` moved since the previous step."""
        now = self.registry.counters.get(name, 0)
        delta = now - self._seen.get(name, 0)
        self._seen[name] = now
        return delta
