"""Telemetry registry and the one bus fold that feeds it.

:class:`TelemetryRegistry` is a plain in-process metrics store; it knows
nothing about the serving stack.  :class:`BusTelemetry` is the adapter and
the only :class:`~repro.core.events.EventBus` subscriber in the tree: it
counts every event the stack emits exactly once into registry
instruments:

* the Section 5.4 five-step decision histogram (``alloc/step/<n>``
  counters keyed by :data:`~repro.core.events.ALLOCATION_STEPS`),
* eviction provenance -- small vs. large level, per group
  (``evict/group/<gid>``), and balanced (recency-keyed) vs. aligned
  (prefix-length tie-break) priority (Section 5.1),
* preemption reasons (``victim`` vs. ``self``), blocked admissions,
  request lifecycle tallies, prefix-cache token counters, host-offload
  spill volume, quota moves (``resize/*``),
* routing decisions (``routing/policy/<name>``, ``routing/replica/<id>``,
  expected hit tokens) when attached to a serving replica's bus,
* the memory / waste / fragmentation timeline sampled from each step's
  :class:`~repro.engine.metrics.MemorySnapshot` (the Figure 16 axes), on
  the *simulated* clock,
* per-phase wall-time histograms from ``StepRecord.phases`` when the
  engine ran with a tracer attached.

Everything derived from those counts is a *view* ticked by the fold's one
``StepCompleted`` handler, in a fixed written order: counters, then the
pressure EWMAs (:class:`~repro.obs.pressure.PressureMonitor`), then the
resizer (:class:`~repro.core.resizer.PoolResizer`).  Attaching the fold
never touches engine code; detach with :meth:`BusTelemetry.close` so
reused buses do not accumulate dead handlers.
"""

from __future__ import annotations

from math import ceil, inf
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.events import (
    AdmissionBlocked,
    Event,
    EventBus,
    LargePageCarved,
    PageEvicted,
    PageEvictedToHost,
    PageReleased,
    PagesAllocated,
    PrefixHit,
    QuotaResized,
    RequestAdmitted,
    RequestFailed,
    RequestFinished,
    RequestPreempted,
    RequestQueued,
    RequestRouted,
    StepCompleted,
)

__all__ = [
    "Histogram",
    "TelemetryRegistry",
    "BusTelemetry",
    "LATENCY_BUCKETS_S",
]

#: Log-spaced upper bounds (seconds) for wall-time histograms: 1us .. 1s.
LATENCY_BUCKETS_S: Tuple[float, ...] = (
    1e-6, 2e-6, 5e-6,
    1e-5, 2e-5, 5e-5,
    1e-4, 2e-4, 5e-4,
    1e-3, 2e-3, 5e-3,
    1e-2, 2e-2, 5e-2,
    1e-1, 2e-1, 5e-1,
    1.0,
)


class Histogram:
    """Fixed-bucket histogram with exact count/sum/min/max.

    ``bounds`` are inclusive upper bucket bounds, strictly increasing;
    one implicit overflow bucket catches everything above the last bound.
    Percentiles are nearest-rank over buckets, so they are exact for
    values on bucket bounds and otherwise report the bound of the bucket
    holding the rank (plus the true max for the overflow bucket).
    """

    __slots__ = ("bounds", "counts", "count", "total", "vmin", "vmax")

    def __init__(self, bounds: Sequence[float]) -> None:
        ordered = tuple(bounds)
        if not ordered:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b >= c for b, c in zip(ordered, ordered[1:])):
            raise ValueError(f"bucket bounds must be strictly increasing: {ordered}")
        self.bounds = ordered
        self.counts = [0] * (len(ordered) + 1)
        self.count = 0
        self.total = 0.0
        self.vmin = inf
        self.vmax = -inf

    def observe(self, value: float) -> None:
        lo, hi = 0, len(self.bounds)
        while lo < hi:  # bisect over the fixed bounds
            mid = (lo + hi) // 2
            if value <= self.bounds[mid]:
                hi = mid
            else:
                lo = mid + 1
        self.counts[lo] += 1
        self.count += 1
        self.total += value
        if value < self.vmin:
            self.vmin = value
        if value > self.vmax:
            self.vmax = value

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile approximated at bucket granularity."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = max(1, ceil(q * self.count))
        running = 0
        for idx, n in enumerate(self.counts):
            running += n
            if running >= rank:
                if idx < len(self.bounds):
                    return min(self.bounds[idx], self.vmax)
                return self.vmax
        return self.vmax

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.vmin if self.count else 0.0,
            "max": self.vmax if self.count else 0.0,
            "p50": self.percentile(0.50),
            "p99": self.percentile(0.99),
            "buckets": {
                "bounds": list(self.bounds),
                "counts": list(self.counts),
            },
        }


class _Timeline:
    """Bounded (time, value) series with stride-doubling decimation.

    When the point budget fills, every other retained point is dropped
    and the sampling stride doubles, so arbitrarily long runs keep a
    uniform, bounded sketch of the full timeline.
    """

    __slots__ = ("cap", "stride", "points", "_skip", "last")

    def __init__(self, cap: int = 2048) -> None:
        self.cap = cap
        self.stride = 1
        self.points: List[Tuple[float, float]] = []
        self._skip = 0
        self.last: Optional[Tuple[float, float]] = None

    def record(self, t: float, value: float) -> None:
        self.last = (t, value)
        self._skip += 1
        if self._skip < self.stride:
            return
        self._skip = 0
        self.points.append((t, value))
        if len(self.points) >= self.cap:
            self.points = self.points[::2]
            self.stride *= 2

    def snapshot(self) -> Dict[str, Any]:
        return {
            "points": len(self.points),
            "stride": self.stride,
            "last": list(self.last) if self.last is not None else None,
            "series": [list(p) for p in self.points],
        }


class TelemetryRegistry:
    """Named counters, gauges, histograms, and timelines.

    Instruments are created on first use; names are free-form but the
    convention is ``area/detail`` (``alloc/step/2``, ``phase/schedule``,
    ``mem/used``) so reports group naturally.
    """

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.gauges: Dict[str, float] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._timelines: Dict[str, _Timeline] = {}

    # -- instruments ----------------------------------------------------

    def inc(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def set_gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value

    def histogram(
        self, name: str, bounds: Sequence[float] = LATENCY_BUCKETS_S
    ) -> Histogram:
        hist = self._histograms.get(name)
        if hist is None:
            hist = self._histograms[name] = Histogram(bounds)
        return hist

    def observe(
        self, name: str, value: float, bounds: Sequence[float] = LATENCY_BUCKETS_S
    ) -> None:
        self.histogram(name, bounds).observe(value)

    def timeline(self, name: str, cap: int = 2048) -> _Timeline:
        series = self._timelines.get(name)
        if series is None:
            series = self._timelines[name] = _Timeline(cap)
        return series

    def record_point(self, name: str, t: float, value: float) -> None:
        self.timeline(name).record(t, value)

    # -- export ---------------------------------------------------------

    @property
    def histograms(self) -> Dict[str, Histogram]:
        return dict(self._histograms)

    @property
    def timelines(self) -> Dict[str, "_Timeline"]:
        return dict(self._timelines)

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready dump of every instrument."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "histograms": {
                name: h.snapshot() for name, h in sorted(self._histograms.items())
            },
            "timelines": {
                name: t.snapshot() for name, t in sorted(self._timelines.items())
            },
        }


#: Memory-snapshot fields mirrored onto gauges and the sim-clock timeline.
_MEM_GAUGES = (
    ("mem/used", "used_bytes"),
    ("mem/evictable", "evictable_bytes"),
    ("mem/waste", "waste_bytes"),
    ("mem/free", "free_bytes"),
)


class KeyMemo(Dict[Any, str]):
    """``prefix + name + suffix`` instrument keys, formatted once per
    distinct name so per-page handlers pay a dict lookup per event."""

    def __init__(self, prefix: str, suffix: str = "") -> None:
        super().__init__()
        self.prefix, self.suffix = prefix, suffix

    def __missing__(self, name: Any) -> str:
        key = self[name] = f"{self.prefix}{name}{self.suffix}"
        return key


class BusTelemetry:
    """The one bus subscriber: every event counted once into a registry.

    Subscribes on construction; call :meth:`close` when the run is over
    (a reused bus would otherwise keep feeding a registry nobody reads).
    ``pressure`` and ``resizer`` are the optional per-step views; whoever
    assembles the fold assigns them, and :meth:`_on_step` ticks them.
    """

    _EVENT_TYPES = (
        PagesAllocated,
        LargePageCarved,
        PageEvicted,
        PageEvictedToHost,
        PageReleased,
        PrefixHit,
        QuotaResized,
        RequestQueued,
        RequestAdmitted,
        AdmissionBlocked,
        RequestPreempted,
        RequestFinished,
        RequestFailed,
        RequestRouted,
        StepCompleted,
    )

    def __init__(
        self, events: EventBus, registry: Optional[TelemetryRegistry] = None
    ) -> None:
        self.events = events
        self.registry = registry if registry is not None else TelemetryRegistry()
        #: Duck-typed so obs.registry imports neither view's module:
        #: ``pressure.on_step(time, memory)`` then ``resizer.on_step()``.
        self.pressure: Any = None
        self.resizer: Any = None
        self._step_keys = KeyMemo("alloc/step/")
        self._evict_keys = KeyMemo("evict/")
        self._preempt_keys = KeyMemo("preempt/")
        #: group id -> its ``evict/group/<gid>`` counter key, for every
        #: group that has evicted (the pressure view iterates it).
        self.group_eviction_keys = KeyMemo("evict/group/")
        # Latest simulated-clock step time, so quota timeline points land
        # next to the pressure/score track even though QuotaResized itself
        # carries no timestamp.
        self._time = 0.0
        events.subscribe(self._on_event, self._EVENT_TYPES)

    def close(self) -> None:
        """Unsubscribe from the bus (idempotent)."""
        self.events.unsubscribe(self._on_event)

    # ------------------------------------------------------------------

    def _on_event(self, event: Event) -> None:
        reg = self.registry
        if isinstance(event, PagesAllocated):
            # One record per allocation call, len(page_ids) pool mutations.
            reg.inc("alloc/pages", event.num_pages)
            for step in event.steps:
                reg.inc(self._step_keys[step])
        elif isinstance(event, PageReleased):
            reg.inc("release/cached" if event.cached else "release/freed")
        elif isinstance(event, PageEvicted):
            reg.inc(self._evict_keys[event.level])
            reg.inc(self.group_eviction_keys[event.group_id])
            # §5.1 provenance: a zero prefix length means plain recency
            # ("balanced") eviction; a non-zero one means the prefix-depth
            # tie-break ("aligned") participated in victim choice.
            reg.inc(
                "evict/priority/aligned"
                if event.prefix_length
                else "evict/priority/balanced"
            )
        elif isinstance(event, LargePageCarved):
            reg.inc("alloc/large_carved")
        elif isinstance(event, PageEvictedToHost):
            reg.inc("offload/spills")
            reg.inc("offload/spill_bytes", event.page_bytes)
        elif isinstance(event, PrefixHit):
            reg.inc("prefix/lookups")
            reg.inc("prefix/hit_tokens", event.hit_tokens)
            reg.inc("prefix/lookup_tokens", event.lookup_tokens)
        elif isinstance(event, QuotaResized):
            # One event per resize decision (control plane, not per page),
            # so the f-string group key is off the per-page hot path.
            reg.inc("resize/quota_resized")
            reg.inc(f"resize/group/{event.group_id}/resizes")
            reg.inc("resize/reclaimed_large", event.reclaimed)
            if event.new_quota is not None:
                # The quota staircase lands on the sim-clock timeline, so
                # Chrome traces show each step next to pressure/score.
                key = f"resize/group/{event.group_id}/quota"
                reg.set_gauge(key, float(event.new_quota))
                reg.record_point(key, self._time, float(event.new_quota))
        elif isinstance(event, RequestQueued):
            reg.inc("requests/queued")
        elif isinstance(event, RequestAdmitted):
            reg.inc("requests/admitted")
        elif isinstance(event, AdmissionBlocked):
            reg.inc("pressure/admission_blocked")
            reg.set_gauge("pressure/queue_depth", float(event.queue_depth))
        elif isinstance(event, RequestPreempted):
            reg.inc(self._preempt_keys[event.reason])
        elif isinstance(event, RequestFinished):
            reg.inc("requests/finished")
        elif isinstance(event, RequestFailed):
            reg.inc("requests/failed")
        elif isinstance(event, RequestRouted):
            # One event per request dispatch (not per page), so the
            # f-string keys are off the per-page hot path.
            reg.inc("routing/requests")
            reg.inc(f"routing/policy/{event.policy}")
            reg.inc(f"routing/replica/{event.replica_id}")
            reg.inc("routing/expected_hit_tokens", event.expected_hit_tokens)
        elif isinstance(event, StepCompleted):
            self._on_step(event)

    def _on_step(self, event: StepCompleted) -> None:
        """Counters, then the pressure view, then the resizer tick.

        The order is the contract: the resizer decides on EWMAs that
        already include this step, and whatever its quota moves evict is
        counted after the pressure view closed this step's window, so it
        lands in the next one.
        """
        reg = self.registry
        self._time = event.time
        reg.inc("engine/steps")
        record = event.record
        memory = getattr(record, "memory", None)
        if memory is not None:
            for key, attr in _MEM_GAUGES:
                value = getattr(memory, attr)
                reg.set_gauge(key, value)
                reg.record_point(key, event.time, value)
        phases = getattr(record, "phases", None)
        if phases:
            for phase, seconds in phases.items():
                reg.observe(f"phase/{phase}", seconds)
        if self.pressure is not None:
            self.pressure.on_step(event.time, memory)
        if self.resizer is not None:
            self.resizer.on_step()
