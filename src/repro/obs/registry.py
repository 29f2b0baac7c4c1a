"""Telemetry registry and the one observer that feeds it.

:class:`TelemetryRegistry` is a plain in-process metrics store; it knows
nothing about the serving stack.  :class:`BusTelemetry` is the adapter and
the in-tree :class:`~repro.core.events.Observer`: it counts every report
the stack makes exactly once into registry instruments:

* the Section 5.4 five-step decision histogram (``alloc/step/<n>``
  counters keyed by :data:`~repro.core.events.ALLOCATION_STEPS`),
* eviction provenance -- small vs. large level, per group
  (``evict/group/<gid>``), and balanced (recency-keyed) vs. aligned
  (prefix-length tie-break) priority (Section 5.1),
* preemption reasons (``victim`` vs. ``self``), blocked admissions,
  request lifecycle tallies, prefix-cache token counters,
* routing decisions (``routing/policy/<name>``, ``routing/replica/<id>``,
  expected hit tokens) when it observes a serving replica,
* the memory / waste / fragmentation timeline sampled from each step's
  :class:`~repro.engine.metrics.MemorySnapshot` (the Figure 16 axes), on
  the *simulated* clock.

A :class:`~repro.obs.tracer.Tracer` given the same registry adds the
per-phase wall-time histograms (``phase/<name>``).

Derived from those counts, the pressure EWMAs
(:class:`~repro.obs.pressure.PressureMonitor`) are a *view* the fold's
``step_completed`` ticks after its counters.
"""

from __future__ import annotations

from math import ceil, inf
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.events import Observer

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


class BusTelemetry(Observer):
    """The in-tree observer: every report counted once into a registry.

    Pass it as ``LLMEngine(observer=...)`` (or ``MultiModelEngine``).
    ``pressure`` is the optional per-step view; whoever assembles the
    fold assigns it, and :meth:`step_completed` ticks it.
    """

    def __init__(self, registry: Optional[TelemetryRegistry] = None) -> None:
        self.registry = registry if registry is not None else TelemetryRegistry()
        #: Duck-typed so obs.registry does not import the view's module:
        #: ``pressure.on_step(time, memory)``.
        self.pressure: Any = None
        self._step_keys = KeyMemo("alloc/step/")
        self._evict_keys = KeyMemo("evict/")
        self._preempt_keys = KeyMemo("preempt/")
        #: group id -> its ``evict/group/<gid>`` counter key, for every
        #: group that has evicted (the pressure view iterates it).
        self.group_eviction_keys = KeyMemo("evict/group/")

    # ------------------------------------------------------------------

    def pages_allocated(
        self, group_id: str, request_id: str,
        page_ids: Tuple[int, ...], steps: Tuple[int, ...],
    ) -> None:
        # One report per allocation call, len(page_ids) pool mutations.
        reg = self.registry
        reg.inc("alloc/pages", len(page_ids))
        for step in steps:
            reg.inc(self._step_keys[step])

    def page_released(self, group_id: str, page_id: int, cached: bool) -> None:
        self.registry.inc("release/cached" if cached else "release/freed")

    def page_evicted(
        self, group_id: str, page_id: int, level: str,
        last_access: float, prefix_length: float,
    ) -> None:
        reg = self.registry
        reg.inc(self._evict_keys[level])
        reg.inc(self.group_eviction_keys[group_id])
        # §5.1 provenance: a zero prefix length means plain recency
        # ("balanced") eviction; a non-zero one means the prefix-depth
        # tie-break ("aligned") participated in victim choice.
        reg.inc("evict/priority/aligned" if prefix_length else "evict/priority/balanced")

    def large_page_carved(
        self, group_id: str, large_page_id: int, num_small_pages: int
    ) -> None:
        self.registry.inc("alloc/large_carved")

    def prefix_hit(self, request_id: str, hit_tokens: int, lookup_tokens: int) -> None:
        reg = self.registry
        reg.inc("prefix/lookups")
        reg.inc("prefix/hit_tokens", hit_tokens)
        reg.inc("prefix/lookup_tokens", lookup_tokens)

    def request_queued(self, request_id: str, arrival_time: float) -> None:
        self.registry.inc("requests/queued")

    def request_admitted(self, request_id: str, time: float, cached_tokens: int) -> None:
        self.registry.inc("requests/admitted")

    def admission_blocked(
        self, request_id: str, time: float, queue_depth: int, num_running: int
    ) -> None:
        self.registry.inc("pressure/admission_blocked")
        self.registry.set_gauge("pressure/queue_depth", float(queue_depth))

    def request_preempted(self, request_id: str, time: float, reason: str) -> None:
        self.registry.inc(self._preempt_keys[reason])

    def request_finished(self, request_id: str, time: float) -> None:
        self.registry.inc("requests/finished")

    def request_failed(self, request_id: str, time: float) -> None:
        self.registry.inc("requests/failed")

    def request_routed(
        self, request_id: str, replica_id: str, policy: str, expected_hit_tokens: int
    ) -> None:
        # One report per request dispatch (not per page), so the f-string
        # keys are off the per-page hot path.
        reg = self.registry
        reg.inc("routing/requests")
        reg.inc(f"routing/policy/{policy}")
        reg.inc(f"routing/replica/{replica_id}")
        reg.inc("routing/expected_hit_tokens", expected_hit_tokens)

    def step_completed(self, time: float, record: Any) -> None:
        """Counters, then the pressure view, whose EWMAs then include
        this step."""
        reg = self.registry
        reg.inc("engine/steps")
        memory = getattr(record, "memory", None)
        if memory is not None:
            for key, attr in _MEM_GAUGES:
                value = getattr(memory, attr)
                reg.set_gauge(key, value)
                reg.record_point(key, time, value)
        if self.pressure is not None:
            self.pressure.on_step(time, memory)
