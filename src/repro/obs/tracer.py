"""Span tracer: the observer that stamps wall-clock phases.

The simulator's :class:`~repro.engine.metrics.StepRecord` carries
*simulated* seconds only; nothing in the record says where the
*wall-clock* cost of a step went.  The :class:`Tracer` is the
:class:`~repro.core.events.Observer` that does.  The engine reports one
``step`` phase per :meth:`~repro.engine.engine.LLMEngine.step` call and
nests ``schedule`` / ``admission`` / ``allocate`` / ``commit`` /
``release`` phases inside it, and
:class:`~repro.core.kv_manager.JengaKVCacheManager` reports its
``prefix_lookup``, each through the one observer it already holds::

    obs = self.observer
    if obs is not None:
        obs.phase_began("allocate")

So ``repro.cli trace`` can attribute a regression to the scheduler loop
vs. the allocator vs. commit bookkeeping without an external profiler.
``LLMEngine(tracer=...)`` seats a tracer beside another observer through
:class:`~repro.core.events.Fanout`.

Two clocks coexist deliberately: spans are stamped with ``perf_counter``
wall time (this is a profiler), while the other reports and the step
records keep the simulated clock.  The Chrome-trace exporter keeps them
on separate "processes" so Perfetto never conflates the two.

**Phase accounting.**  Phases nest (``allocate`` runs inside
``schedule``'s loop, ``release`` inside ``allocate`` when an eviction
victim is preempted), so per-phase totals are *exclusive* (self-time):
entering a child pauses the parent's accumulation.  When a step closes,
its totals go to the tracer's registry as ``phase/<name>`` histograms;
they sum to at most the step span's wall duration -- never
double-counting -- which is the invariant ``tests/test_tracer.py`` locks
in.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional

from ..core.events import Observer
from .registry import TelemetryRegistry

__all__ = ["Span", "Tracer"]


@dataclass(frozen=True)
class Span:
    """One completed trace event.

    ``kind`` follows the Chrome trace-event phase it exports to: ``"X"``
    (complete span), ``"i"`` (instant), ``"C"`` (counter sample, value in
    ``args["value"]``).  ``start``/``duration`` are seconds relative to
    the tracer's epoch; instants and counters have zero duration.
    """

    name: str
    cat: str
    start: float
    duration: float
    kind: str = "X"
    depth: int = 0
    args: Optional[Dict[str, Any]] = None


# Open-phase stack entry indices (plain lists beat a dataclass on the
# per-phase hot path).
_EXCL_MARK, _EXCL_ACC, _ARGS = 2, 3, 4

_STEP = "step"


class Tracer(Observer):
    """Records nested phase spans, instants, and counter samples.

    Args:
        capacity: Ring size for completed spans; the oldest are dropped
            once full (a trace, not an unbounded log).
        clock: Timestamp source, seconds, monotonic.  Defaults to
            :func:`time.perf_counter`; tests inject a deterministic fake.
        registry: Where each step's exclusive per-phase seconds go, as
            ``phase/<name>`` histograms (``repro.cli report`` passes its
            telemetry's); ``None`` keeps only the spans.
    """

    def __init__(
        self,
        capacity: int = 65536,
        clock: Optional[Callable[[], float]] = None,
        registry: Optional[TelemetryRegistry] = None,
    ) -> None:
        self.registry = registry
        self._clock: Callable[[], float] = clock if clock is not None else time.perf_counter
        self._spans: Deque[Span] = deque(maxlen=capacity)
        self._stack: List[List[Any]] = []
        self._phase_totals: Dict[str, float] = {}
        self._epoch = self._clock()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def spans(self) -> List[Span]:
        """Completed spans, oldest first."""
        return list(self._spans)

    @property
    def open_depth(self) -> int:
        """Number of phases currently open (0 when balanced)."""
        return len(self._stack)

    def clear(self) -> None:
        """Drop completed spans and per-step totals; open phases survive."""
        self._spans.clear()
        self._phase_totals.clear()

    # ------------------------------------------------------------------
    # Phase spans
    # ------------------------------------------------------------------

    def phase_began(self, name: str, request_id: Optional[str] = None) -> None:
        """Open a span; a ``"step"`` resets the per-phase totals."""
        now = self._clock() - self._epoch
        stack = self._stack
        if stack:
            parent = stack[-1]
            parent[_EXCL_ACC] += now - parent[_EXCL_MARK]
        if name == _STEP:
            self._phase_totals = {}
        args = None if request_id is None else {"request": request_id}
        stack.append([name, now, now, 0.0, args])

    def phase_ended(self) -> None:
        """Close the innermost open span and record it; closing a step
        observes its per-phase totals into the registry."""
        stack = self._stack
        if not stack:
            return
        now = self._clock() - self._epoch
        name, start, mark, exclusive, args = stack.pop()
        totals = self._phase_totals
        if name != _STEP:
            cat = "phase"
            totals[name] = totals.get(name, 0.0) + exclusive + (now - mark)
        else:
            cat = _STEP
            registry = self.registry
            if registry is not None:
                for phase, seconds in totals.items():
                    registry.observe(f"phase/{phase}", seconds)
        self._spans.append(Span(name, cat, start, now - start, "X", len(stack), args))
        if stack:
            stack[-1][_EXCL_MARK] = now

    # ------------------------------------------------------------------
    # Markers
    # ------------------------------------------------------------------

    def instant(
        self, name: str, cat: str = "instant", args: Optional[Dict[str, Any]] = None
    ) -> None:
        """Record a zero-duration marker (Chrome ``ph: "i"``)."""
        now = self._clock() - self._epoch
        self._spans.append(Span(name, cat, now, 0.0, "i", len(self._stack), args))

    def counter(self, name: str, value: float, cat: str = "counter") -> None:
        """Record a counter sample (Chrome ``ph: "C"``, a Perfetto track)."""
        now = self._clock() - self._epoch
        self._spans.append(Span(name, cat, now, 0.0, "C", 0, {"value": value}))

    def request_queued(self, request_id: str, arrival_time: float) -> None:
        """A ``queue/push`` marker per push (arrival or preemption)."""
        self.instant("queue/push", "scheduler", {"request": request_id})

    def step_completed(self, time: float, record: Any) -> None:
        """Stamp the open step span with the record's index, and sample
        the running and waiting counts as Perfetto counter tracks."""
        if self._stack:
            self._stack[-1][_ARGS] = {"step": record.index}
        self.counter("engine/running", record.num_running)
        self.counter("engine/waiting", record.num_waiting)
