"""Span-based tracer: wall-clock attribution for engine steps.

The simulator's :class:`~repro.engine.metrics.StepRecord` carries a single
``duration`` in *simulated* seconds; nothing in the repo said where the
*wall-clock* cost of a step went.  The :class:`Tracer` fills that gap: the
engine opens one ``step`` span per :meth:`~repro.engine.engine.LLMEngine.step`
call and nests ``schedule`` / ``allocate`` / ``commit`` / ``release`` phase
spans inside it, so ``repro.cli trace`` can attribute a regression to the
scheduler loop vs. the allocator vs. commit bookkeeping without an
external profiler.

Two clocks coexist deliberately: spans are stamped with ``perf_counter``
wall time (this is a profiler), while observer reports and step records
keep the simulated clock.  The Chrome-trace exporter keeps them on separate
"processes" so Perfetto never conflates the two.

**Null fast path.**  Tracing must cost nothing when off.  Every span
primitive is a no-op on a disabled tracer, but -- exactly like the
``observer is not None`` test -- call sites on hot paths must not even
pay for argument construction.  The convention: every span call in a
hot module sits under a test of the tracer's ``.enabled`` flag::

    if tracer is not None and tracer.enabled:
        tracer.instant("queue.push", args={"depth": len(self._heap)})

Engines hold :data:`NULL_TRACER` (a shared disabled instance) by default,
so ``self.tracer.enabled`` is always a plain attribute load.

**Phase accounting.**  Spans nest (``allocate`` runs inside ``schedule``'s
loop, ``release`` inside ``allocate`` when an eviction victim is
preempted), so per-phase totals are *exclusive* (self-time): entering a
child pauses the parent's accumulation.  The per-step totals handed back
by :meth:`Tracer.step_end` therefore sum to at most the step's wall
duration -- never double-counting -- which is the invariant
``tests/test_tracer.py`` locks in.
"""

from __future__ import annotations

import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, Iterator, List, Optional

__all__ = ["Span", "Tracer", "NULL_TRACER"]


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


# Open-span stack entry indices (plain lists beat a dataclass on the
# per-phase hot path: two pushes + two pops per traced engine step).
_NAME, _CAT, _START, _EXCL_MARK, _EXCL_ACC, _ARGS = range(6)

_STEP_CAT = "step"


class Tracer:
    """Records nested spans, instants, and counter samples.

    Args:
        capacity: Ring size for completed spans; the oldest are dropped
            once full (a trace, not an unbounded log).
        clock: Timestamp source, seconds, monotonic.  Defaults to
            :func:`time.perf_counter`; tests inject a deterministic fake.
        enabled: A tracer built with ``enabled=False`` is inert: every
            primitive returns immediately and records nothing (the null
            fast path).  Use the shared :data:`NULL_TRACER` instead of
            building disabled instances.
    """

    def __init__(
        self,
        capacity: int = 65536,
        clock: Optional[Callable[[], float]] = None,
        enabled: bool = True,
    ) -> None:
        self.enabled = enabled
        self._clock: Callable[[], float] = clock if clock is not None else time.perf_counter
        self._spans: Deque[Span] = deque(maxlen=capacity)
        self._stack: List[List[Any]] = []
        self._phase_totals: Dict[str, float] = {}
        self._epoch = self._clock() if enabled else 0.0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._spans)

    @property
    def spans(self) -> List[Span]:
        """Completed spans, oldest first."""
        return list(self._spans)

    @property
    def open_depth(self) -> int:
        """Number of spans currently open (0 when balanced)."""
        return len(self._stack)

    def now(self) -> float:
        """Seconds since the tracer's epoch."""
        return self._clock() - self._epoch

    def clear(self) -> None:
        """Drop completed spans and per-step totals; open spans survive."""
        self._spans.clear()
        self._phase_totals.clear()

    # ------------------------------------------------------------------
    # Span primitives
    # ------------------------------------------------------------------

    def begin_span(
        self, name: str, cat: str = "phase", args: Optional[Dict[str, Any]] = None
    ) -> None:
        """Open a span; every ``begin_span`` needs a matching ``end_span``."""
        if not self.enabled:
            return
        now = self.now()
        if self._stack:
            parent = self._stack[-1]
            parent[_EXCL_ACC] += now - parent[_EXCL_MARK]
        self._stack.append([name, cat, now, now, 0.0, args])

    def end_span(self) -> Optional[Span]:
        """Close the innermost open span and record it."""
        if not self.enabled or not self._stack:
            return None
        now = self.now()
        entry = self._stack.pop()
        exclusive = entry[_EXCL_ACC] + (now - entry[_EXCL_MARK])
        name: str = entry[_NAME]
        if entry[_CAT] != _STEP_CAT:
            self._phase_totals[name] = self._phase_totals.get(name, 0.0) + exclusive
        span = Span(
            name=name,
            cat=entry[_CAT],
            start=entry[_START],
            duration=now - entry[_START],
            depth=len(self._stack),
            args=entry[_ARGS],
        )
        self._spans.append(span)
        if self._stack:
            self._stack[-1][_EXCL_MARK] = now
        return span

    @contextmanager
    def span(
        self, name: str, cat: str = "phase", args: Optional[Dict[str, Any]] = None
    ) -> Iterator[None]:
        """``with tracer.span("schedule"):`` -- begin/end around a block.

        Convenience for warm paths; hot call sites use explicit
        ``begin_span``/``end_span`` under an ``enabled`` guard so nothing
        is evaluated when tracing is off.
        """
        if not self.enabled:
            yield
            return
        self.begin_span(name, cat, args)
        try:
            yield
        finally:
            self.end_span()

    def instant(
        self, name: str, cat: str = "instant", args: Optional[Dict[str, Any]] = None
    ) -> None:
        """Record a zero-duration marker (Chrome ``ph: "i"``)."""
        if not self.enabled:
            return
        self._spans.append(
            Span(name, cat, self.now(), 0.0, kind="i", depth=len(self._stack), args=args)
        )

    def counter(self, name: str, value: float, cat: str = "counter") -> None:
        """Record a counter sample (Chrome ``ph: "C"``, a Perfetto track)."""
        if not self.enabled:
            return
        self._spans.append(
            Span(name, cat, self.now(), 0.0, kind="C", args={"value": value})
        )

    # ------------------------------------------------------------------
    # Engine-step protocol
    # ------------------------------------------------------------------

    def step_begin(self, index: int) -> None:
        """Open the per-step root span and reset the phase accumulator."""
        if not self.enabled:
            return
        self._phase_totals = {}
        self.begin_span("step", cat=_STEP_CAT, args={"step": index})

    def step_end(self) -> Optional[Dict[str, float]]:
        """Close the step span; return exclusive per-phase seconds.

        The dict maps phase name to self-time accumulated since
        :meth:`step_begin`; the values sum to at most the step span's wall
        duration.  Returns ``None`` on a disabled tracer.
        """
        if not self.enabled:
            return None
        totals = dict(self._phase_totals)
        self.end_span()
        return totals


#: Shared inert tracer: the engine's default, so ``self.tracer.enabled``
#: is always a valid (and false) test without ``None`` checks.
NULL_TRACER = Tracer(capacity=0, enabled=False)
