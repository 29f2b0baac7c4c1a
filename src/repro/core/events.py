"""What the serving stack reports: one optional :class:`Observer`.

Every layer above the pool --
:class:`~repro.core.kv_manager.JengaKVCacheManager`, the scheduler's
waiting queue, :class:`~repro.engine.engine.LLMEngine` and, through the
chosen replica's engine, the router -- holds ``observer:
Optional[Observer]`` and reports each prefix lookup, request transition
and engine step as one plain method call::

    obs = self.observer
    if obs is not None:
        obs.request_finished(request_id, time)

An unobserved run therefore pays one ``is not None`` test per site and
builds nothing.  Observation only: nothing the stack computes is read
back from the observer.  The engine keeps its own run record, admission
reads the allocator's counters, and the in-tree observer is
:class:`~repro.obs.registry.BusTelemetry`.

The :class:`~repro.core.two_level.TwoLevelAllocator` reports nothing: it
keeps what its five steps (Section 5.4) and evictions (Section 5) did as
plain totals, which the telemetry reads once per ``step_completed``.

Wall-clock profiling rides the same hook: the engine and the manager
report the phases of their work (``phase_began`` / ``phase_ended``), which
every observer but :class:`~repro.obs.tracer.Tracer` ignores.  Several
observers share one seat through :class:`Fanout`.

Observers arrive by binding (``manager.bind_observer``, done by the
engine).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

__all__ = ["AdmissionBlocked", "Fanout", "Observer"]


class Observer:
    """One no-op method per record kind; subclasses override what they count."""

    # -- manager ---------------------------------------------------------

    def prefix_hit(self, request_id: str, hit_tokens: int, lookup_tokens: int) -> None:
        """One prefix-cache lookup (``hit_tokens`` may be zero on a miss)."""

    # -- engine, queue and router ------------------------------------------

    def request_queued(self, request_id: str, arrival_time: float) -> None:
        """A request entered the waiting queue (arrival or preemption)."""

    def request_admitted(self, request_id: str, time: float, cached_tokens: int) -> None:
        """The scheduler admitted a waiting request into the running set."""

    def admission_blocked(
        self, request_id: str, time: float, queue_depth: int, num_running: int
    ) -> None:
        """The queue head's admission probe actually failed (the
        :class:`~repro.engine.scheduler.AdmissionGate` memo skips provably
        redundant re-probes); ``queue_depth`` requests wait behind it."""

    def request_preempted(self, request_id: str, time: float, reason: str) -> None:
        """A running request was preempted by recomputation: ``"victim"``
        (room for another request) or ``"self"`` (nobody left to evict)."""

    def request_finished(self, request_id: str, time: float) -> None:
        """A request produced its last token."""

    def request_failed(self, request_id: str, time: float) -> None:
        """A request can never fit on the GPU (permanent failure)."""

    def request_routed(
        self, request_id: str, replica_id: str, policy: str, expected_hit_tokens: int
    ) -> None:
        """One routing decision, reported to the chosen replica's engine."""

    def step_completed(self, time: float, record: Any) -> None:
        """One engine step ended at ``time``; ``record`` is its
        :class:`~repro.engine.metrics.StepRecord` (``Any`` keeps the core
        layer free of engine imports)."""

    # -- wall-clock phases -------------------------------------------------

    def phase_began(self, name: str, request_id: Optional[str] = None) -> None:
        """A phase of work opened inside the innermost open one (``"step"``
        opens one engine step); ``request_id`` names the request it
        serves, if one."""

    def phase_ended(self) -> None:
        """The innermost open phase closed."""


class Fanout(Observer):
    """One observer seat for several: every :class:`Observer` call is
    forwarded to each of ``observers`` in turn."""

    def __init__(self, *observers: Observer) -> None:
        self.observers = observers


def _forward(name: str) -> Any:
    def forward(self: Fanout, *args: Any, **kwargs: Any) -> None:
        for observer in self.observers:
            getattr(observer, name)(*args, **kwargs)

    forward.__name__, forward.__qualname__ = name, f"Fanout.{name}"
    return forward


for _name in [name for name in vars(Observer) if not name.startswith("_")]:
    setattr(Fanout, _name, _forward(_name))


@dataclass(frozen=True)
class AdmissionBlocked:
    """The record ``engine.events.subscribe(fn, [AdmissionBlocked])``
    hands ``fn`` for each :meth:`Observer.admission_blocked` call."""

    request_id: str
    time: float
    queue_depth: int
    num_running: int
