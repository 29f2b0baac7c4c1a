"""What the serving stack reports: one optional :class:`Observer`.

Every layer -- :class:`~repro.core.two_level.TwoLevelAllocator`,
:class:`~repro.core.kv_manager.JengaKVCacheManager`, the scheduler's
waiting queue, :class:`~repro.engine.engine.LLMEngine` and, through the
chosen replica's engine, the router -- holds ``observer:
Optional[Observer]`` and reports each five-step allocation decision
(Section 5.4), eviction (Section 5) and request transition as one plain
method call::

    obs = self.observer
    if obs is not None:
        obs.page_evicted(group_id, page_id, "small", last_access, prefix)

An unobserved run therefore pays one ``is not None`` test per site and
builds nothing.  Observation only: nothing the stack computes is read
back from the observer.  The engine keeps its own run record, admission
reads the allocator's counters, and the in-tree observer is
:class:`~repro.obs.registry.BusTelemetry`.

Wall-clock profiling rides the same hook: the engine and the manager
report the phases of their work (``phase_began`` / ``phase_ended``), which
every observer but :class:`~repro.obs.tracer.Tracer` ignores.  Several
observers share one seat through :class:`Fanout`.

Observers arrive by binding (``manager.bind_observer``, done by the
engine).  A private allocator follows its manager.  A shared allocator
(several manager views over one pool) reports to the first non-``None``
observer bound to it; binding a different one raises ``ValueError`` and
binding ``None`` leaves it unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

__all__ = ["ALLOCATION_STEPS", "AdmissionBlocked", "Fanout", "Observer"]

# Human-readable names of the §5.4 five-step allocation algorithm, keyed by
# the ``steps`` of :meth:`Observer.pages_allocated`.  Step 0 is not part of
# the paper's algorithm: it tags the naive first-fit path taken when
# request-aware allocation is disabled (the §4.3 ablation), so analytics
# can tell it apart from a genuine step-4 fallback.
ALLOCATION_STEPS: Dict[int, str] = {
    0: "first-fit small page (request-aware ablation)",
    1: "request-associated small page",
    2: "empty large page",
    3: "evict large page",
    4: "arbitrary small page",
    5: "evict small page",
}


class Observer:
    """One no-op method per record kind; subclasses override what they count."""

    # -- allocator -------------------------------------------------------

    def pages_allocated(
        self, group_id: str, request_id: str,
        page_ids: Tuple[int, ...], steps: Tuple[int, ...],
    ) -> None:
        """One ``allocate_pages`` call succeeded; ``steps[i]`` is the §5.4
        step (1-5, or 0 for the ablation's first fit) that satisfied
        ``page_ids[i]``.  Its carves and evictions were reported before."""

    def large_page_carved(
        self, group_id: str, large_page_id: int, num_small_pages: int
    ) -> None:
        """A large page was carved from the LCM pool into small pages."""

    def page_evicted(
        self, group_id: str, page_id: int, level: str,
        last_access: float, prefix_length: float,
    ) -> None:
        """An evictable page (``level`` ``small``/``large``) was reclaimed;
        the two keys are the priority it held (§5.1's eviction order)."""

    def page_released(self, group_id: str, page_id: int, cached: bool) -> None:
        """A page's last reference dropped (``cached``: kept as evictable),
        or a displaced stale cached copy was freed (``cached=False``)."""

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
