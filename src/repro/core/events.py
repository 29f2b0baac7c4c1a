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

Observers arrive by binding (``manager.bind_observer``, done by the
engine).  A private allocator follows its manager.  A shared allocator
(several manager views over one pool) reports to the first non-``None``
observer bound to it; binding a different one raises ``ValueError`` and
binding ``None`` leaves it unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

__all__ = ["ALLOCATION_STEPS", "AdmissionBlocked", "Observer"]

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

    def quota_resized(
        self, group_id: str, old_quota: Optional[int], new_quota: Optional[int],
        num_owned: int, reclaimed: int,
    ) -> None:
        """A soft large-page quota changed, after any deflation reclaim
        (each reclaimed page was reported by :meth:`page_evicted`);
        ``num_owned`` is the ownership after the resize."""

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


@dataclass(frozen=True)
class AdmissionBlocked:
    """The record ``engine.events.subscribe(fn, [AdmissionBlocked])``
    hands ``fn`` for each :meth:`Observer.admission_blocked` call."""

    request_id: str
    time: float
    queue_depth: int
    num_running: int
