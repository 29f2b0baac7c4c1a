"""Discrete-event driver for N replicas behind one router.

:class:`ServingCluster` merges a time-ordered request stream (from
``poisson_arrivals`` or a trace) with the replicas' independent simulated
clocks: each :meth:`step` either dispatches the next arrival through the
router or advances the earliest-ready replica by one engine step,
whichever is earlier in simulated time.  Replicas model separate GPUs, so
their clocks only couple through the arrival stream -- the cluster's
"now" for dispatch ordering is the earliest replica ready time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..engine.metrics import EngineMetrics
from ..engine.request import Request
from .replica import Replica
from .router import Router

__all__ = ["ClusterSummary", "ServingCluster"]


@dataclass(frozen=True)
class ClusterSummary:
    """Aggregated outcome of one cluster run."""

    policy: str
    num_replicas: int
    finished: int
    failed: int
    sim_duration: float
    total_tokens: int
    prefix_hit_tokens: int
    prefix_lookup_tokens: int
    preemptions: int
    routed_counts: Tuple[int, ...]
    expected_hit_tokens: int
    per_replica: Dict[str, EngineMetrics] = field(compare=False, default_factory=dict)

    @property
    def prefix_hit_rate(self) -> float:
        """Cluster-wide fraction of looked-up tokens served from cache."""
        if self.prefix_lookup_tokens <= 0:
            return 0.0
        return self.prefix_hit_tokens / self.prefix_lookup_tokens

    @property
    def tokens_per_sec_per_replica(self) -> float:
        """Simulated decode+prefill throughput, normalized per replica."""
        if self.sim_duration <= 0 or self.num_replicas <= 0:
            return 0.0
        return self.total_tokens / self.sim_duration / self.num_replicas


class ServingCluster:
    """Drive a router and its replicas to completion, deterministically.

    Args:
        replicas: The replica set (the router must be built over the same
            sequence).
        router: Routing policy instance; ``ServingCluster.build`` wires
            both up for the common homogeneous case.
        record_routes: Keep a ``(sim_time, request_id, replica_idx,
            expected_hit_tokens)`` log of every dispatch -- the cluster
            lane of the merged Chrome trace
            (:func:`repro.obs.cluster.cluster_chrome_trace`).
    """

    def __init__(
        self,
        replicas: List[Replica],
        router: Router,
        record_routes: bool = False,
    ) -> None:
        if not replicas:
            raise ValueError("cluster needs at least one replica")
        if router.replicas != list(replicas):
            raise ValueError("router must be built over the cluster's replicas")
        self.replicas = list(replicas)
        self.router = router
        # Time-ordered pending arrivals, consumed front to back.
        self._pending: List[Request] = []
        self._next_pending = 0
        self.num_dispatched = 0
        self.record_routes = record_routes
        self.route_log: List[Tuple[float, str, int, int]] = []

    @classmethod
    def build(
        cls,
        model,
        gpu,
        kv_bytes: int,
        num_replicas: int,
        policy: str = "cache_aware",
        system: str = "jenga",
        config=None,
        tokens_per_page: int = 16,
        seed: int = 0,
        tracing: bool = False,
        telemetry: bool = False,
        pressure: bool = False,
        resizing: Optional[str] = None,
        resize_interval: int = 32,
    ) -> "ServingCluster":
        """Homogeneous cluster: N identical replicas, one policy.

        ``tracing``/``telemetry``/``pressure`` attach a *per-replica*
        :class:`~repro.obs.tracer.Tracer` / bus-telemetry fold /
        pressure view of that fold (all default off, preserving the
        zero-overhead ``NULL_TRACER`` path); with tracing on the cluster
        also records the route log for the merged trace's router lane.
        ``resizing`` names a :class:`~repro.core.resizer.ResizePolicy` and
        adds a per-replica :class:`~repro.core.resizer.PoolResizer` to the
        fold (implies ``pressure``, its control signal).
        """
        from ..obs.tracer import Tracer  # deferred: serving stays obs-light

        replicas = [
            Replica(
                f"replica-{i}", model, gpu, kv_bytes,
                system=system, config=config,
                tokens_per_page=tokens_per_page, seed=seed + i,
                tracer=Tracer() if tracing else None,
                telemetry=telemetry, pressure=pressure,
                resizing=resizing, resize_interval=resize_interval,
            )
            for i in range(num_replicas)
        ]
        router = Router(replicas, policy=policy, tokens_per_page=tokens_per_page)
        return cls(replicas, router, record_routes=tracing)

    # ------------------------------------------------------------------

    def submit(self, requests: Iterable[Request]) -> None:
        """Queue ``requests``; kept sorted by arrival for dispatch order."""
        self._pending.extend(requests)
        self._pending.sort(key=lambda r: (r.arrival_time, r.request_id))

    def _earliest_ready(self) -> Optional[Tuple[float, int]]:
        best: Optional[Tuple[float, int]] = None
        for idx, replica in enumerate(self.replicas):
            ready = replica.engine.ready_time()
            if ready is not None and (best is None or ready < best[0]):
                best = (ready, idx)
        return best

    def step(self) -> Optional[str]:
        """Advance the cluster by one event.

        Returns ``"dispatch"`` (a request was routed), ``"step"`` (one
        replica ran an engine step), or ``None`` when fully drained.
        """
        ready = self._earliest_ready()
        if self._next_pending < len(self._pending):
            head = self._pending[self._next_pending]
            # Route the arrival when it precedes any replica work; with
            # the whole cluster idle the dispatch also jumps time forward.
            if ready is None or head.arrival_time <= ready[0]:
                self._next_pending += 1
                hit_before = self.router.expected_hit_tokens
                idx = self.router.route(head)
                self.num_dispatched += 1
                if self.record_routes:
                    self.route_log.append((
                        head.arrival_time, head.request_id, idx,
                        self.router.expected_hit_tokens - hit_before,
                    ))
                return "dispatch"
        if ready is None:
            return None
        self.replicas[ready[1]].step()
        return "step"

    def run(self, max_events: int = 10_000_000) -> ClusterSummary:
        """Step until every request finished (or failed); summarize."""
        for _ in range(max_events):
            if self.step() is None:
                break
        return self.summary()

    def summary(self) -> ClusterSummary:
        per_replica: Dict[str, EngineMetrics] = {}
        finished = failed = preempted = 0
        hit = lookup = total_tokens = 0
        duration = 0.0
        for replica in self.replicas:
            metrics = replica.metrics()
            per_replica[replica.replica_id] = metrics
            finished += len(metrics.requests)
            failed += len(replica.engine.failed)
            preempted += metrics.preemptions
            hit += metrics.prefix_hit_tokens
            lookup += metrics.prefix_lookup_tokens
            total_tokens += sum(
                r.prompt_len + r.output_len for r in metrics.requests
            )
            if replica.clock > duration:
                duration = replica.clock
        return ClusterSummary(
            policy=self.router.policy_name,
            num_replicas=len(self.replicas),
            finished=finished,
            failed=failed,
            sim_duration=duration,
            total_tokens=total_tokens,
            prefix_hit_tokens=hit,
            prefix_lookup_tokens=lookup,
            preemptions=preempted,
            routed_counts=tuple(self.router.routed_counts),
            expected_hit_tokens=self.router.expected_hit_tokens,
            per_replica=per_replica,
        )

    def close(self) -> None:
        for replica in self.replicas:
            replica.close()
