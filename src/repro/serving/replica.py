"""One serving replica: engine + manager + an optional telemetry observer.

A :class:`Replica` is the unit the router balances over -- a full
:class:`~repro.engine.engine.LLMEngine` over its own KV-cache manager,
reporting to its *own* :class:`~repro.obs.registry.BusTelemetry` when
asked for one, so per-replica telemetry stays exact.  Each replica models
one GPU, so replica clocks advance independently;
:class:`~repro.serving.cluster.ServingCluster` owns the cross-replica
event ordering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..baselines import make_manager
from ..engine.engine import LLMEngine
from ..engine.metrics import EngineMetrics
from ..engine.request import Request
from ..engine.scheduler import SchedulerConfig
from ..models.config import ModelSpec
from ..obs.pressure import PressureMonitor
from ..obs.registry import BusTelemetry, TelemetryRegistry
from ..obs.tracer import Tracer
from ..platforms.gpu import GPU

__all__ = ["Replica", "ReplicaLoad"]


@dataclass(frozen=True)
class ReplicaLoad:
    """Point-in-time pressure signals the router balances on.

    ``available_bytes`` counts free *plus* evictable pool bytes: cached
    prefixes are reclaimable headroom, not occupancy, so a replica full of
    evictable cache is as admittable as an empty one.
    """

    num_running: int
    num_waiting: int
    available_bytes: int
    total_bytes: int

    @property
    def queue_depth(self) -> int:
        return self.num_running + self.num_waiting

    @property
    def pressure(self) -> float:
        """Fraction of the pool not reclaimable right now (0 = idle)."""
        if self.total_bytes <= 0:
            return 0.0
        return 1.0 - self.available_bytes / self.total_bytes


class Replica:
    """One engine instance addressable by the router.

    Args:
        replica_id: Stable name used in routing events and summaries.
        model: Architecture served by this replica.
        gpu: Platform envelope (drives the engine's cost model).
        kv_bytes: KV-cache region size for this replica's manager.
        system: A :data:`~repro.baselines.SYSTEMS` name (``"jenga"``,
            ``"vllm"``, ...).
        manager: Pre-built manager, overriding ``system``/``kv_bytes``
            construction (for instance one wrapped to count its calls).
        tracer: Per-replica span tracer handed to the engine (``None``:
            untraced) -- tracing is opted into per replica.
        telemetry: Observe the engine with a per-replica
            :class:`~repro.obs.registry.BusTelemetry` fold, kept as
            ``self.telemetry`` and feeding ``self.registry``; it also reads
            the totals of the manager's ``allocator``.
        pressure: Add the :class:`~repro.obs.pressure.PressureMonitor`
            view (``self.telemetry.pressure``: EWMA rates and
            ``pressure/score``) to that fold; it reads the fold's
            counters, so it brings the fold with it.
    """

    def __init__(
        self,
        replica_id: str,
        model: ModelSpec,
        gpu: GPU,
        kv_bytes: int = 0,
        system: str = "jenga",
        config: Optional[SchedulerConfig] = None,
        seed: int = 0,
        manager=None,
        tracer: Optional[Tracer] = None,
        telemetry: bool = False,
        pressure: bool = False,
    ) -> None:
        self.replica_id = replica_id
        self.model = model
        if manager is None:
            if kv_bytes <= 0:
                raise ValueError("kv_bytes is required when no manager is given")
            manager = make_manager(system, model, kv_bytes, seed=seed)
        self.manager = manager
        self.tracer = tracer
        # One fold per replica, reading the replica's pool; pressure is a
        # view it ticks (counters -> pressure EWMAs) on every step_completed.
        self.telemetry: Optional[BusTelemetry] = None
        if telemetry or pressure:
            self.telemetry = BusTelemetry()
            self.telemetry.allocator = manager.allocator
        self.engine = LLMEngine(
            model, gpu, manager, config=config, observer=self.telemetry,
            tracer=tracer,
        )
        fold = self.telemetry
        if fold is not None and pressure:
            fold.pressure = PressureMonitor(fold)

    # ------------------------------------------------------------------

    @property
    def registry(self) -> Optional[TelemetryRegistry]:
        """The fold's registry (``None`` on an unobserved replica)."""
        return self.telemetry.registry if self.telemetry is not None else None

    @property
    def clock(self) -> float:
        return self.engine.clock

    def submit(self, request: Request) -> None:
        self.engine.add_request(request)

    def step(self):
        """Advance this replica by one engine step (None when idle)."""
        return self.engine.step()

    def load(self) -> ReplicaLoad:
        stats = self.manager.stats()
        return ReplicaLoad(
            num_running=len(self.engine.running),
            num_waiting=len(self.engine.waiting),
            available_bytes=stats.free_bytes + stats.evictable_bytes,
            total_bytes=stats.total_bytes,
        )

    def metrics(self) -> EngineMetrics:
        return self.engine.metrics()

    def __repr__(self) -> str:
        return f"Replica({self.replica_id!r}, clock={self.engine.clock:.1f})"
