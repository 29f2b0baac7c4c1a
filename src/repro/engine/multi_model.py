"""Multi-model serving from one Jenga pool (Section 6.1's extension).

The paper notes Jenga "can be extended to serve multiple models inside the
same LLM inference engine": register every model's layer-type groups, and
the LCM of *all* page sizes becomes the granularity at which the models
trade memory.  This module implements that extension:

* one :class:`~repro.core.two_level.TwoLevelAllocator` spans the union of
  all models' groups (each namespaced ``<model>/<group>``);
* each model gets a :class:`~repro.core.kv_manager.JengaKVCacheManager`
  view over its own groups, backed by the shared allocator -- so an idle
  model's memory is automatically available to a busy one, and prefix
  caches of all models compete under one global eviction policy;
* :class:`MultiModelEngine` time-multiplexes the GPU: each simulation step
  runs one model's batch (the earliest-clock deployment with work),
  mirroring how a serial executor interleaves kernels of co-located
  models.

The static alternative (one pool per model, the MuxServe-style split) is
available for comparison via ``shared=False``.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..core.events import EventBus
from ..core.kv_manager import JengaKVCacheManager
from ..core.layer_policy import GroupSpec, make_policy
from ..core.two_level import TwoLevelAllocator
from ..models.config import ModelSpec
from ..platforms.gpu import GPU
from .engine import LLMEngine
from .metrics import EngineMetrics
from .request import Request
from .scheduler import SchedulerConfig

__all__ = ["MultiModelEngine", "build_shared_managers"]


def build_shared_managers(
    models: Dict[str, ModelSpec],
    total_bytes: int,
    tokens_per_page: int = 16,
    enable_prefix_caching: bool = True,
    seed: int = 0,
) -> Dict[str, JengaKVCacheManager]:
    """One shared LCM pool, one manager view per model."""
    all_specs: Dict[str, GroupSpec] = {}
    for name, model in models.items():
        all_specs.update(model.kv_groups(tokens_per_page, group_prefix=f"{name}/"))
    policies = {
        g: make_policy(s, enable_prefix_caching=enable_prefix_caching, seed=seed)
        for g, s in all_specs.items()
    }
    allocator = TwoLevelAllocator(
        total_bytes, all_specs, policies,
        enable_prefix_caching=enable_prefix_caching,
    )
    managers = {}
    for name, model in models.items():
        specs = model.kv_groups(tokens_per_page, group_prefix=f"{name}/")
        managers[name] = JengaKVCacheManager(
            specs, total_bytes,
            enable_prefix_caching=enable_prefix_caching,
            shared_allocator=allocator,
        )
    return managers


class MultiModelEngine:
    """Serve several models on one GPU, one step at a time.

    Args:
        models: Deployment name -> architecture.
        gpu: Shared platform.
        total_kv_bytes: KV memory shared (or split) across deployments.
        shared: ``True`` (default) pools memory through one LCM allocator;
            ``False`` statically splits it proportionally to each model's
            per-token KV size (the MuxServe-style baseline).
        tokens_per_page: Small-page granularity, plumbed identically
            through both modes so shared vs. static comparisons never
            silently run different page sizes.
        events: One bus shared by *every* deployment's engine.  ``None``
            (default) keeps per-engine private buses.  A shared bus is how
            a pool-level fold (``BusTelemetry`` with its pressure and
            resizer views, as in the elastic benchmark) observes all
            tenants' admission and step traffic in one place.
    """

    def __init__(
        self,
        models: Dict[str, ModelSpec],
        gpu: GPU,
        total_kv_bytes: int,
        shared: bool = True,
        config: Optional[SchedulerConfig] = None,
        enable_prefix_caching: bool = True,
        tokens_per_page: int = 16,
        events: Optional[EventBus] = None,
    ) -> None:
        if not models:
            raise ValueError("at least one model deployment is required")
        self.models = dict(models)
        self.gpu = gpu
        self.shared = shared
        self.clock = 0.0
        # Deployments whose last step made no progress (memory-blocked on
        # a co-tenant); cleared the moment they step successfully.
        self._stalled: set = set()
        self.engines: Dict[str, LLMEngine] = {}
        if shared:
            managers = build_shared_managers(
                models, total_kv_bytes,
                tokens_per_page=tokens_per_page,
                enable_prefix_caching=enable_prefix_caching,
            )
        else:
            weights = {
                name: m.kv_bytes_per_token_alllayers() + m.mamba_state_bytes() / 4096
                for name, m in models.items()
            }
            total_weight = sum(weights.values())
            managers = {}
            for name, model in models.items():
                share = int(total_kv_bytes * weights[name] / total_weight)
                managers[name] = JengaKVCacheManager(
                    model.kv_groups(tokens_per_page), share,
                    enable_prefix_caching=enable_prefix_caching,
                )
        for name, model in models.items():
            self.engines[name] = LLMEngine(
                model, gpu, managers[name], config=config, events=events
            )

    # ------------------------------------------------------------------

    def add_request(self, deployment: str, request: Request) -> None:
        if deployment not in self.engines:
            raise KeyError(f"unknown deployment {deployment!r}")
        self.engines[deployment].add_request(request)

    def add_requests(self, deployment: str, requests) -> None:
        for request in requests:
            self.add_request(deployment, request)

    def _pick_next(self) -> Optional[Tuple[float, str]]:
        """(ready_time, name) of the deployment that can run soonest.

        A deployment with running requests is ready at its own clock; one
        with only queued requests is ready at their earliest arrival.  The
        multiplexer owns idle-time jumps -- letting an idle engine's own
        step() jump to a future arrival would drag the *shared* clock
        forward and starve the deployment that is actually busy.  On a
        ready-time tie a memory-stalled deployment yields to an active
        one: re-probing the stalled tenant cannot succeed until the
        active tenant has run and released pages.
        """
        best: Optional[Tuple[float, bool, str]] = None
        for name, engine in self.engines.items():
            ready = engine.ready_time()
            if ready is None:
                continue
            key = (ready, name in self._stalled, name)
            if best is None or key < best:
                best = key
        if best is None:
            return None
        return (best[0], best[2])

    def step(self) -> Optional[str]:
        """Run one step of the next deployment; returns its name."""
        pick = self._pick_next()
        if pick is None:
            return None
        ready, name = pick
        engine = self.engines[name]
        # The GPU is serial: every engine observes the shared clock, and
        # idle gaps advance it to the chosen deployment's ready time.
        self.clock = max(self.clock, ready)
        engine.clock = max(engine.clock, self.clock)
        if engine.step() is not None:
            self.clock = max(self.clock, engine.clock)
            self._stalled.discard(name)
            return name
        if not engine.waiting:
            self._stalled.discard(name)
            return name
        # The deployment has queued work but made no progress: admission
        # refused it while a co-tenant holds the shared pool (the engine
        # only fails a request permanently when the whole pool is idle).
        # Park its clock at the next *other* deployment's ready time so
        # the multiplexer runs the tenant actually holding the memory; if
        # every deployment with work is parked, nobody can ever free a
        # page and the run ends instead of spinning.
        self._stalled.add(name)
        others = [
            r for other, eng in self.engines.items()
            if other != name
            for r in [eng.ready_time()]
            if r is not None
        ]
        if not others or all(
            n in self._stalled for n, e in self.engines.items()
            if e.ready_time() is not None
        ):
            return None
        engine.clock = max(engine.clock, min(others))
        return name

    def run(self, max_steps: int = 1_000_000) -> Dict[str, EngineMetrics]:
        steps = 0
        while steps < max_steps:
            if self.step() is None:
                break
            steps += 1
        return {name: engine.metrics() for name, engine in self.engines.items()}

    def memory_report(self) -> Dict[str, int]:
        """Used KV bytes per deployment (shared mode shows the pooling)."""
        out: Dict[str, int] = {}
        for name, engine in self.engines.items():
            stats = engine.manager.stats()
            used = sum(
                b for g, b in stats.used_bytes_by_group.items()
                if not self.shared or g.startswith(f"{name}/")
            )
            out[name] = used
        return out
