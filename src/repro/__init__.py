"""Jenga: effective memory management for serving LLMs with heterogeneity.

A faithful, CPU-only reproduction of the SOSP 2025 paper.  The package has
four layers:

* :mod:`repro.core` -- the paper's contribution: the two-level LCM
  allocator, request-aware allocation, and customizable prefix caching.
* :mod:`repro.models` / :mod:`repro.platforms` -- architecture and GPU
  metadata the allocator and cost model consume.
* :mod:`repro.baselines` -- PagedAttention-homogeneous (vLLM v0.6.3),
  MAX-page, GCD-page, and SmartSpec managers behind the same interface.
* :mod:`repro.engine` / :mod:`repro.workloads` -- a deterministic
  serving-engine simulator and seeded workload generators that regenerate
  every table and figure of the paper's evaluation (see ``benchmarks/``).

Quickstart::

    from repro import JengaKVCacheManager, LLMEngine, get_model, H100, kv_budget
    from repro.workloads import sharegpt

    model = get_model("gemma2-9b")
    budget = kv_budget(model, H100)
    manager = JengaKVCacheManager(model.kv_groups(), budget.kv_bytes)
    engine = LLMEngine(model, H100, manager)
    engine.add_requests(sharegpt(64))
    metrics = engine.run()
    print(metrics.token_throughput(), "tokens/s")
"""

from .baselines import (
    DualManager,
    GCDPageManager,
    MaxPageManager,
    PagedAttentionManager,
    make_manager,
)
from .core import (
    GroupSpec,
    JengaKVCacheManager,
    KVCacheManager,
    LCMAllocator,
    Observer,
    SequenceSpec,
    TwoLevelAllocator,
    UnknownManagerError,
    available_managers,
    create_manager,
    register_manager,
    resolve_manager,
)
from .engine import (
    EngineMetrics,
    LLMEngine,
    Request,
    SchedulerConfig,
    SpecDecodeEngine,
    make_spec_manager,
    profile_config,
)
from .models import ModelSpec, get_model, list_models
from .obs import BusTelemetry, TelemetryRegistry, Tracer
from .platforms import GPU, H100, L4, kv_budget
from .serving import Replica, Router, ServingCluster

__version__ = "1.0.0"

__all__ = [
    "BusTelemetry",
    "DualManager",
    "EngineMetrics",
    "GCDPageManager",
    "GPU",
    "GroupSpec",
    "H100",
    "JengaKVCacheManager",
    "KVCacheManager",
    "L4",
    "LCMAllocator",
    "LLMEngine",
    "MaxPageManager",
    "ModelSpec",
    "Observer",
    "PagedAttentionManager",
    "Replica",
    "Request",
    "Router",
    "SchedulerConfig",
    "SequenceSpec",
    "ServingCluster",
    "SpecDecodeEngine",
    "TelemetryRegistry",
    "Tracer",
    "TwoLevelAllocator",
    "UnknownManagerError",
    "available_managers",
    "create_manager",
    "get_model",
    "kv_budget",
    "list_models",
    "make_manager",
    "make_spec_manager",
    "profile_config",
    "register_manager",
    "resolve_manager",
    "__version__",
]
