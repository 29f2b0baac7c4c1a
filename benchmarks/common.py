"""Shared scaffolding for the benchmark harness.

Every ``bench_*.py`` regenerates one table or figure of the paper's
evaluation section.  Results print to stdout (visible with ``pytest -s``)
and are additionally written to ``benchmarks/results/<name>.txt`` so plain
``pytest benchmarks/ --benchmark-only`` leaves artifacts behind.

Scales are reduced relative to the paper (fewer requests per point) so the
whole harness finishes in minutes on a laptop CPU; the scheduling and
allocation *decisions* per request are exact, so the reported ratios are
the reproduction targets, not the absolute tokens/s.
"""

from __future__ import annotations

import copy
import os
from typing import Dict, List, Optional

from repro import LLMEngine, get_model, kv_budget, make_manager
from repro.engine.scheduler import profile_config
from repro.platforms import H100, L4

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def save_result(name: str, text: str) -> None:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    with open(path, "w") as f:
        f.write(text + "\n")
    print(f"\n[saved {path}]")


def serve(
    model,
    gpu,
    system: str,
    requests,
    kv_bytes: Optional[int] = None,
    enable_prefix_caching: bool = True,
    max_steps: int = 200_000,
    profile: str = "vllm",
    manager=None,
    **config_overrides,
):
    """Run one (model, gpu, system, workload) cell and return metrics."""
    if kv_bytes is None:
        kv_bytes = kv_budget(model, gpu).kv_bytes
    if manager is None:
        manager = make_manager(
            system, model, kv_bytes, enable_prefix_caching=enable_prefix_caching
        )
    engine = LLMEngine(
        model, gpu, manager, config=profile_config(profile, **config_overrides)
    )
    engine.add_requests(copy.deepcopy(requests))
    metrics = engine.run(max_steps=max_steps)
    return engine, metrics
