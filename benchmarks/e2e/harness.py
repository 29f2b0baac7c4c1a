"""Build one workload's system, drive it to drained, and measure it.

Two kinds of number come out of a run and the names say which is which:
``sim_*`` is what the modelled GPU would do (it repeats exactly for a
seed) and ``host_*`` is what the simulator costs to run on this machine.
Accelerator time is *modelled* by ``repro.engine.cost_model``; nothing
here is measured on an accelerator.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.events import AdmissionBlocked
from repro.core.registry import create_manager
from repro.engine.engine import LLMEngine
from repro.engine.metrics import RequestMetrics
from repro.engine.request import Request
from repro.engine.scheduler import SchedulerConfig
from repro.models import get_model
from repro.obs.tracer import Tracer
from repro.platforms import H100, L4, kv_budget
from repro.serving import Replica, Router, ServingCluster

from trace import Proxy, Recorder, percentile, unwrap
from workloads import Inputs, Workload

__all__ = ["RunResult", "System", "build_system", "run_once"]

GPUS = {"H100": H100, "L4": L4}

#: Timed methods -> position of the argument that carries the request.
MANAGER_METHODS = {
    "begin_request": 0, "can_admit": 0, "needs_allocation": 0,
    "allocate_up_to": 0, "allocate_vision": 0, "consume_vision": 0,
    "commit": 0, "release": 0,
}
ALLOCATOR_METHODS = {
    "allocate_pages": 1, "allocate_page": 1, "release_page": None,
    "acquire_cached": 2, "register_block_hash": None,
    "touch_evictable": None, "stats": None,
}

#: A run that has not drained after this many steps is cut off and its
#: remaining requests counted as unfinished.
MAX_STEPS = 2_000_000
#: Steps between two memory samples of a traced run.
MEMORY_SAMPLE_EVERY = 64
#: Share of requests sent that must meet both latency limits.
SLO_SHARE = 0.95
#: The last quarter of arrivals may wait at most this many times as long
#: for its first token as the first quarter (no growing backlog).
BACKLOG_FACTOR = 2.0


@dataclass
class System:
    """One built system under test (single engine or cluster)."""

    engines: List[LLMEngine]
    #: The real managers, never the proxies: checks and memory samples
    #: read them without adding spans.
    managers: List[Any]
    cluster: Optional[Any] = None
    router: Optional[Router] = None
    admission_blocked: int = 0

    def count_blocked(self, _event: Any) -> None:
        self.admission_blocked += 1

    def submit(self, requests: Sequence[Request]) -> None:
        if self.cluster is not None:
            self.cluster.submit(requests)
        else:
            self.engines[0].add_requests(requests)

    def close(self) -> None:
        if self.cluster is not None:
            self.cluster.close()
        else:
            self.engines[0].close()


def kv_bytes_of(workload: Workload) -> int:
    if workload.kv_bytes:
        return workload.kv_bytes
    model = get_model(workload.model, quantized=workload.quantized)
    return int(kv_budget(model, GPUS[workload.gpu]).kv_bytes * workload.kv_share)


def build_system(
    workload: Workload,
    system: str = "jenga",
    recorder: Optional[Recorder] = None,
    observers: bool = False,
) -> System:
    """The workload's engine or cluster over registry manager ``system``.

    With a ``recorder`` the manager, its allocator, ``engine.step``, the
    router and the cluster are wrapped in timing proxies.  ``observers``
    switches the in-tree observers on (the ``obs.*`` arms): a ``Tracer``
    for a single engine, bus telemetry plus pressure monitors for a
    cluster.
    """
    model = get_model(workload.model, quantized=workload.quantized)
    gpu = GPUS[workload.gpu]
    kv_bytes = kv_bytes_of(workload)
    config = SchedulerConfig(max_num_seqs=workload.max_num_seqs)

    def manager_for(index: int) -> Tuple[Any, Any]:
        """(real manager, what the engine is given)."""
        raw = create_manager(
            system, "model", model, kv_bytes,
            enable_prefix_caching=workload.prefix_caching, seed=index,
        )
        if recorder is None:
            return raw, raw
        raw.allocator = Proxy(raw.allocator, recorder, "core.two_level", ALLOCATOR_METHODS)
        return raw, Proxy(raw, recorder, "core.kv_manager", MANAGER_METHODS)

    if not workload.replicas:
        raw, manager = manager_for(0)
        engine = LLMEngine(
            model, gpu, manager, config=config,
            tracer=Tracer() if observers else None,
        )
        built = System([engine], [raw])
    else:
        raws, replicas = [], []
        for index in range(workload.replicas):
            raw, manager = manager_for(index)
            raws.append(raw)
            replicas.append(Replica(
                f"replica-{index}", model, gpu, manager=manager, config=config,
                telemetry=observers, pressure=observers,
            ))
        router: Any = Router(replicas, policy="cache_aware")
        raw_router = router
        if recorder is not None:
            router = Proxy(router, recorder, "serving.router", {"route": 0})
        cluster: Any = ServingCluster(replicas, router)
        if recorder is not None:
            cluster = Proxy(cluster, recorder, "serving.cluster", {"step": None})
        built = System([r.engine for r in replicas], raws, cluster, raw_router)

    for engine in built.engines:
        if recorder is not None:
            engine.step = recorder.wrap("engine.step", engine.step, None)
            # Counting blocked admissions needs a bus subscriber, which
            # makes the engine build the event: traced run only.
            engine.events.subscribe(built.count_blocked, [AdmissionBlocked])
    return built


@dataclass
class RunResult:
    """One drained run of one arrival schedule."""

    wall_s: float
    #: Host seconds of every ``engine.step()`` / every ``cluster.step()``
    #: that ran an engine step.
    step_s: List[float]
    #: Simulated values and counts; identical for identical inputs.
    sim: Dict[str, float]
    #: Traced runs only: mean share of pool bytes over the memory samples,
    #: and failed admission probes seen on the bus.
    memory: Dict[str, float]
    admission_blocked: int
    #: Output checks that failed (empty = correct).
    errors: List[str]


def run_once(
    workload: Workload,
    inputs: Inputs,
    rate_index: int = 0,
    system: str = "jenga",
    recorder: Optional[Recorder] = None,
    observers: bool = False,
) -> RunResult:
    clock = time.perf_counter
    built = build_system(workload, system, recorder, observers)
    requests = inputs.requests(rate_index)
    built.submit(requests)

    step_s: List[float] = []
    samples: List[Dict[str, float]] = []
    dispatches = 0
    t_begin = clock()
    if built.cluster is not None:
        step = built.cluster.step
        while len(step_s) < MAX_STEPS:
            t0 = clock()
            kind = step()
            t1 = clock()
            if kind is None:
                break
            if kind == "step":
                step_s.append(t1 - t0)
                if recorder is not None and len(step_s) % MEMORY_SAMPLE_EVERY == 0:
                    samples.append(_memory_sample(built.managers))
            else:
                dispatches += 1
    else:
        engine = built.engines[0]
        step = engine.step
        while (engine.waiting or engine.running) and len(step_s) < MAX_STEPS:
            t0 = clock()
            record = step()
            t1 = clock()
            if record is None:
                break
            step_s.append(t1 - t0)
            if recorder is not None and len(step_s) % MEMORY_SAMPLE_EVERY == 0:
                samples.append(_memory_sample(built.managers))
    wall_s = clock() - t_begin

    sim = _simulated(workload, built, requests, rate_index, dispatches)
    errors = _check(workload, built, requests, sim)
    memory = {
        key: sum(s[key] for s in samples) / len(samples) if samples else 0.0
        for key in ("waste", "used", "evictable")
    }
    built.close()
    return RunResult(
        wall_s, step_s, sim, memory, built.admission_blocked, errors
    )


def _memory_sample(managers: Sequence[Any]) -> Dict[str, float]:
    waste = used = evictable = total = 0
    for manager in managers:
        stats = unwrap(manager.allocator).stats()
        waste += stats.waste_bytes
        used += stats.used_bytes
        evictable += stats.evictable_bytes
        total += stats.total_bytes
    return {"waste": waste / total, "used": used / total, "evictable": evictable / total}


def _simulated(
    workload: Workload,
    built: System,
    requests: Sequence[Request],
    rate_index: int,
    dispatches: int,
) -> Dict[str, float]:
    """Everything the modelled system did, from the objects the run left."""
    engines = built.engines
    finished: Dict[str, RequestMetrics] = {
        m.request_id: m for engine in engines for m in engine.finished
    }
    failed = sum(len(engine.failed) for engine in engines)
    unfinished = sum(len(engine.waiting) + len(engine.running) for engine in engines)
    if built.cluster is not None:
        unfinished += len(requests) - built.cluster.num_dispatched
    makespan = max(engine.clock for engine in engines)
    steps = [record for engine in engines for record in engine.steps]
    tokens = sum(m.prompt_len + m.output_len for m in finished.values())

    # Latencies in arrival order; a request that did not finish has none.
    ttft = [finished[r.request_id].ttft for r in requests if r.request_id in finished]
    tpot = [m.tpot for m in finished.values() if m.output_len > 1]
    waits = [
        r.first_scheduled_time - r.arrival_time
        for r in requests if r.first_scheduled_time is not None
    ]
    sim: Dict[str, float] = {
        "submitted": len(requests),
        "finished": len(finished),
        "failed": failed,
        "unfinished": unfinished,
        "steps": len(steps),
        "dispatches": dispatches,
        "makespan_s": makespan,
        "tokens_per_s": tokens / makespan if makespan else 0.0,
        "requests_per_s": len(finished) / makespan if makespan else 0.0,
        "ttft_p50_s": percentile(ttft, 0.50),
        "ttft_p95_s": percentile(ttft, 0.95),
        "ttft_p99_s": percentile(ttft, 0.99),
        "tpot_p50_s": percentile(tpot, 0.50),
        "queue_wait_p50_s": percentile(waits, 0.50),
        "queue_wait_p95_s": percentile(waits, 0.95),
        "preemptions": sum(engine.collector.preemptions for engine in engines),
        "hit_tokens": sum(engine.collector.prefix_hit_tokens for engine in engines),
        "lookup_tokens": sum(engine.collector.prefix_lookup_tokens for engine in engines),
        "decode_batch_mean": _mean([s.decode_batch for s in steps if s.decode_batch > 0]),
        "prefill_tokens_per_step_mean": _mean([s.prefill_tokens for s in steps]),
        "evictions_small": sum(
            group.num_evictions
            for manager in built.managers
            for group in unwrap(manager.allocator).groups.values()
        ),
        "evictions_large": sum(
            unwrap(m.allocator).num_large_evictions for m in built.managers
        ),
    }
    if built.router is not None:
        routed = built.router.routed_counts
        sim["expected_hit_tokens"] = built.router.expected_hit_tokens
        sim["routed_imbalance"] = max(routed) / (sum(routed) / len(routed))

    if workload.rates:
        within = sum(
            1 for m in finished.values()
            if m.ttft <= workload.ttft_limit_s and m.tpot <= workload.tpot_limit_s
        )
        quarter = max(1, len(ttft) // 4)
        backlog_ok = _mean(ttft[-quarter:]) <= BACKLOG_FACTOR * _mean(ttft[:quarter])
        sim["slo_share"] = within / len(requests)
        sim["meets_limit"] = float(sim["slo_share"] >= SLO_SHARE and backlog_ok)
    return sim


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _check(
    workload: Workload,
    built: System,
    requests: Sequence[Request],
    sim: Dict[str, float],
) -> List[str]:
    """Output checks; every string returned is a failure."""
    errors: List[str] = []
    for index, manager in enumerate(built.managers):
        allocator = unwrap(manager.allocator)
        try:
            allocator.check_invariants()
        except (AssertionError, ValueError) as exc:
            errors.append(f"manager {index}: check_invariants: {exc}")
        if allocator.stats() != allocator.stats_slow():
            errors.append(f"manager {index}: stats() != stats_slow()")
    if sim["submitted"] != sim["finished"] + sim["failed"] + sim["unfinished"]:
        errors.append(
            "submitted {submitted} != finished {finished} + failed {failed} "
            "+ unfinished {unfinished}".format(**sim)
        )
    wanted = {r.request_id: r.max_output_tokens for r in requests}
    for engine in built.engines:
        for m in engine.finished:
            if m.output_len != wanted.get(m.request_id):
                errors.append(
                    f"{m.request_id}: {m.output_len} output tokens, "
                    f"wanted {wanted.get(m.request_id)}"
                )
            elif not m.arrival_time <= m.first_token_time <= m.finish_time:
                errors.append(f"{m.request_id}: timestamps out of order")
    return errors
