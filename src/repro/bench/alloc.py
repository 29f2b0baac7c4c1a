"""Allocation microbenchmark: churn ops/sec, scaling sweeps, engine steps.

Three workloads, each cross-checked against the allocator's own
invariants at checkpoints (``stats()`` == ``stats_slow()``,
``check_invariants()``), so the numbers can never come from a silently
corrupted allocator:

* **churn** -- randomized allocate / release / acquire_cached cycles over
  heterogeneous groups (different small-page sizes sharing one LCM pool),
  swept across pool sizes.  With the indexed free pool and incremental
  large-page priority, per-op cost must stay flat as the pool grows; the
  sweep's ``scaling_ratio`` (p50 at the largest pool / p50 at the
  smallest) makes that visible in ``BENCH_alloc.json``.
* **queue** -- steady-state push/pop on the scheduler's
  :class:`~repro.engine.scheduler.WaitingQueue` swept across standing
  queue depths; heap-backed, so cost must not grow with depth.
* **admission** -- deep-waiting-queue admission sweep: every queued
  request probed per round through the cached ``can_admit`` (live
  allocator counters + demand memo) and the ``can_admit_uncached``
  cross-check, with one allocator mutation between rounds.  Cached
  per-probe p50 must stay flat as the queue deepens while the uncached
  per-round total grows linearly; every verdict is asserted equal across
  the two arms.
* **engine** -- a full synthetic serving run (continuous batching,
  prefix caching, preemption) under memory pressure, reporting wall-clock
  steps/sec and p50/p99 step latency.
* **routing** -- a multi-replica :class:`~repro.serving.cluster.ServingCluster`
  sweep over forked-prefix workloads: prefix hit rate, preemptions, and
  step latency per routing policy (round_robin / least_loaded /
  cache_aware), plus a replica-count scaling table.
* **elastic** -- two tenants sharing one LCM pool under square-wave
  alternating traffic, once per registered resize policy (static /
  proportional / hysteresis): admission blocks and waste-bytes p50 show
  whether elastic quota repartitioning beats the fixed equal split.

Run via ``python benchmarks/bench_allocator.py [--smoke]`` or
``python -m repro.cli bench-alloc``; both write ``BENCH_alloc.json``.
"""

from __future__ import annotations

import json
import random
import time
from typing import Dict, List, Optional

from ..core.layer_policy import FULL_ATTENTION, SLIDING_WINDOW, GroupSpec, make_policy
from ..core.math_utils import percentile
from ..core.sequence import TEXT
from ..core.two_level import TwoLevelAllocator
from ..engine.request import Request
from ..engine.scheduler import WaitingQueue, profile_config
from ..models import get_model
from ..platforms import L4, kv_budget

__all__ = [
    "run_benchmark",
    "churn_bench",
    "evictor_churn_bench",
    "queue_bench",
    "admission_bench",
    "prefix_bench",
    "engine_bench",
    "fanout_requests",
    "routing_bench",
    "elastic_requests",
    "elastic_bench",
]

_TEXT = frozenset({TEXT})

# Heterogeneous layer-type groups: 256/384/640-byte small pages share
# 3840-byte large pages (15 / 10 / 6 small pages per large).
_GROUP_SPECS = {
    "full": dict(kind=FULL_ATTENTION, per_token_bytes=64),
    "win": dict(kind=SLIDING_WINDOW, per_token_bytes=96, window=16),
    "big": dict(kind=FULL_ATTENTION, per_token_bytes=160),
}
_LARGE_PAGE_BYTES = 3840


def _make_allocator(num_large: int) -> TwoLevelAllocator:
    specs = {
        name: GroupSpec(
            name, kw["kind"], 1, kw["per_token_bytes"], tokens_per_page=4,
            window=kw.get("window"), accepted_tags=_TEXT,
        )
        for name, kw in _GROUP_SPECS.items()
    }
    policies = {g: make_policy(s) for g, s in specs.items()}
    return TwoLevelAllocator(
        _LARGE_PAGE_BYTES * num_large, specs, policies, enable_prefix_caching=True
    )


def _percentiles(latencies_s: List[float]) -> Dict[str, float]:
    """p50/p99 in microseconds from a list of per-op seconds."""
    return {
        "p50_us": percentile(latencies_s, 0.50) * 1e6,
        "p99_us": percentile(latencies_s, 0.99) * 1e6,
    }


def _assert_stats_equal(alloc: TwoLevelAllocator) -> None:
    fast, slow = alloc.stats(), alloc.stats_slow()
    assert fast.used_bytes_by_group == slow.used_bytes_by_group, (fast, slow)
    assert fast.evictable_bytes_by_group == slow.evictable_bytes_by_group, (fast, slow)
    assert fast.internal_frag_bytes == slow.internal_frag_bytes, (fast, slow)
    assert fast.partial_fill_bytes == slow.partial_fill_bytes, (fast, slow)
    assert fast.free_bytes == slow.free_bytes, (fast, slow)


def churn_bench(num_large: int, num_ops: int, seed: int = 0,
                checkpoint_every: int = 2000) -> Dict:
    """Randomized allocate/release/acquire churn over one allocator."""
    alloc = _make_allocator(num_large)
    rng = random.Random(seed)
    group_ids = list(alloc.groups)
    live = []  # (group_id, page) with one reference each
    hashes: List = []  # (group_id, block_hash) ever registered
    next_hash = 0
    lat: Dict[str, List[float]] = {"allocate": [], "release": [], "acquire": []}
    checkpoints = 0

    for i in range(num_ops):
        roll = rng.random()
        if not live or roll < 0.50:
            gid = group_ids[rng.randrange(len(group_ids))]
            rid = f"r{rng.randrange(32)}"
            t0 = time.perf_counter()
            page = alloc.allocate_page(gid, rid)
            lat["allocate"].append(time.perf_counter() - t0)
            if page is not None:
                page.last_access = float(i)
                page.num_tokens = 4
                # Filled-token accounting normally done by the KV manager.
                alloc.groups[gid].note_fill(page.num_tokens)
                live.append((gid, page))
        elif roll < 0.85 or not hashes:
            gid, page = live.pop(rng.randrange(len(live)))
            cacheable = rng.random() < 0.5
            if cacheable:
                next_hash += 1
                alloc.register_block_hash(gid, page, next_hash)
                hashes.append((gid, next_hash))
            t0 = time.perf_counter()
            alloc.release_page(gid, page.page_id, cacheable=cacheable)
            lat["release"].append(time.perf_counter() - t0)
        else:
            gid, block_hash = hashes[rng.randrange(len(hashes))]
            rid = f"r{rng.randrange(32)}"
            t0 = time.perf_counter()
            page = alloc.acquire_cached(gid, block_hash, rid)
            lat["acquire"].append(time.perf_counter() - t0)
            if page is not None:
                live.append((gid, page))
        if (i + 1) % checkpoint_every == 0:
            _assert_stats_equal(alloc)
            alloc.check_invariants()
            checkpoints += 1

    _assert_stats_equal(alloc)
    alloc.check_invariants()
    alloc.check_no_physical_overlap()
    checkpoints += 1

    all_lat = [dt for series in lat.values() for dt in series]
    result = {
        "num_large_pages": num_large,
        "small_per_large": {g: a.small_per_large for g, a in alloc.groups.items()},
        "ops": num_ops,
        "ops_per_sec": num_ops / max(sum(all_lat), 1e-12),
        "small_evictions": sum(g.num_evictions for g in alloc.groups.values()),
        "large_evictions": alloc.num_large_evictions,
        "invariant_checkpoints": checkpoints,
        **_percentiles(all_lat),
    }
    for op, series in lat.items():
        result[op] = {"count": len(series), **_percentiles(series)}
    return result


def evictor_churn_bench(live_items: int, num_ops: int, seed: int = 0) -> Dict:
    """Touch-only churn on one :class:`LRUEvictor` -- the lazy heap's worst case.

    Every touch re-``add``s a live item, stranding its previous heap
    entry.  Eviction traffic would drain those for free (stale entries
    carry *older* keys, so they sink to the heap top and ``evict``'s
    stale-pop clears them), which is why this bench evicts nothing: under
    pure touches only the compaction threshold bounds the heap.  The
    bound (``COMPACT_RATIO`` x live set, asserted below) is what keeps
    per-op cost flat as the live set grows.
    """
    from ..core.evictor import COMPACT_RATIO, LRUEvictor

    rng = random.Random(seed)
    evictor: LRUEvictor[int] = LRUEvictor()
    now = 0.0
    for item in range(live_items):
        evictor.add(item, now)
        now += 1.0
    lat: List[float] = []
    max_heap = 0
    for _ in range(num_ops):
        now += 1.0
        item = rng.randrange(live_items)
        t0 = time.perf_counter()
        evictor.add(item, now, prefix_length=float(item))
        lat.append(time.perf_counter() - t0)
        max_heap = max(max_heap, len(evictor._heap))
    assert len(evictor) == live_items
    assert max_heap <= COMPACT_RATIO * live_items + 1, (max_heap, live_items)
    # The eviction order must have survived compaction: the next victim
    # is a live item holding the oldest stamp.
    victim, last_access, _ = evictor.evict_with_key()
    assert 0 <= victim < live_items
    assert all(
        evictor.priority_of(i)[0] >= last_access
        for i in range(live_items)
        if i in evictor
    )

    return {
        "live_items": live_items,
        "ops": len(lat),
        "ops_per_sec": len(lat) / max(sum(lat), 1e-12),
        "num_compactions": evictor.num_compactions,
        "max_heap_entries": max_heap,
        "heap_bound": COMPACT_RATIO * live_items + 1,
        **_percentiles(lat),
    }


def queue_bench(depth: int, num_ops: int, seed: int = 0) -> Dict:
    """Steady-state WaitingQueue push+pop cost at a standing depth."""
    rng = random.Random(seed)
    queue = WaitingQueue()
    for i in range(depth):
        queue.push(Request.text(f"q{i}", [1, 2, 3], 4,
                                arrival_time=rng.random() * 100.0))
    lat: List[float] = []
    for _ in range(num_ops):
        t0 = time.perf_counter()
        request = queue.pop_ready(now=float("inf"))
        lat.append(time.perf_counter() - t0)
        assert request is not None
        request.arrival_time = rng.random() * 100.0
        t0 = time.perf_counter()
        queue.push(request)
        lat.append(time.perf_counter() - t0)
    assert len(queue) == depth
    return {
        "depth": depth,
        "ops": 2 * num_ops,
        "ops_per_sec": (2 * num_ops) / max(sum(lat), 1e-12),
        **_percentiles(lat),
    }


def admission_bench(depth: int, rounds: int, seed: int = 0,
                    num_large: int = 256) -> Dict:
    """Deep-waiting-queue admission sweep: cached vs uncached probes.

    Models the scheduler's worst case -- a deep FCFS queue whose head
    stays blocked, so every waiting request is re-probed each step.  Each
    round first perturbs the allocator (one allocate/release pair, which
    moves its ``version``), then probes all ``depth`` queued sequences
    through the cached ``can_admit`` and again through
    ``can_admit_uncached``, asserting every verdict matches.  Cached
    per-probe cost must be flat in ``depth`` (O(1) counter reads, demand
    memo hits after round one); the uncached per-round total is the
    linear rescan baseline.
    """
    from ..core.kv_manager import JengaKVCacheManager
    from ..core.sequence import SequenceSpec

    rng = random.Random(seed)
    specs = {
        name: GroupSpec(
            name, kw["kind"], 1, kw["per_token_bytes"], tokens_per_page=4,
            window=kw.get("window"), accepted_tags=_TEXT,
        )
        for name, kw in _GROUP_SPECS.items()
    }
    mgr = JengaKVCacheManager(
        specs, _LARGE_PAGE_BYTES * num_large, enable_prefix_caching=True
    )

    # Occupy the pool realistically: some requests held (USED pages), some
    # finished and cached (evictable pages feeding the reclaim terms).
    for i in range(24):
        tokens = [10_000 * i + t for t in range(128)]
        filler = SequenceSpec.text_only(f"fill{i}", tokens)
        mgr.begin_request(filler)
        if not mgr.allocate_up_to(filler, len(tokens)):
            mgr.release(filler, cacheable=False)
            continue
        mgr.commit(filler, len(tokens), now=float(i), phase="prefill")
        if i % 2 == 0:
            mgr.release(filler, cacheable=True)

    waiting = [
        SequenceSpec.text_only(
            f"wait{i}", [1_000_000 + 500 * i + t for t in range(256)]
        )
        for i in range(depth)
    ]
    watermark, chunk = 8, 8192

    cached_lat: List[float] = []
    uncached_lat: List[float] = []
    cached_round_s: List[float] = []
    uncached_round_s: List[float] = []
    for _ in range(rounds):
        # One pool mutation per round, net-zero on counts.
        gid = rng.choice(list(mgr.allocator.groups))
        page = mgr.allocator.allocate_page(gid, "mutator")
        if page is not None:
            mgr.allocator.release_page(gid, page.page_id, cacheable=False)

        cached_verdicts: List[bool] = []
        t_round = time.perf_counter()
        for seq in waiting:
            t0 = time.perf_counter()
            verdict = mgr.can_admit(seq, watermark, chunk)
            cached_lat.append(time.perf_counter() - t0)
            cached_verdicts.append(verdict)
        cached_round_s.append(time.perf_counter() - t_round)

        uncached_verdicts: List[bool] = []
        t_round = time.perf_counter()
        for seq in waiting:
            t0 = time.perf_counter()
            verdict = mgr.can_admit_uncached(seq, watermark, chunk)
            uncached_lat.append(time.perf_counter() - t0)
            uncached_verdicts.append(verdict)
        uncached_round_s.append(time.perf_counter() - t_round)

        assert cached_verdicts == uncached_verdicts

    _assert_stats_equal(mgr.allocator)
    mgr.allocator.check_invariants()
    cache = mgr._admission
    return {
        "depth": depth,
        "rounds": rounds,
        "probes": depth * rounds,
        "cached": {"count": len(cached_lat), **_percentiles(cached_lat)},
        "uncached": {"count": len(uncached_lat), **_percentiles(uncached_lat)},
        "cached_round": _percentiles(cached_round_s),
        "uncached_round": _percentiles(uncached_round_s),
        "demand_hits": cache.num_demand_hits,
        "demand_misses": cache.num_demand_misses,
    }


def prefix_bench(
    fanout: int,
    prefix_tokens: int = 1024,
    seed: int = 0,
    num_large: int = 256,
    repeats: int = 3,
    suffix_tokens: int = 32,
) -> Dict:
    """Prefix-heavy lookup sweep: long shared prefix, varying fan-out.

    One seeder request deposits a ``prefix_tokens``-long prefix into the
    cache (allocate, commit, release cacheable), then ``fanout`` requests
    sharing that prefix plus a unique suffix each run
    ``begin_request``/``release`` cycles.  Measures the *hit-path* lookup
    latency (hash-chain memo + bounded probing + page acquisition) and,
    for contrast, the *miss-path* latency of requests sharing nothing.
    The model-wide hit is asserted to equal the full shared prefix on
    every hit-path lookup, so the timings can never come from a lookup
    that silently stopped matching.
    """
    from ..core.kv_manager import JengaKVCacheManager
    from ..core.sequence import SequenceSpec

    rng = random.Random(seed)
    specs = {
        name: GroupSpec(
            name, kw["kind"], 1, kw["per_token_bytes"], tokens_per_page=4,
            window=kw.get("window"), accepted_tags=_TEXT,
        )
        for name, kw in _GROUP_SPECS.items()
    }
    mgr = JengaKVCacheManager(
        specs, _LARGE_PAGE_BYTES * num_large, enable_prefix_caching=True
    )

    prefix = [rng.randrange(1 << 30) for _ in range(prefix_tokens)]
    seeder = SequenceSpec.text_only("seeder", prefix + [1])
    mgr.begin_request(seeder)
    if not mgr.allocate_up_to(seeder, len(seeder)):
        raise RuntimeError("prefix_bench pool too small for the seed prefix")
    mgr.commit(seeder, len(seeder), now=0.0, phase="prefill")
    mgr.release(seeder, cacheable=True)

    hit_lat: List[float] = []
    miss_lat: List[float] = []
    for i in range(fanout):
        shared = SequenceSpec.text_only(
            f"fan{i}",
            prefix + [rng.randrange(1 << 30) for _ in range(suffix_tokens)],
        )
        for _ in range(repeats):
            t0 = time.perf_counter()
            hit = mgr.begin_request(shared)
            hit_lat.append(time.perf_counter() - t0)
            assert hit == prefix_tokens, (hit, prefix_tokens)
            mgr.release(shared, cacheable=True)
        stranger = SequenceSpec.text_only(
            f"miss{i}",
            [rng.randrange(1 << 30) for _ in range(prefix_tokens)],
        )
        for _ in range(repeats):
            t0 = time.perf_counter()
            hit = mgr.begin_request(stranger)
            miss_lat.append(time.perf_counter() - t0)
            assert hit == 0, hit
            mgr.release(stranger, cacheable=False)

    _assert_stats_equal(mgr.allocator)
    mgr.allocator.check_invariants()
    return {
        "fanout": fanout,
        "prefix_tokens": prefix_tokens,
        "hit": {"count": len(hit_lat), **_percentiles(hit_lat)},
        "miss": {"count": len(miss_lat), **_percentiles(miss_lat)},
        "hit_rates": mgr.cache_hit_rates(),
    }


def engine_bench(
    num_requests: int, seed: int = 0, max_steps: int = 50_000, traced: bool = True
) -> Dict:
    """Full synthetic serving run under memory pressure.

    With ``traced`` (the default) the engine carries an enabled
    :class:`~repro.obs.tracer.Tracer` and the result gains a ``phases``
    table: per-step exclusive wall time of the ``schedule`` / ``allocate``
    / ``commit`` / ``release`` phases (count, total, p50, p99), the
    breakdown that tells *which* part of a step regressed when
    ``step_p50_ms`` moves.
    """
    # Imported lazily: the engine pulls in the whole stack and the churn
    # benchmarks should stay importable in isolation.
    from ..core.registry import create_manager
    from ..engine.engine import LLMEngine
    from ..obs.tracer import Tracer
    from ..workloads import sharegpt

    model = get_model("gemma2-9b")
    # A quarter of the real L4 budget forces eviction and preemption
    # traffic, which is where allocator cost shows up.
    kv_bytes = kv_budget(model, L4).kv_bytes // 4
    manager = create_manager("jenga", "model", model, kv_bytes,
                             enable_prefix_caching=True)
    tracer = Tracer() if traced else None
    engine = LLMEngine(
        model, L4, manager, config=profile_config("vllm"), tracer=tracer
    )
    engine.add_requests(sharegpt(num_requests, seed=seed))

    step_lat: List[float] = []
    phase_lat: Dict[str, List[float]] = {}
    while len(step_lat) < max_steps:
        t0 = time.perf_counter()
        record = engine.step()
        if record is None:
            break
        step_lat.append(time.perf_counter() - t0)
        if record.phases:
            for name, seconds in record.phases.items():
                phase_lat.setdefault(name, []).append(seconds)

    _assert_stats_equal(manager.allocator)
    manager.allocator.check_invariants()
    metrics = engine.metrics()
    total_tokens = sum(r.prompt_len + r.output_len for r in metrics.requests)
    wall = max(sum(step_lat), 1e-12)
    pcts = _percentiles(step_lat)
    result = {
        "model": model.name,
        "requests": num_requests,
        "finished": len(metrics.requests),
        "steps": len(step_lat),
        "steps_per_sec": len(step_lat) / wall,
        "sim_tokens_per_wall_sec": total_tokens / wall,
        "preemptions": metrics.preemptions,
        "step_p50_ms": pcts["p50_us"] / 1e3,
        "step_p99_ms": pcts["p99_us"] / 1e3,
    }
    if traced:
        result["phases"] = {
            name: {
                "count": len(series),
                "total_ms": sum(series) * 1e3,
                **_percentiles(series),
            }
            for name, series in sorted(phase_lat.items())
        }
    return result


def fanout_requests(
    fanout: int,
    num_families: int = 6,
    prefix_tokens: int = 512,
    suffix_tokens: int = 32,
    output_tokens: int = 16,
    rate: float = 8.0,
    seed: int = 0,
) -> List[Request]:
    """Forked-prefix routing workload: ``num_families`` shared prefixes
    fork into ``fanout`` requests each, interleaved family-by-family with
    Poisson arrivals.

    The canonical cluster workload: used by :func:`routing_bench` and by
    ``repro.cli cluster-report``, so the CI gate and the report command
    measure the same deterministic request stream.
    """
    from ..workloads import poisson_arrivals, token_block

    requests = []
    for j in range(fanout):
        for family in range(num_families):
            prefix = token_block(seed, f"family{family}", 0, prefix_tokens)
            suffix = token_block(
                seed + 1, f"fam{family}-sfx{j}", j, suffix_tokens
            )
            requests.append(
                Request.text(f"j{j:03d}-f{family}", prefix + suffix,
                             output_tokens)
            )
    poisson_arrivals(requests, rate=rate, seed=seed)
    return requests


def routing_bench(
    fanout: int,
    num_replicas: int = 4,
    num_families: int = 6,
    policies: tuple = ("round_robin", "least_loaded", "cache_aware"),
    prefix_tokens: int = 512,
    suffix_tokens: int = 32,
    output_tokens: int = 16,
    rate: float = 8.0,
    seed: int = 0,
) -> Dict:
    """Multi-replica routing sweep: policy vs. prefix locality.

    ``num_families`` shared prefixes fork into ``fanout`` requests each,
    interleaved family-by-family and given Poisson arrivals, then served
    by an N-replica :class:`~repro.serving.cluster.ServingCluster` once
    per policy.  ``num_families`` should not divide ``num_replicas``
    evenly, otherwise round_robin pins families to replicas by accident
    and the cache_aware comparison degenerates.

    Reported per policy: cluster prefix hit rate, preemptions, simulated
    tokens/s-per-replica (deterministic), wall-clock engine-step p50/p99
    (the CI-gated metric), router decision p50, plus the simulated-clock
    SLO percentiles (TTFT/TBT/e2e) and per-replica pressure totals --
    both deterministic, so the CI gate holds them at ratio 1.0 without
    machine-speed calibration.
    """
    from ..engine.scheduler import profile_config as _profile
    from ..obs.cluster import ClusterReport
    from ..serving import ServingCluster

    model = get_model("gemma2-9b")
    kv_bytes = kv_budget(model, L4).kv_bytes // 4

    rows: Dict[str, Dict] = {}
    for policy in policies:
        cluster = ServingCluster.build(
            model, L4, kv_bytes, num_replicas,
            policy=policy, config=_profile("vllm"), seed=seed,
            pressure=True,
        )
        cluster.submit(fanout_requests(
            fanout, num_families=num_families,
            prefix_tokens=prefix_tokens, suffix_tokens=suffix_tokens,
            output_tokens=output_tokens, rate=rate, seed=seed,
        ))
        step_lat: List[float] = []
        while True:
            t0 = time.perf_counter()
            tag = cluster.step()
            if tag is None:
                break
            if tag == "step":
                step_lat.append(time.perf_counter() - t0)
        summary = cluster.summary()
        report = ClusterReport.from_cluster(cluster)
        for replica in cluster.replicas:
            _assert_stats_equal(replica.manager.allocator)
            replica.manager.allocator.check_invariants()
        cluster.close()
        assert summary.finished == fanout * num_families, summary
        route_pcts = _percentiles(cluster.router.route_seconds)
        step_pcts = _percentiles(step_lat)
        rows[policy] = {
            "finished": summary.finished,
            "hit_rate": summary.prefix_hit_rate,
            "preemptions": summary.preemptions,
            "steps": len(step_lat),
            "step_p50_us": step_pcts["p50_us"],
            "step_p99_us": step_pcts["p99_us"],
            "route_p50_us": route_pcts["p50_us"],
            "tokens_per_sec_per_replica": summary.tokens_per_sec_per_replica,
            "expected_hit_tokens": summary.expected_hit_tokens,
            "routed_counts": list(summary.routed_counts),
            # Simulated-clock SLO + pressure: deterministic for a given
            # seed, so bench-compare gates them uncalibrated at ~1.0x.
            "slo": report.slo,
            "pressure": {
                "admission_blocked": report.counters.get("pressure/admission_blocked", 0),
                "evictions": report.counters.get("evict/small", 0)
                + report.counters.get("evict/large", 0),
                "preemptions": summary.preemptions,
            },
        }
    return {
        "fanout": fanout,
        "num_replicas": num_replicas,
        "num_families": num_families,
        "requests": fanout * num_families,
        "policies": rows,
    }


def elastic_requests(
    phases: int,
    requests_per_phase: int,
    prefix_tokens: int = 384,
    suffix_tokens: int = 32,
    output_tokens: int = 160,
    rate: float = 128.0,
    idle_gap: float = 24.0,
    seed: int = 0,
) -> Dict[str, List[Request]]:
    """Square-wave mixed-tenant traffic for the elastic sweep.

    Tenants ``a`` and ``b`` alternate whole phases: all of phase ``p``'s
    requests go to one tenant, share one fresh ``prefix_tokens``-token
    prefix (so the burst exercises prefix caching and leaves evictable
    cache behind when it drains), and arrive as a Poisson burst starting
    ``idle_gap`` simulated seconds after the previous phase's last
    arrival.  The result is the workload quotas exist for: whichever
    tenant is bursting needs most of the pool, while the idle tenant's
    footprint is pure reclaimable history.
    """
    from ..workloads import poisson_arrivals, token_block

    per_tenant: Dict[str, List[Request]] = {"a": [], "b": []}
    start = 0.0
    for phase in range(phases):
        tenant = "a" if phase % 2 == 0 else "b"
        prefix = token_block(seed, f"{tenant}-phase{phase}", 0, prefix_tokens)
        burst = [
            Request.text(
                f"{tenant}-p{phase:02d}-r{i:03d}",
                prefix + token_block(
                    seed + 1, f"{tenant}-p{phase}-sfx", i, suffix_tokens
                ),
                output_tokens,
            )
            for i in range(requests_per_phase)
        ]
        poisson_arrivals(burst, rate=rate, seed=seed + phase, start=start)
        per_tenant[tenant].extend(burst)
        start = burst[-1].arrival_time + idle_gap
    return per_tenant


def elastic_bench(
    phases: int,
    requests_per_phase: int = 24,
    policies: tuple = ("static", "proportional", "hysteresis"),
    resize_interval: int = 16,
    pool_divisor: int = 1,
    seed: int = 0,
) -> Dict:
    """Mixed-tenant elastic-repartitioning sweep: resize policy vs. waste.

    Two deployments of the same model share one LCM pool
    (:class:`~repro.engine.multi_model.MultiModelEngine` shared mode, all
    groups namespaced per tenant) under :func:`elastic_requests`'s
    alternating square-wave traffic.  One run per
    :data:`~repro.core.resizer.RESIZE_POLICIES` entry: every run starts
    from the same equal-split quota partition (laid down by
    :class:`~repro.core.resizer.PoolResizer` at construction), and the
    policy decides whether quotas then follow the traffic.  ``static``
    is the fixed-partition baseline; ``proportional`` chases demand every
    interval; ``hysteresis`` adds the dead-band/dwell gates.

    Reported per policy: admission blocks, evictions, preemptions, and
    the per-step waste-bytes p50 -- all on the simulated clock, hence
    deterministic and CI-gated uncalibrated (the ``resizer/`` metric
    prefix) -- plus wall-clock steps/s and step p50 for the calibrated
    gate.  The ROADMAP acceptance bar is that ``hysteresis`` beats
    ``static`` on *both* admission blocks and waste p50 at equal pool
    size.
    """
    from ..core.resizer import PoolResizer
    from ..engine.multi_model import MultiModelEngine
    from ..obs.pressure import PressureMonitor
    from ..obs.registry import BusTelemetry

    model = get_model("gemma2-9b")
    total_bytes = kv_budget(model, L4).kv_bytes // pool_divisor

    rows: Dict[str, Dict] = {}
    for policy in policies:
        fold = BusTelemetry()
        fold.pressure = PressureMonitor(fold)
        engine = MultiModelEngine(
            {"a": model, "b": model}, L4, total_bytes,
            shared=True, observer=fold,
            # record_memory feeds the occupancy component of the
            # pressure score -- the signal the hysteresis gate opens on.
            config=profile_config("vllm", record_memory=True),
        )
        allocator = engine.engines["a"].manager.allocator
        resizer = fold.resizer = PoolResizer(
            allocator, fold.pressure, policy=policy, interval=resize_interval
        )
        for tenant, batch in elastic_requests(
            phases, requests_per_phase, seed=seed
        ).items():
            engine.add_requests(tenant, batch)

        large_bytes = allocator.lcm.large_page_bytes
        tenant_groups = {
            name: [g for g in allocator.groups if g.startswith(f"{name}/")]
            for name in engine.engines
        }
        waste_samples: List[float] = []
        step_lat: List[float] = []
        while True:
            t0 = time.perf_counter()
            if engine.step() is None:
                break
            step_lat.append(time.perf_counter() - t0)
            # Waste sample = the allocator's intrinsic waste (internal
            # fragmentation + partial fill + slack) plus *quota-stranded*
            # memory: free or fully-evictable large pages that no tenant
            # with live demand has the quota headroom to carve.  The
            # stranded term is the Section-3-style reservation waste a
            # fixed partition creates and elastic repartitioning removes;
            # with nobody demanding, nothing is stranded.
            stats = allocator.stats()
            reclaimable = allocator.lcm.num_free + len(allocator.large_evictor)
            headroom = 0
            demanding = False
            for name, eng in engine.engines.items():
                arrival = eng.waiting.next_arrival()
                if not eng.running and (
                    arrival is None or arrival > engine.clock
                ):
                    continue
                demanding = True
                for gid in tenant_groups[name]:
                    quota = allocator.quota_of(gid)
                    if quota is None:
                        headroom = reclaimable
                        break
                    headroom += max(
                        0, quota - allocator.large_pages_owned(gid)
                    )
            stranded = max(0, reclaimable - headroom) if demanding else 0
            waste_samples.append(
                float(stats.waste_bytes + stranded * large_bytes)
            )

        _assert_stats_equal(allocator)
        allocator.check_invariants()
        counters = fold.registry.counters
        finished = sum(len(e.finished) for e in engine.engines.values())
        failed = sum(len(e.failed) for e in engine.engines.values())
        wall = max(sum(step_lat), 1e-12)
        rows[policy] = {
            "finished": finished,
            "failed": failed,
            # Simulated-clock / event-count metrics: deterministic per
            # seed, gated uncalibrated under the resizer/ prefix.
            "admission_blocked": counters.get("pressure/admission_blocked", 0),
            "evictions": counters.get("evict/small", 0) + counters.get("evict/large", 0),
            "preemptions": counters.get("preempt/victim", 0) + counters.get("preempt/self", 0),
            "quota_moves": resizer.num_resizes,
            "reclaimed_large": resizer.num_reclaimed,
            "waste_bytes_p50": percentile(waste_samples, 0.50),
            # Wall-clock: gated under the calibrated elastic/ prefix.
            "steps": len(step_lat),
            "steps_per_sec": len(step_lat) / wall,
            "step_p50_us": _percentiles(step_lat)["p50_us"],
        }
    return {
        "phases": phases,
        "requests_per_phase": requests_per_phase,
        "requests": phases * requests_per_phase,
        "resize_interval": resize_interval,
        "policies": rows,
    }


_FULL_SCALE = {
    "churn_sizes": [64, 256, 1024],
    "churn_ops": 60_000,
    "evictor_sizes": [1_000, 10_000],
    "evictor_ops": 50_000,
    "queue_depths": [100, 1_000, 10_000],
    "queue_ops": 20_000,
    "admission_depths": [64, 640],
    "admission_rounds": 8,
    "prefix_fanouts": [4, 16, 64],
    "prefix_tokens": 1024,
    "prefix_repeats": 3,
    "engine_requests": 80,
    "routing_fanouts": [4, 16],
    "routing_replicas": 4,
    "routing_families": 6,
    "routing_scaling_replicas": [2, 4],
    "elastic_phases": [4, 8],
    "elastic_requests_per_phase": 24,
    "elastic_resize_interval": 16,
}
# Smoke sweep points deliberately overlap the full-scale ones (queue depth
# 100, admission depth 64, churn size 64, prefix fanout 4 at the same
# prefix length): ``bench-compare`` matches metrics by key, so a smoke run
# in CI can gate against the committed full-scale baseline on the shared
# points.
_SMOKE_SCALE = {
    "churn_sizes": [16, 64],
    "churn_ops": 6_000,
    "evictor_sizes": [200, 1_000],
    "evictor_ops": 5_000,
    "queue_depths": [100, 500],
    "queue_ops": 2_000,
    "admission_depths": [64, 160],
    "admission_rounds": 3,
    "prefix_fanouts": [4],
    "prefix_tokens": 1024,
    "prefix_repeats": 3,
    "engine_requests": 8,
    # Overlaps the full-scale routing sweep at fanout 4 (same replica and
    # family counts), so the CI gate compares like against like.
    "routing_fanouts": [4],
    "routing_replicas": 4,
    "routing_families": 6,
    "routing_scaling_replicas": [2],
    # Overlaps the full-scale elastic sweep at phases=4 with identical
    # per-phase load, so the deterministic resizer/* metrics gate at ~1.0x.
    "elastic_phases": [4],
    "elastic_requests_per_phase": 24,
    "elastic_resize_interval": 16,
}


def run_benchmark(
    output: Optional[str] = "BENCH_alloc.json",
    smoke: bool = False,
    seed: int = 0,
    scale: Optional[Dict] = None,
    verbose: bool = True,
) -> Dict:
    """Run every workload; write and return the ``BENCH_alloc.json`` payload.

    ``scale`` overrides individual knobs of the selected preset (see
    ``_FULL_SCALE``) -- tests use it to run in milliseconds.
    """
    knobs = dict(_SMOKE_SCALE if smoke else _FULL_SCALE)
    if scale:
        knobs.update(scale)

    def say(msg: str) -> None:
        if verbose:
            print(msg, flush=True)

    churn_sweep = []
    for num_large in knobs["churn_sizes"]:
        say(f"[churn] {num_large} large pages, {knobs['churn_ops']} ops ...")
        churn_sweep.append(churn_bench(num_large, knobs["churn_ops"], seed=seed))
        say(f"    {churn_sweep[-1]['ops_per_sec']:,.0f} ops/s  "
            f"p50 {churn_sweep[-1]['p50_us']:.2f}us  "
            f"p99 {churn_sweep[-1]['p99_us']:.2f}us")
    churn_scaling = churn_sweep[-1]["p50_us"] / max(churn_sweep[0]["p50_us"], 1e-9)

    evictor_sweep = []
    for live in knobs["evictor_sizes"]:
        say(f"[evictor] {live} live items, {knobs['evictor_ops']} ops ...")
        evictor_sweep.append(
            evictor_churn_bench(live, knobs["evictor_ops"], seed=seed)
        )
        say(f"    {evictor_sweep[-1]['ops_per_sec']:,.0f} ops/s  "
            f"p50 {evictor_sweep[-1]['p50_us']:.2f}us  "
            f"compactions {evictor_sweep[-1]['num_compactions']}")
    evictor_scaling = (
        evictor_sweep[-1]["p50_us"] / max(evictor_sweep[0]["p50_us"], 1e-9)
    )

    queue_sweep = []
    for depth in knobs["queue_depths"]:
        say(f"[queue] depth {depth}, {knobs['queue_ops']} push+pop pairs ...")
        queue_sweep.append(queue_bench(depth, knobs["queue_ops"], seed=seed))
        say(f"    {queue_sweep[-1]['ops_per_sec']:,.0f} ops/s  "
            f"p50 {queue_sweep[-1]['p50_us']:.2f}us")
    queue_scaling = queue_sweep[-1]["p50_us"] / max(queue_sweep[0]["p50_us"], 1e-9)

    admission_sweep = []
    for depth in knobs["admission_depths"]:
        say(f"[admission] depth {depth}, {knobs['admission_rounds']} rounds ...")
        admission_sweep.append(
            admission_bench(depth, knobs["admission_rounds"], seed=seed)
        )
        row = admission_sweep[-1]
        say(f"    cached p50 {row['cached']['p50_us']:.2f}us  "
            f"uncached p50 {row['uncached']['p50_us']:.2f}us  "
            f"uncached round p50 {row['uncached_round']['p50_us']:.0f}us")
    admission_cached_scaling = (
        admission_sweep[-1]["cached"]["p50_us"]
        / max(admission_sweep[0]["cached"]["p50_us"], 1e-9)
    )
    admission_uncached_step_scaling = (
        admission_sweep[-1]["uncached_round"]["p50_us"]
        / max(admission_sweep[0]["uncached_round"]["p50_us"], 1e-9)
    )

    prefix_sweep = []
    for fanout in knobs["prefix_fanouts"]:
        say(f"[prefix] fanout {fanout}, "
            f"{knobs['prefix_tokens']}-token shared prefix ...")
        prefix_sweep.append(
            prefix_bench(
                fanout,
                prefix_tokens=knobs["prefix_tokens"],
                repeats=knobs["prefix_repeats"],
                seed=seed,
            )
        )
        row = prefix_sweep[-1]
        say(f"    hit p50 {row['hit']['p50_us']:.2f}us  "
            f"miss p50 {row['miss']['p50_us']:.2f}us")
    prefix_scaling = (
        prefix_sweep[-1]["hit"]["p50_us"]
        / max(prefix_sweep[0]["hit"]["p50_us"], 1e-9)
    )

    routing_sweep = []
    for fanout in knobs["routing_fanouts"]:
        say(f"[routing] fanout {fanout}, {knobs['routing_replicas']} replicas, "
            f"{knobs['routing_families']} prefix families ...")
        routing_sweep.append(
            routing_bench(
                fanout,
                num_replicas=knobs["routing_replicas"],
                num_families=knobs["routing_families"],
                seed=seed,
            )
        )
        for policy, row in routing_sweep[-1]["policies"].items():
            say(f"    {policy:<12} hit {row['hit_rate']:.3f}  "
                f"preempt {row['preemptions']:3d}  "
                f"step p50 {row['step_p50_us']:.1f}us  "
                f"route p50 {row['route_p50_us']:.2f}us  "
                f"{row['tokens_per_sec_per_replica']:,.0f} tok/s/replica")

    routing_scaling = []
    for count in knobs["routing_scaling_replicas"]:
        say(f"[routing-scale] cache_aware, {count} replicas ...")
        cell = routing_bench(
            knobs["routing_fanouts"][0],
            num_replicas=count,
            num_families=knobs["routing_families"],
            policies=("cache_aware",),
            seed=seed,
        )
        row = cell["policies"]["cache_aware"]
        routing_scaling.append({
            "num_replicas": count,
            "hit_rate": row["hit_rate"],
            "tokens_per_sec_per_replica": row["tokens_per_sec_per_replica"],
            "step_p50_us": row["step_p50_us"],
        })
        say(f"    hit {row['hit_rate']:.3f}  "
            f"{row['tokens_per_sec_per_replica']:,.0f} tok/s/replica")

    elastic_sweep = []
    for elastic_phases in knobs["elastic_phases"]:
        say(f"[elastic] {elastic_phases} phases x "
            f"{knobs['elastic_requests_per_phase']} requests, "
            f"2 tenants, one pool ...")
        elastic_sweep.append(
            elastic_bench(
                elastic_phases,
                requests_per_phase=knobs["elastic_requests_per_phase"],
                resize_interval=knobs["elastic_resize_interval"],
                seed=seed,
            )
        )
        for policy, row in elastic_sweep[-1]["policies"].items():
            say(f"    {policy:<12} blocked {row['admission_blocked']:4d}  "
                f"waste p50 {row['waste_bytes_p50'] / 1e6:7.1f}MB  "
                f"moves {row['quota_moves']:3d}  "
                f"{row['steps_per_sec']:,.0f} steps/s")

    say(f"[engine] synthetic run, {knobs['engine_requests']} requests ...")
    engine = engine_bench(knobs["engine_requests"], seed=seed)
    say(f"    {engine['steps']} steps at {engine['steps_per_sec']:,.0f} steps/s  "
        f"step p50 {engine['step_p50_ms']:.3f}ms  p99 {engine['step_p99_ms']:.3f}ms")
    for name, row in engine.get("phases", {}).items():
        say(f"    phase {name:<14} p50 {row['p50_us']:8.2f}us  "
            f"p99 {row['p99_us']:8.2f}us  total {row['total_ms']:.1f}ms")

    payload = {
        "benchmark": "alloc",
        "version": 1,
        "smoke": smoke,
        "seed": seed,
        "churn": {
            "sweep": churn_sweep,
            # p50 per-op cost at the largest pool over the smallest:
            # ~1.0 means allocate/release cost does not grow with the
            # number of free pages (the O(1) free-pool claim).
            "scaling_ratio_p50": churn_scaling,
        },
        "evictor": {
            "sweep": evictor_sweep,
            # Touch-heavy churn: p50 at the largest live set over the
            # smallest.  ~1.0 means lazy-heap compaction keeps per-op
            # cost independent of the live-set size.
            "scaling_ratio_p50": evictor_scaling,
        },
        "queue": {
            "sweep": queue_sweep,
            "scaling_ratio_p50": queue_scaling,
        },
        "admission": {
            "sweep": admission_sweep,
            # Cached per-probe p50 at the deepest queue over the
            # shallowest: ~1.0 means the live counters + demand memo make
            # a single blocked-probe O(groups), independent of queue depth.
            "cached_probe_scaling_p50": admission_cached_scaling,
            # The uncached per-round total is the linear rescan baseline
            # the cache replaces; it should track the depth ratio.
            "uncached_step_scaling_p50": admission_uncached_step_scaling,
        },
        "prefix": {
            "sweep": prefix_sweep,
            # Hit-path lookup p50 at the widest fan-out over the
            # narrowest: ~1.0 means the memoized hash chain plus bounded
            # probing keep the shared-prefix hit cost independent of how
            # many requests reuse the prefix.
            "hit_lookup_scaling_p50": prefix_scaling,
        },
        "routing": {
            "sweep": routing_sweep,
            # cache_aware hit rate and normalized throughput as the
            # replica count grows (per-replica pools shrink the workload's
            # locality footprint per GPU; pinned families keep hits flat).
            "replica_scaling": routing_scaling,
        },
        "elastic": {
            # Mixed-tenant square-wave sweep: per resize policy, the
            # deterministic admission-block count and waste-bytes p50
            # (the elastic-vs-fixed-partition comparison), plus the
            # wall-clock step cost of carrying the control loop.
            "sweep": elastic_sweep,
        },
        "engine": engine,
        "invariant_checkpoints": sum(
            c["invariant_checkpoints"] for c in churn_sweep
        ) + 1,  # +1: the engine run's final cross-check
    }
    if output:
        with open(output, "w") as f:
            json.dump(payload, f, indent=2)
            f.write("\n")
        say(f"[saved {output}]")
    return payload
