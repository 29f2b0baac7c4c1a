"""The repo benchmark: end-to-end ledger plus outside-in per-layer trace.

One workload, the way the pipeline calls it (run from the repo root)::

    python3 benchmarks/e2e/run.py --workload text_pressure --seed 0 \\
        --seconds 12 --trace 0

prints every metric by name with its unit and, as the last line of
standard output, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0`` (untraced runs only), its per-layer metrics with
``--trace 1`` (one extra run behind timing proxies).

The whole ledger, every workload in its own child process one after the
other, both ways::

    python3 benchmarks/e2e/run.py --seed 0 --out ledger.json

``compare.py`` reads two such ledgers.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
if not os.path.isdir(os.path.join(SRC, "repro")):
    sys.exit(f"{__file__}: the program under test (src/repro) is not in this checkout")
sys.path.insert(0, HERE)
sys.path.insert(1, SRC)

from harness import RunResult, build_system, run_once  # noqa: E402
from trace import Recorder, percentile  # noqa: E402
from workloads import WORKLOADS, Inputs, Workload, make_inputs  # noqa: E402

#: Inputs of the untimed warm-up run, as a share of the full request count.
WARMUP_SCALE = 0.05
#: Untraced reference runs of a ``--trace 1`` invocation get this share of
#: ``--seconds``; the traced run, the observer arm and the baseline follow.
TRACE_REFERENCE_SHARE = 0.5
SETUP_SAMPLES = 5


def load_spec() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------


def run_rates(workload: Workload, inputs: Inputs, **kwargs: Any) -> List[RunResult]:
    """One run per arrival schedule (one run in all for an offline batch)."""
    return [
        run_once(workload, inputs, rate_index, **kwargs)
        for rate_index in range(len(inputs.arrivals))
    ]


def timed_repeats(
    workload: Workload, inputs: Inputs, seconds: float, at_least: int = 1
) -> List[List[RunResult]]:
    """Untraced repeats until about ``seconds`` of measuring are spent:
    another one starts while at least half of it still fits."""
    repeats: List[List[RunResult]] = []
    spent = 0.0
    while len(repeats) < at_least or spent + 0.5 * spent / len(repeats) <= seconds:
        gc.collect()
        begin = time.perf_counter()
        repeats.append(run_rates(workload, inputs))
        spent += time.perf_counter() - begin
    return repeats


def setup_seconds(workload: Workload, seed: int, scale: float) -> Tuple[Inputs, float]:
    """Median host time to make the inputs from the seed and build the
    system from them (model spec, manager or cluster, request list,
    submission)."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        gc.collect()
        begin = time.perf_counter()
        inputs = make_inputs(workload, seed, scale)
        built = build_system(workload)
        built.submit(inputs.requests(0))
        samples.append(time.perf_counter() - begin)
        built.close()
    return inputs, statistics.median(samples)


def sim_differences(a: Sequence[RunResult], b: Sequence[RunResult]) -> int:
    """Simulated values and counts that differ between two sets of runs."""
    return sum(
        1
        for x, y in zip(a, b)
        for key in x.sim.keys() | y.sim.keys()
        if x.sim.get(key) != y.sim.get(key)
    )


def digest(value: Any) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()[:16]


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


def rate_indices(workload: Workload) -> Tuple[int, int, int]:
    """Positions of r1, r2, r3 (all 0 for an offline batch)."""
    return (0, 1, 2) if workload.rates else (0, 0, 0)


def slo_max_rate(workload: Workload, runs: Sequence[RunResult]) -> float:
    """Highest fixed rate that meets the limit, 0 if none.  An offline
    batch has no schedule: it reports the request rate it drained at."""
    if not workload.rates:
        return runs[0].sim["requests_per_s"]
    met = [rate for rate, run in zip(workload.rates, runs) if run.sim["meets_limit"]]
    return max(met, default=0.0)


def end_to_end(
    workload: Workload,
    repeats: Sequence[Sequence[RunResult]],
    setup_s: float,
    baseline: RunResult,
) -> Dict[str, float]:
    _, r2, r3 = rate_indices(workload)
    walls = [sum(run.wall_s for run in runs) for runs in repeats]
    steps = [[s for run in runs for s in run.step_s] for runs in repeats]
    first = repeats[0]
    return {
        "setup_s": setup_s,
        "host_wall_s": statistics.median(walls),
        "host_steps_per_s": statistics.median(
            len(s) / wall for s, wall in zip(steps, walls)
        ),
        "host_step_p50_us": statistics.median(percentile(s, 0.50) for s in steps) * 1e6,
        "host_step_p99_us": statistics.median(percentile(s, 0.99) for s in steps) * 1e6,
        "host_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_tokens_per_s": first[r3].sim["tokens_per_s"],
        "sim_ttft_p50_s": first[r2].sim["ttft_p50_s"],
        "sim_ttft_p95_s": first[r2].sim["ttft_p95_s"],
        "sim_tpot_p50_s": first[r2].sim["tpot_p50_s"],
        "sim_slo_max_rate": slo_max_rate(workload, first),
        "sim_speedup_vs_paged": (
            first[r3].sim["tokens_per_s"] / baseline.sim["tokens_per_s"]
        ),
    }


def _ms(seconds: float) -> float:
    return seconds * 1e3


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(
    workload: Workload,
    reference: Sequence[Sequence[RunResult]],
    traced: Sequence[RunResult],
    recorder: Recorder,
    observed: Sequence[RunResult],
    baseline: RunResult,
) -> Dict[str, float]:
    """Every per-layer metric; 0 where the workload has no such layer or
    rate (the contract wants every name on every workload)."""
    r1, r2, r3 = rate_indices(workload)
    spans = recorder.aggregate()
    traced_wall = sum(run.wall_s for run in traced)
    reference_walls = [sum(run.wall_s for run in runs) for runs in reference]
    sims = [run.sim for run in traced]
    total = {key: sum(sim.get(key, 0) for sim in sims) for key in (
        "submitted", "finished", "preemptions", "hit_tokens", "lookup_tokens",
        "evictions_small", "evictions_large", "expected_hit_tokens", "dispatches",
    )}

    def span(name: str) -> Dict[str, Any]:
        return spans.get(name) or {
            "calls": 0, "self_s": 0.0, "durations": [], "summaries": []
        }

    out: Dict[str, float] = {}

    def layer(prefix: str, methods: Sequence[str], with_percentiles: Sequence[str]) -> None:
        for method in methods:
            entry = span(f"{prefix}.{method}")
            out[f"{prefix}.{method}.calls"] = entry["calls"]
            out[f"{prefix}.{method}.self_ms"] = _ms(entry["self_s"])
            if method in with_percentiles:
                out[f"{prefix}.{method}.p50_us"] = percentile(entry["durations"], 0.50) * 1e6
                out[f"{prefix}.{method}.p99_us"] = percentile(entry["durations"], 0.99) * 1e6

    def fail_share(name: str, failed: Any) -> float:
        summaries = span(name)["summaries"]
        return _share(sum(1 for s in summaries if s is failed), len(summaries))

    # engine
    step = span("engine.step")
    out["engine.step.calls"] = step["calls"]
    out["engine.step.self_ms"] = _ms(step["self_s"])
    out["engine.step.self_share"] = _share(step["self_s"], traced_wall)
    weights = [sim["steps"] for sim in sims]
    for key in ("decode_batch_mean", "prefill_tokens_per_step_mean"):
        out[f"engine.{key}"] = _share(
            sum(sim[key] * w for sim, w in zip(sims, weights)), sum(weights)
        )
    out["engine.preemptions"] = total["preemptions"]
    out["engine.preemptions_per_request"] = _share(total["preemptions"], total["submitted"])
    out["engine.admission_blocked"] = sum(run.admission_blocked for run in traced)
    out["engine.queue_wait_p50_s"] = sims[r2]["queue_wait_p50_s"]
    out["engine.queue_wait_p95_s"] = sims[r2]["queue_wait_p95_s"]
    for label, index in (("r1", r1), ("r3", r3)):
        for key in ("ttft_p50_s", "ttft_p95_s"):
            out[f"engine.{key}.{label}"] = sims[index][key] if workload.rates else 0.0
    for label, index in (("r1", r1), ("r2", r2), ("r3", r3)):
        out[f"engine.slo_share.{label}"] = sims[index].get("slo_share", 0.0)

    # core.kv_manager
    layer(
        "core.kv_manager",
        ("begin_request", "can_admit", "needs_allocation", "allocate_up_to",
         "allocate_vision", "consume_vision", "commit", "release"),
        ("begin_request", "can_admit", "allocate_up_to", "release"),
    )
    begin = span("core.kv_manager.begin_request")
    for label, hit in (("hit", True), ("miss", False)):
        out[f"core.kv_manager.begin_request.{label}_p50_us"] = percentile(
            [d for d, s in zip(begin["durations"], begin["summaries"]) if (s > 0) is hit],
            0.50,
        ) * 1e6
    out["core.kv_manager.allocate_up_to.fail_share"] = fail_share(
        "core.kv_manager.allocate_up_to", False
    )
    out["core.kv_manager.prefix_hit_rate"] = _share(total["hit_tokens"], total["lookup_tokens"])
    for key in ("waste", "used", "evictable"):
        out[f"core.kv_manager.{key}_share_mean"] = statistics.mean(
            run.memory[key] for run in traced
        )

    # core.two_level
    layer(
        "core.two_level",
        ("allocate_pages", "allocate_page", "release_page", "acquire_cached",
         "register_block_hash", "touch_evictable", "stats"),
        ("allocate_pages", "release_page", "acquire_cached"),
    )
    out["core.two_level.allocate_pages.fail_share"] = fail_share(
        "core.two_level.allocate_pages", None
    )
    taken = [s for s in span("core.two_level.allocate_pages")["summaries"] if s is not None]
    out["core.two_level.pages_per_allocate_call"] = _share(sum(taken), len(taken))
    out["core.two_level.evictions_small"] = total["evictions_small"]
    out["core.two_level.evictions_large"] = total["evictions_large"]

    # serving.router / serving.cluster
    route = span("serving.router.route")
    layer("serving.router", ("route",), ("route",))
    out["serving.router.route.share_of_wall"] = _share(route["self_s"], traced_wall)
    out["serving.router.expected_hit_tokens"] = total["expected_hit_tokens"]
    out["serving.router.shadow_hit_divergence"] = _share(
        total["expected_hit_tokens"], total["hit_tokens"]
    )
    out["serving.router.routed_imbalance"] = sims[r2].get("routed_imbalance", 0.0)
    cluster_step = span("serving.cluster.step")
    out["serving.cluster.step.calls"] = cluster_step["calls"]
    out["serving.cluster.step.self_ms"] = _ms(cluster_step["self_s"])
    out["serving.cluster.dispatch.calls"] = total["dispatches"]
    clustered = bool(workload.replicas)
    out["serving.cluster.prefix_hit_rate"] = (
        out["core.kv_manager.prefix_hit_rate"] if clustered else 0.0
    )
    out["serving.cluster.sim_tokens_per_s_per_replica"] = (
        sims[r3]["tokens_per_s"] / workload.replicas if clustered else 0.0
    )
    out["serving.cluster.ttft_p99_s"] = sims[r2]["ttft_p99_s"] if clustered else 0.0

    # obs: in-tree observers on, no proxies; wall against the untraced runs.
    reference_wall = statistics.median(reference_walls)
    slowdown = sum(run.wall_s for run in observed) / reference_wall
    out["obs.tracer_on_slowdown"] = 0.0 if clustered else slowdown
    out["obs.telemetry_on_slowdown"] = slowdown if clustered else 0.0
    out["obs.sim_perturbations"] = sim_differences(reference[0], observed)

    # baselines
    out["baselines.vllm.sim_tokens_per_s"] = baseline.sim["tokens_per_s"]
    out["baselines.vllm.failed_share"] = 1.0 - _share(
        baseline.sim["finished"], baseline.sim["submitted"]
    )
    out["baselines.vllm.prefix_hit_rate"] = _share(
        baseline.sim["hit_tokens"], baseline.sim["lookup_tokens"]
    )

    # bench
    out["bench.trace_overhead_ratio"] = traced_wall / reference_wall
    out["bench.unattributed_ms"] = _ms(traced_wall - recorder.root_seconds())
    out["bench.repeat_spread"] = (
        (max(reference_walls) - min(reference_walls)) / reference_wall
    )
    out["failed_share"] = 1.0 - _share(total["finished"], total["submitted"])
    return out


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------


def measure(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: float = 1.0,
    trace_out: Optional[str] = None,
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Run workload ``name``; returns (contract result, extras).

    The result's metrics are bare numbers here; :func:`main` attaches the
    units of ``BENCHMARK.json``.
    """
    workload = WORKLOADS[name]
    # Untimed: imports are done, first calls of every code path happen here.
    run_rates(workload, make_inputs(workload, seed, min(scale, WARMUP_SCALE)))
    inputs, setup_s = setup_seconds(workload, seed, scale)
    r3 = rate_indices(workload)[2]

    errors: List[str] = []
    all_runs: List[RunResult] = []
    extras: Dict[str, Any] = {"input_digest": inputs.digest, "requests": len(inputs.specs)}

    gc.collect()
    baseline = run_once(workload, inputs, r3, system="vllm")
    errors += [f"baseline: {e}" for e in baseline.errors]

    if not trace:
        repeats = timed_repeats(workload, inputs, seconds)
        metrics = end_to_end(workload, repeats, setup_s, baseline)
        if metrics["sim_speedup_vs_paged"] < 1.0:
            print(f"warning: {name}: sim_speedup_vs_paged "
                  f"{metrics['sim_speedup_vs_paged']:.4f} < 1", file=sys.stderr)
        extras["host_wall_s_repeats"] = [sum(r.wall_s for r in runs) for runs in repeats]
    else:
        repeats = timed_repeats(workload, inputs, seconds * TRACE_REFERENCE_SHARE, at_least=2)
        recorder = Recorder()
        gc.collect()
        traced = run_rates(workload, inputs, recorder=recorder)
        gc.collect()
        observed = run_rates(workload, inputs, observers=True)
        all_runs += traced + observed
        if sim_differences(repeats[0], traced):
            errors.append("simulated values differ between traced and untraced runs")
        metrics = per_layer(workload, repeats, traced, recorder, observed, baseline)
        if metrics["obs.sim_perturbations"]:
            errors.append("simulated values differ with the in-tree observers on")
        extras["calls_digest"] = digest(
            {k: v for k, v in metrics.items() if k.endswith(".calls")}
        )
        if trace_out:
            recorder.write_chrome_trace(trace_out)

    for runs in repeats:
        all_runs += runs
        if sim_differences(repeats[0], runs):
            errors.append("simulated values differ between repeats")
    errors += [error for run in all_runs for error in run.errors]

    rates = workload.rates or (0.0,)
    extras["rates"] = [
        {"rate": rate, **{key: run.sim[key] for key in (
            "submitted", "finished", "failed", "unfinished", "steps", "preemptions",
            "tokens_per_s", "ttft_p50_s", "ttft_p95_s", "tpot_p50_s",
            *(("slo_share", "meets_limit") if workload.rates else ()),
        )}}
        for rate, run in zip(rates, repeats[0])
    ]
    extras["sim_digest"] = digest([run.sim for run in repeats[0]])
    extras["repeats"] = len(repeats)
    extras["errors"] = errors
    attempted = sum(int(run.sim["submitted"]) for run in all_runs)
    finished = sum(int(run.sim["finished"]) for run in all_runs)
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": attempted - finished,
        "metrics": metrics,
    }
    return result, extras


# ----------------------------------------------------------------------
# Command line
# ----------------------------------------------------------------------


def print_report(name: str, result: Dict[str, Any], extras: Dict[str, Any]) -> None:
    print(f"== {name}: {extras['requests']} requests, {extras['repeats']} untraced "
          f"repeat(s), input {extras['input_digest'][:16]}, sim {extras['sim_digest']}"
          + (f", calls {extras['calls_digest']}" if "calls_digest" in extras else ""))
    for row in extras["rates"]:
        print("   rate {rate:g}/s: submitted {submitted} finished {finished} failed "
              "{failed} unfinished {unfinished} steps {steps} preemptions "
              "{preemptions}".format(**row)
              + (f" slo_share {row['slo_share']:.4f}" if "slo_share" in row else ""))
    for metric, entry in result["metrics"].items():
        print(f"   {metric:<52} {entry['value']:>16.6g} {entry['unit']}")
    for error in extras["errors"]:
        print(f"   CHECK FAILED: {error}")


def run_workload(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    result, extras = measure(
        args.workload, args.seed, args.seconds, bool(args.trace),
        scale=args.scale, trace_out=args.trace_out,
    )
    units = {
        m["name"]: m["unit"]
        for m in spec["per_layer" if args.trace else "end_to_end"]
    }
    result["metrics"] = {
        metric: {"value": result["metrics"][metric], "unit": unit}
        for metric, unit in units.items()
    }
    print_report(args.workload, result, extras)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"result": result, "extras": extras}, f, indent=1)
    print(json.dumps(result))
    return 0


def run_ledger(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    """Every workload, untraced then traced, each in its own child."""
    if not args.out:
        raise SystemExit("--out is required when no --workload is given")
    ledger: Dict[str, Any] = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    correct = True
    for workload in (w["name"] for w in spec["workloads"]):
        entry: Dict[str, Any] = {}
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            part = f"{args.out}.{workload}.{trace}.part"
            command = [
                sys.executable, os.path.abspath(__file__), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(trace), "--scale", str(args.scale), "--out", part,
            ]
            if trace and args.trace_out:
                command += ["--trace-out", f"{args.trace_out}.{workload}.json"]
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            sys.stdout.write(done.stdout.rsplit("\n", 2)[0] + "\n")
            if done.returncode != 0:
                raise SystemExit(f"{workload} --trace {trace} exited {done.returncode}")
            with open(part) as f:
                child = json.load(f)
            os.remove(part)
            correct = correct and child["result"]["correct"]
            entry[section] = child["result"]["metrics"]
            entry[f"{section}_extras"] = child["extras"]
        ledger["workloads"][workload] = entry
    ledger["correct"] = correct
    with open(args.out, "w") as f:
        json.dump(ledger, f, indent=1)
    print(f"ledger written to {args.out}; correct={correct}")
    return 0 if correct else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the result (or the ledger) here")
    parser.add_argument("--trace-out", help="write the traced run as Chrome trace JSON")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink request counts (self-test only)")
    args = parser.parse_args(argv)
    if args.workload:
        return run_workload(args, spec)
    return run_ledger(args, spec)


if __name__ == "__main__":
    sys.exit(main())
