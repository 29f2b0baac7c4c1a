"""Command-line interface: run experiments without writing code.

Examples::

    python -m repro.cli models
    python -m repro.cli groups --model jamba-52b
    python -m repro.cli throughput --model gemma2-9b --systems vllm,jenga \\
        --workload arxiv-long --requests 16
    python -m repro.cli specdecode --target llama3-8b --draft llama3.2-1b
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import (
    H100,
    L4,
    LLMEngine,
    SpecDecodeEngine,
    get_model,
    kv_budget,
    list_models,
    make_manager,
    make_spec_manager,
)
from .core.registry import available_managers
from .engine.scheduler import profile_config
from .models import GIB
from .reporting import Table
from .workloads import (
    arxiv_qa_long,
    arxiv_qa_multiturn,
    long_document_qa,
    mmlu_pro,
    mmmu_pro,
    sharegpt,
)

GPUS = {"h100": H100, "l4": L4}

WORKLOADS = ("mmlu", "sharegpt", "arxiv-long", "longdoc", "mmmu", "multiturn")


def parse_systems(spec: str) -> List[str]:
    """Split a ``--systems`` value and validate it against the registry."""
    systems = [s.strip() for s in spec.split(",") if s.strip()]
    registered = available_managers("model")
    if not systems:
        raise SystemExit(
            f"--systems is empty; registered managers: {', '.join(registered)}"
        )
    unknown = [s for s in systems if s not in registered]
    if unknown:
        raise SystemExit(
            f"unknown system(s) {', '.join(repr(s) for s in unknown)}; "
            f"registered managers: {', '.join(registered)}"
        )
    return systems


def build_workload(name: str, n: int, model, seed: int):
    if name == "mmlu":
        return mmlu_pro(n, seed=seed, mean_output=256)
    if name == "sharegpt":
        return sharegpt(n, seed=seed)
    if name == "arxiv-long":
        return arxiv_qa_long(n, seed=seed)
    if name == "longdoc":
        return long_document_qa(n, seed=seed)
    if name == "mmmu":
        return mmmu_pro(n, model, seed=seed, mean_output=128)
    if name == "multiturn":
        return arxiv_qa_multiturn(max(1, n // 4), 4, seed=seed, article_tokens=16000)
    raise SystemExit(f"unknown workload {name!r}; choose from {WORKLOADS}")


def cmd_models(args) -> int:
    table = Table(["model", "weights (GiB)", "groups"])
    for name in list_models():
        model = get_model(name)
        table.add(name, f"{model.weight_bytes / GIB:.1f}",
                  ", ".join(model.kv_groups()))
    table.print()
    return 0


def cmd_groups(args) -> int:
    model = get_model(args.model, quantized=args.fp8)
    table = Table(
        ["group", "kind", "layers", "per-token B", "page B", "window"],
        title=f"Layer-type groups of {model.name} (tokens/page={args.tokens_per_page})",
    )
    for gid, g in model.kv_groups(args.tokens_per_page).items():
        table.add(gid, g.kind, g.num_layers, g.per_token_bytes, g.page_bytes,
                  g.window or "-")
    table.print()
    return 0


def cmd_throughput(args) -> int:
    model = get_model(args.model, quantized=args.fp8)
    gpu = GPUS[args.gpu]
    kv = int(args.kv_gib * GIB) if args.kv_gib else kv_budget(model, gpu).kv_bytes
    requests = build_workload(args.workload, args.requests, model, args.seed)
    table = Table(
        ["system", "tok/s", "req/s", "decode batch", "hit rate", "preempt", "failed"],
        title=f"{model.name} on {gpu.name}, {args.workload} x{args.requests}, "
              f"KV {kv / GIB:.1f} GiB",
    )
    for system in parse_systems(args.systems):
        import copy

        manager = make_manager(system, model, kv,
                               enable_prefix_caching=not args.no_prefix_caching)
        engine = LLMEngine(model, gpu, manager, config=profile_config("vllm"))
        engine.add_requests(copy.deepcopy(requests))
        m = engine.run(max_steps=args.max_steps)
        table.add(system, f"{m.token_throughput():.0f}",
                  f"{m.request_throughput():.2f}",
                  f"{m.mean_decode_batch():.1f}", f"{m.prefix_hit_rate:.3f}",
                  m.num_preemptions(), len(engine.failed))
    table.print()
    return 0


def cmd_latency(args) -> int:
    from .workloads import poisson_arrivals

    model = get_model(args.model, quantized=args.fp8)
    gpu = GPUS[args.gpu]
    kv = int(args.kv_gib * GIB) if args.kv_gib else kv_budget(model, gpu).kv_bytes
    table = Table(
        ["system", "rate", "mean TTFT", "mean TPOT", "mean E2EL", "p99 TTFT"],
        title=f"{model.name} on {gpu.name}, Poisson {args.rate}/s",
    )
    for system in parse_systems(args.systems):
        requests = poisson_arrivals(
            build_workload(args.workload, args.requests, model, args.seed),
            rate=args.rate, seed=args.seed,
        )
        manager = make_manager(system, model, kv)
        engine = LLMEngine(model, gpu, manager, config=profile_config("vllm"))
        engine.add_requests(requests)
        m = engine.run(max_steps=args.max_steps)
        table.add(system, args.rate, f"{m.mean_ttft():.2f}s",
                  f"{m.mean_tpot() * 1000:.1f}ms", f"{m.mean_e2el():.2f}s",
                  f"{m.p99_ttft():.2f}s")
    table.print()
    return 0


def cmd_specdecode(args) -> int:
    target = get_model(args.target, quantized=args.fp8)
    draft = get_model(args.draft, quantized=args.fp8)
    gpu = GPUS[args.gpu]
    kv = (int(args.kv_gib * GIB) if args.kv_gib
          else kv_budget(target, gpu, extra_models=(draft,)).kv_bytes)
    requests = build_workload(args.workload, args.requests, target, args.seed)
    table = Table(
        ["system", "output tok/s", "decode batch"],
        title=f"spec decode: {target.name} + {draft.name} on {gpu.name}",
    )
    for system in available_managers("spec"):
        import copy

        manager = make_spec_manager(system, draft, target, kv)
        engine = SpecDecodeEngine(
            draft, target, gpu, manager,
            num_speculative_tokens=args.k, acceptance_rate=args.acceptance,
            seed=args.seed,
        )
        engine.add_requests(copy.deepcopy(requests))
        m = engine.run(max_steps=args.max_steps)
        table.add(system, f"{m.output_throughput():.0f}",
                  f"{m.mean_decode_batch():.1f}")
    table.print()
    return 0


def _traced_run(args):
    """Run one traced engine workload; return ``(tracer, registry, metrics)``.

    Shared by ``trace`` and ``report``: an :class:`~repro.core.events.EventBus`
    in pure-dispatch mode (no ring retention -- the telemetry fold consumes
    events as they happen), a memory-recording
    scheduler profile so the simulated-clock timelines are populated, and an
    enabled :class:`~repro.obs.tracer.Tracer` on the engine.
    """
    from .core.events import EventBus
    from .obs import BusTelemetry, Tracer

    model = get_model(args.model, quantized=args.fp8)
    gpu = GPUS[args.gpu]
    kv = int(args.kv_gib * GIB) if args.kv_gib else kv_budget(model, gpu).kv_bytes
    requests = build_workload(args.workload, args.requests, model, args.seed)
    events = EventBus(capacity=0)
    telemetry = BusTelemetry(events)
    tracer = Tracer()
    manager = make_manager(args.system, model, kv)
    engine = LLMEngine(
        model, gpu, manager,
        config=profile_config("vllm", record_memory=True),
        events=events, tracer=tracer,
    )
    engine.add_requests(requests)
    metrics = engine.run(max_steps=args.max_steps)
    telemetry.close()
    return tracer, telemetry.registry, metrics


def cmd_trace(args) -> int:
    from .obs import write_chrome_trace

    tracer, registry, metrics = _traced_run(args)
    payload = write_chrome_trace(args.output, tracer, registry)
    num_events = len(payload["traceEvents"])
    print(
        f"wrote {args.output}: {num_events} trace events over "
        f"{len(metrics.steps)} engine steps "
        f"(load in Perfetto / chrome://tracing)"
    )
    return 0


def cmd_report(args) -> int:
    import json as _json

    from .obs import render_report, report_payload

    _, registry, metrics = _traced_run(args)
    if args.json:
        print(_json.dumps(report_payload(registry, metrics), indent=2))
    else:
        print(render_report(registry, metrics))
    return 0


def cmd_cluster_report(args) -> int:
    """Fan-out cluster run per policy -> cluster SLO/pressure report."""
    import json as _json

    from .bench.alloc import fanout_requests
    from .obs.cluster import (
        ClusterReport,
        cluster_markdown,
        cluster_reports_payload,
        render_cluster_reports,
        write_cluster_trace,
    )
    from .serving import ServingCluster

    model = get_model(args.model, quantized=args.fp8)
    gpu = GPUS[args.gpu]
    kv = (int(args.kv_gib * GIB) if args.kv_gib
          else kv_budget(model, gpu).kv_bytes // max(1, args.replicas))
    policies = [p.strip() for p in args.policies.split(",") if p.strip()]
    reports = []
    for i, policy in enumerate(policies):
        tracing = bool(args.trace) and i == 0
        cluster = ServingCluster.build(
            model, gpu, kv, args.replicas, policy=policy,
            config=profile_config("vllm", record_memory=True),
            seed=args.seed, tracing=tracing, telemetry=True, pressure=True,
        )
        cluster.submit(fanout_requests(
            args.fanout, num_families=args.families,
            rate=args.rate, seed=args.seed,
        ))
        cluster.run()
        reports.append(ClusterReport.from_cluster(cluster))
        if tracing:
            payload = write_cluster_trace(args.trace, cluster)
            print(f"wrote {args.trace}: {len(payload['traceEvents'])} trace "
                  f"events across {len(cluster.replicas)} replica lanes "
                  f"({policy} policy)")
        cluster.close()
    if args.json:
        print(_json.dumps(cluster_reports_payload(reports), indent=2))
    else:
        print(render_cluster_reports(reports))
    if args.summary:
        with open(args.summary, "a") as f:
            f.write(cluster_markdown(reports))
    return 0


def cmd_resize_report(args) -> int:
    """Elastic-repartitioning sweep -> per-policy quota/blocking report."""
    import json as _json

    from .bench.alloc import elastic_bench

    policies = tuple(p.strip() for p in args.policies.split(",") if p.strip())
    result = elastic_bench(
        args.phases, requests_per_phase=args.requests_per_phase,
        policies=policies, resize_interval=args.interval, seed=args.seed,
    )
    if args.json:
        print(_json.dumps(result, indent=2))
        return 0
    header = (f"elastic sweep: {result['phases']} phases x "
              f"{result['requests_per_phase']} requests, resize interval "
              f"{result['resize_interval']} steps")
    lines = [header, "-" * len(header)]
    rows = [("policy", "finished", "failed", "blocked", "preempt",
             "quota moves", "reclaimed", "waste p50 MB")]
    for policy, row in result["policies"].items():
        rows.append((
            policy, str(row["finished"]), str(row["failed"]),
            str(row["admission_blocked"]), str(row["preemptions"]),
            str(row["quota_moves"]), str(row["reclaimed_large"]),
            f"{row['waste_bytes_p50'] / 2**20:.0f}",
        ))
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    for r in rows:
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(r, widths)))
    print("\n".join(lines))
    if args.summary:
        md = ["", f"### {header}", "",
              "| " + " | ".join(rows[0]) + " |",
              "|" + "---|" * len(rows[0])]
        md += ["| " + " | ".join(r) + " |" for r in rows[1:]]
        with open(args.summary, "a") as f:
            f.write("\n".join(md) + "\n")
    return 0


def cmd_bench_alloc(args) -> int:
    from .bench.alloc import run_benchmark

    payload = run_benchmark(output=args.output, smoke=args.smoke, seed=args.seed)
    churn = payload["churn"]["scaling_ratio_p50"]
    queue = payload["queue"]["scaling_ratio_p50"]
    admission = payload["admission"]["cached_probe_scaling_p50"]
    print(f"scaling ratios (p50 largest/smallest): churn {churn:.2f}, "
          f"queue {queue:.2f}, admission cached {admission:.2f}")
    for cell in payload["routing"]["sweep"]:
        rates = "  ".join(
            f"{policy} {row['hit_rate']:.3f}"
            for policy, row in cell["policies"].items()
        )
        print(f"routing hit rates (fanout {cell['fanout']}, "
              f"{cell['num_replicas']} replicas): {rates}")
    return 0


def cmd_bench_compare(args) -> int:
    from .bench.compare import main as compare_main

    argv = ["--baseline", args.baseline, "--current", args.current,
            "--tolerance", str(args.tolerance)]
    if args.calibrate:
        argv += ["--calibrate", args.calibrate]
    if args.summary:
        argv += ["--summary", args.summary]
    return compare_main(argv)


def cmd_lint(args) -> int:
    import json as _json

    from .analysis import lint_paths

    result = lint_paths(args.paths, baseline=args.baseline)
    if args.format == "json":
        payload = {
            "findings": [f.to_json() for f in result.findings],
            "errors": [f.to_json() for f in result.errors],
            "stats": dict(sorted(result.stats.items())),
        }
        print(_json.dumps(payload, indent=2, sort_keys=True))
    else:
        for finding in result.findings + result.errors:
            print(finding.render())
    # Exit 2 when the analysis itself failed: an unparseable file proves
    # nothing about the tree and must not read as clean (or as a mere
    # finding) to CI.
    if result.errors:
        print(f"jengalint: analysis failed on {len(result.errors)} file(s)")
        return 2
    if result.findings:
        print(f"jengalint: {len(result.findings)} finding(s)")
        return 1
    if args.format != "json":
        print("jengalint: clean")
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Jenga reproduction experiment runner"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("models", help="list the model zoo").set_defaults(func=cmd_models)

    p = sub.add_parser("groups", help="show a model's layer-type groups")
    p.add_argument("--model", required=True)
    p.add_argument("--fp8", action="store_true")
    p.add_argument("--tokens-per-page", type=int, default=16)
    p.set_defaults(func=cmd_groups)

    def common(p):
        p.add_argument("--model", required=True)
        p.add_argument("--fp8", action="store_true")
        p.add_argument("--gpu", choices=sorted(GPUS), default="h100")
        p.add_argument("--kv-gib", type=float, default=None,
                       help="override the KV budget (GiB)")
        p.add_argument("--workload", choices=WORKLOADS, default="mmlu")
        p.add_argument("--requests", type=int, default=64)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--max-steps", type=int, default=200_000)

    p = sub.add_parser("throughput", help="offline throughput comparison")
    common(p)
    p.add_argument("--systems", default="vllm,jenga",
                   help="comma-separated manager names")
    p.add_argument("--no-prefix-caching", action="store_true")
    p.set_defaults(func=cmd_throughput)

    p = sub.add_parser("latency", help="online latency at a request rate")
    common(p)
    p.add_argument("--systems", default="vllm,jenga")
    p.add_argument("--rate", type=float, default=1.0)
    p.set_defaults(func=cmd_latency)

    p = sub.add_parser("specdecode", help="speculative-decoding comparison")
    p.add_argument("--target", required=True)
    p.add_argument("--draft", required=True)
    p.add_argument("--fp8", action="store_true")
    p.add_argument("--gpu", choices=sorted(GPUS), default="h100")
    p.add_argument("--kv-gib", type=float, default=None)
    p.add_argument("--workload", choices=WORKLOADS, default="sharegpt")
    p.add_argument("--requests", type=int, default=48)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-steps", type=int, default=200_000)
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--acceptance", type=float, default=0.7)
    p.set_defaults(func=cmd_specdecode)

    p = sub.add_parser(
        "trace",
        help="traced engine run -> Chrome trace-event JSON (Perfetto-loadable)",
    )
    common(p)
    p.add_argument("--system", default="jenga",
                   help="manager name (see `models`/registry)")
    p.add_argument("--output", default="trace.json",
                   help="Chrome trace-event JSON path")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "report",
        help="traced engine run -> telemetry summary (counters/histograms)",
    )
    common(p)
    p.add_argument("--system", default="jenga")
    p.add_argument("--json", action="store_true",
                   help="machine-readable JSON instead of text")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser(
        "cluster-report",
        help="fan-out cluster run per routing policy -> "
             "cluster SLO / pressure / per-replica report",
    )
    p.add_argument("--model", default="gemma2-9b")
    p.add_argument("--fp8", action="store_true")
    p.add_argument("--gpu", choices=sorted(GPUS), default="l4")
    p.add_argument("--kv-gib", type=float, default=None,
                   help="per-replica KV budget (GiB); default: the GPU "
                        "budget split across replicas")
    p.add_argument("--replicas", type=int, default=4)
    p.add_argument("--fanout", type=int, default=16,
                   help="requests forked per shared-prefix family")
    p.add_argument("--families", type=int, default=6,
                   help="number of shared-prefix families")
    p.add_argument("--rate", type=float, default=8.0,
                   help="Poisson arrival rate (requests/simulated s)")
    p.add_argument("--policies", default="round_robin,least_loaded,cache_aware",
                   help="comma-separated routing policies to compare")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", default=None, metavar="PATH",
                   help="write the merged multi-replica Chrome trace of "
                        "the first policy's run to PATH")
    p.add_argument("--summary", default=None, metavar="PATH",
                   help="append markdown tables (e.g. $GITHUB_STEP_SUMMARY)")
    p.add_argument("--json", action="store_true",
                   help="machine-readable JSON instead of text")
    p.set_defaults(func=cmd_cluster_report)

    p = sub.add_parser(
        "resize-report",
        help="mixed-tenant elastic-repartitioning sweep -> per-policy "
             "admission-blocking / waste / quota-move report",
    )
    p.add_argument("--phases", type=int, default=4,
                   help="alternating square-wave traffic phases")
    p.add_argument("--requests-per-phase", type=int, default=24)
    p.add_argument("--interval", type=int, default=16,
                   help="steps between resize decisions")
    p.add_argument("--policies", default="static,proportional,hysteresis",
                   help="comma-separated resize policies to compare")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--summary", default=None, metavar="PATH",
                   help="append a markdown table (e.g. $GITHUB_STEP_SUMMARY)")
    p.add_argument("--json", action="store_true",
                   help="machine-readable JSON instead of text")
    p.set_defaults(func=cmd_resize_report)

    p = sub.add_parser(
        "bench-alloc",
        help="allocator/scheduler microbenchmark (emits BENCH_alloc.json)",
    )
    p.add_argument("--smoke", action="store_true", help="reduced CI scale")
    p.add_argument("--output", default="BENCH_alloc.json")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_bench_alloc)

    p = sub.add_parser(
        "bench-compare",
        help="gate a BENCH_alloc.json payload against a committed baseline",
    )
    p.add_argument("--baseline", required=True,
                   help="committed BENCH_alloc.json to gate against")
    p.add_argument("--current", required=True,
                   help="freshly produced payload to check")
    p.add_argument("--tolerance", type=float, default=1.5,
                   help="max allowed current/baseline p50 ratio")
    p.add_argument("--calibrate", default=None, metavar="METRIC",
                   help="metric used to normalize machine speed")
    p.add_argument("--summary", default=None, metavar="PATH",
                   help="append a markdown summary (e.g. $GITHUB_STEP_SUMMARY)")
    p.set_defaults(func=cmd_bench_compare)

    p = sub.add_parser(
        "lint",
        help="jengalint: AST-based invariant linter (see repro.analysis)",
    )
    p.add_argument("paths", nargs="*", default=["src"],
                   help="files or directories to lint (default: src)")
    p.add_argument("--format", choices=("text", "json"), default="text",
                   help="findings output format (default: text)")
    p.add_argument("--baseline", default=None, metavar="FILE",
                   help="grandfather findings listed in FILE "
                        "(stale entries are reported)")
    p.set_defaults(func=cmd_lint)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
