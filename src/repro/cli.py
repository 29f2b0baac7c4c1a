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
import math
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
from .baselines import SYSTEMS
from .engine.scheduler import profile_config
from .engine.spec_decode import SPEC_SYSTEMS
from .models import GIB
from .reporting import Table
from .serving.router import ROUTING_POLICIES
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


def names_from(table, what: str):
    """argparse ``type=``: a comma-separated list of ``table``'s keys."""

    def parse(text: str) -> List[str]:
        names = [name.strip() for name in text.split(",") if name.strip()]
        unknown = [name for name in names if name not in table]
        if not names:
            problem = f"no {what} given"
        elif unknown:
            problem = f"unknown {what} {', '.join(map(repr, unknown))}"
        else:
            return names
        raise argparse.ArgumentTypeError(f"{problem}; choose from {', '.join(table)}")

    return parse


def checked(convert, ok, rule: str):
    """argparse ``type=``: ``convert(text)``, rejected unless ``ok(value)``."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"{rule}, got {text!r}")
        return value

    return parse


positive_int = checked(int, lambda v: v >= 1, "must be a positive integer")
positive_rate = checked(float, lambda v: 0 < v < math.inf, "must be a positive number")
probability = checked(float, lambda v: 0 <= v <= 1, "must be a probability in [0, 1]")


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
    for system in args.systems:
        import copy

        manager = make_manager(system, model, kv,
                               enable_prefix_caching=not args.no_prefix_caching)
        engine = LLMEngine(model, gpu, manager, config=profile_config("vllm"))
        engine.add_requests(copy.deepcopy(requests))
        m = engine.run(max_steps=args.max_steps)
        table.add(system, f"{m.token_throughput():.0f}",
                  f"{m.request_throughput():.2f}",
                  f"{m.mean_decode_batch():.1f}", f"{m.prefix_hit_rate:.3f}",
                  m.preemptions, len(engine.failed))
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
    for system in args.systems:
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
    for system in SPEC_SYSTEMS:
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

    Shared by ``trace`` and ``report``: a
    :class:`~repro.obs.registry.BusTelemetry` observer reading the
    manager's pool, a memory-recording scheduler profile so the
    simulated-clock timelines are populated, and a
    :class:`~repro.obs.tracer.Tracer` on the engine that adds its
    ``phase/*`` histograms to the telemetry's registry.
    """
    from .obs import BusTelemetry, Tracer

    model = get_model(args.model, quantized=args.fp8)
    gpu = GPUS[args.gpu]
    kv = int(args.kv_gib * GIB) if args.kv_gib else kv_budget(model, gpu).kv_bytes
    requests = build_workload(args.workload, args.requests, model, args.seed)
    telemetry = BusTelemetry()
    tracer = Tracer(registry=telemetry.registry)
    manager = make_manager(args.system, model, kv)
    telemetry.allocator = manager.allocator
    engine = LLMEngine(
        model, gpu, manager,
        config=profile_config("vllm", record_memory=True),
        observer=telemetry, tracer=tracer,
    )
    engine.add_requests(requests)
    metrics = engine.run(max_steps=args.max_steps)
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

    from .obs.cluster import (
        ClusterReport,
        cluster_markdown,
        cluster_reports_payload,
        render_cluster_reports,
        write_cluster_trace,
    )
    from .serving import ServingCluster
    from .workloads import fanout_requests

    model = get_model(args.model, quantized=args.fp8)
    gpu = GPUS[args.gpu]
    kv = (int(args.kv_gib * GIB) if args.kv_gib
          else kv_budget(model, gpu).kv_bytes // args.replicas)
    reports = []
    for i, policy in enumerate(args.policies):
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
        p.add_argument("--kv-gib", type=positive_rate, default=None,
                       help="override the KV budget (GiB)")
        p.add_argument("--workload", choices=WORKLOADS, default="mmlu")
        p.add_argument("--requests", type=int, default=64)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--max-steps", type=int, default=200_000)

    p = sub.add_parser("throughput", help="offline throughput comparison")
    common(p)
    p.add_argument("--systems", type=names_from(SYSTEMS, "system"),
                   default="vllm,jenga", help="comma-separated manager names")
    p.add_argument("--no-prefix-caching", action="store_true")
    p.set_defaults(func=cmd_throughput)

    p = sub.add_parser("latency", help="online latency at a request rate")
    common(p)
    p.add_argument("--systems", type=names_from(SYSTEMS, "system"),
                   default="vllm,jenga")
    p.add_argument("--rate", type=positive_rate, default=1.0)
    p.set_defaults(func=cmd_latency)

    p = sub.add_parser("specdecode", help="speculative-decoding comparison")
    p.add_argument("--target", required=True)
    p.add_argument("--draft", required=True)
    p.add_argument("--fp8", action="store_true")
    p.add_argument("--gpu", choices=sorted(GPUS), default="h100")
    p.add_argument("--kv-gib", type=positive_rate, default=None)
    p.add_argument("--workload", choices=WORKLOADS, default="sharegpt")
    p.add_argument("--requests", type=int, default=48)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-steps", type=int, default=200_000)
    p.add_argument("--k", type=positive_int, default=4)
    p.add_argument("--acceptance", type=probability, default=0.7)
    p.set_defaults(func=cmd_specdecode)

    p = sub.add_parser(
        "trace",
        help="traced engine run -> Chrome trace-event JSON (Perfetto-loadable)",
    )
    common(p)
    p.add_argument("--system", choices=SYSTEMS, default="jenga",
                   help="manager name")
    p.add_argument("--output", default="trace.json",
                   help="Chrome trace-event JSON path")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "report",
        help="traced engine run -> telemetry summary (counters/histograms)",
    )
    common(p)
    p.add_argument("--system", choices=SYSTEMS, default="jenga")
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
    p.add_argument("--kv-gib", type=positive_rate, default=None,
                   help="per-replica KV budget (GiB); default: the GPU "
                        "budget split across replicas")
    p.add_argument("--replicas", type=positive_int, default=4)
    p.add_argument("--fanout", type=positive_int, default=16,
                   help="requests forked per shared-prefix family")
    p.add_argument("--families", type=positive_int, default=6,
                   help="number of shared-prefix families")
    p.add_argument("--rate", type=positive_rate, default=8.0,
                   help="Poisson arrival rate (requests/simulated s)")
    p.add_argument("--policies", type=names_from(ROUTING_POLICIES, "routing policy"),
                   default="round_robin,least_loaded,cache_aware",
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

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
