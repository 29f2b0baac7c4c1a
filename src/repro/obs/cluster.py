"""Cluster-scope observability: merged traces and the SLO report.

Two cluster-level views over the per-replica observability PR 4 built:

* :func:`cluster_chrome_trace` merges every replica's tracer and registry
  into one Chrome trace-event payload with a stable pid-lane layout --
  pid 0 is the cluster lane (router decisions as instant events on the
  *simulated* clock), and each replica ``i`` owns two lanes mirroring the
  single-engine exporter's wall/sim split: pid ``2i+1`` for wall-clock
  spans, pid ``2i+2`` for sim-clock ``mem/*``, ``pressure/*`` and
  ``resize/*`` (quota staircase) counter tracks.  The merged payload passes
  :func:`~repro.obs.export.validate_chrome_trace` like every other trace
  this repo writes.
* :class:`ClusterReport` folds the per-replica
  :class:`~repro.engine.metrics.EngineMetrics` and telemetry registries
  into the cluster SLO view -- TTFT/TBT/e2e percentiles (nearest-rank via
  :func:`repro.core.math_utils.percentile` over *all* finished requests),
  aggregated telemetry counters, and a per-replica routing/pressure
  table.  ``repro.cli cluster-report`` renders it as text, JSON, or the
  Markdown tables CI writes to the job summary.

This module is presentation-layer (it sorts and formats freely); the
per-event work happens in the one bus fold, :mod:`repro.obs.registry`,
and the per-step pressure math in :mod:`repro.obs.pressure`.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Sequence, Tuple, TYPE_CHECKING

from ..core.math_utils import percentile
from .export import _meta, span_events, timeline_counter_events, validate_chrome_trace

if TYPE_CHECKING:  # serving imports obs; keep the reverse edge type-only
    from ..engine.metrics import RequestMetrics
    from ..serving.cluster import ServingCluster

__all__ = [
    "ClusterReport",
    "ReplicaRow",
    "slo_percentiles",
    "cluster_chrome_trace",
    "write_cluster_trace",
    "render_cluster_reports",
    "cluster_reports_payload",
    "cluster_markdown",
]

#: pid of the cluster router lane in the merged trace.
CLUSTER_PID = 0


def replica_pids(index: int) -> Tuple[int, int]:
    """(wall-clock pid, sim-clock pid) of replica ``index`` in the trace."""
    return 2 * index + 1, 2 * index + 2


# ----------------------------------------------------------------------
# Merged Chrome trace
# ----------------------------------------------------------------------


def cluster_chrome_trace(cluster: "ServingCluster") -> Dict[str, Any]:
    """Merge every replica's trace into one multi-process payload.

    Router decisions come from the cluster's ``route_log`` (recorded when
    the cluster is built with ``tracing=True``), stamped on the simulated
    clock; each replica keeps the wall/sim track separation of the
    single-engine exporter on its own pid pair.
    """
    policy = cluster.router.policy_name
    events: List[Dict[str, Any]] = [
        _meta(CLUSTER_PID, "cluster router (simulated clock)")
    ]
    for t, request_id, idx, expected_hit in cluster.route_log:
        events.append(
            {
                "name": "route",
                "cat": "router",
                "ph": "i",
                "ts": max(t, 0.0) * 1e6,
                "s": "t",
                "pid": CLUSTER_PID,
                "tid": 0,
                "args": {
                    "request": request_id,
                    "replica": cluster.replicas[idx].replica_id,
                    "policy": policy,
                    "expected_hit_tokens": expected_hit,
                },
            }
        )
    for idx, replica in enumerate(cluster.replicas):
        wall_pid, sim_pid = replica_pids(idx)
        events.append(_meta(wall_pid, f"{replica.replica_id} (wall clock)"))
        events.extend(span_events(replica.tracer, wall_pid))
        events.append(_meta(sim_pid, f"{replica.replica_id} (simulated clock)"))
        if replica.registry is not None:
            events.extend(
                timeline_counter_events(
                    replica.registry, sim_pid,
                    prefixes=("mem/", "pressure/", "resize/"),
                )
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_cluster_trace(path: str, cluster: "ServingCluster") -> Dict[str, Any]:
    """Validate and write the merged trace to ``path``; return the payload."""
    payload = cluster_chrome_trace(cluster)
    validate_chrome_trace(payload)
    with open(path, "w") as f:
        json.dump(payload, f)
        f.write("\n")
    return payload


# ----------------------------------------------------------------------
# Cluster SLO report
# ----------------------------------------------------------------------

#: (metric name, extractor) pairs of the SLO axes.  TBT (time between
#: tokens, the steady-state decode cadence) is only defined past the first
#: output token, so single-token requests are excluded from that axis.
_SLO_AXES = ("ttft", "tbt", "e2e")


def slo_percentiles(requests: Sequence["RequestMetrics"]) -> Dict[str, float]:
    """Cluster SLO summary over finished requests (simulated seconds).

    Keys: ``<axis>_{p50,p99,mean}_s`` for ``ttft``/``tbt``/``e2e`` plus
    ``requests``.  All values derive from the simulated clock, so they are
    machine-independent (the bench-compare gate must not calibrate them).
    """
    values: Dict[str, List[float]] = {
        "ttft": [r.ttft for r in requests],
        "tbt": [r.tpot for r in requests if r.output_len > 1],
        "e2e": [r.e2el for r in requests],
    }
    out: Dict[str, float] = {"requests": float(len(requests))}
    for axis in _SLO_AXES:
        series = values[axis]
        out[f"{axis}_p50_s"] = percentile(series, 0.50)
        out[f"{axis}_p99_s"] = percentile(series, 0.99)
        out[f"{axis}_mean_s"] = sum(series) / len(series) if series else 0.0
    return out


@dataclass(frozen=True)
class ReplicaRow:
    """One replica's line in the cluster routing/pressure table."""

    replica_id: str
    routed: int
    finished: int
    preemptions: int
    prefix_hit_rate: float
    admission_blocked: int
    pressure_score: float
    gauges: Dict[str, float]


@dataclass(frozen=True)
class ClusterReport:
    """Aggregated observability view of one cluster run."""

    policy: str
    num_replicas: int
    finished: int
    failed: int
    dispatched: int
    sim_duration: float
    prefix_hit_rate: float
    tokens_per_sec_per_replica: float
    preemptions: int
    slo: Dict[str, float]
    counters: Dict[str, int]
    pressure: Dict[str, float]
    rows: Tuple[ReplicaRow, ...]

    @classmethod
    def from_cluster(cls, cluster: "ServingCluster") -> "ClusterReport":
        """Fold a (finished) cluster run into one report.

        Per-replica telemetry counters sum into ``counters``; SLO
        percentiles are computed over the union of every replica's
        finished-request records, not averaged per replica (a percentile
        of percentiles is not a percentile).
        """
        summary = cluster.summary()
        requests: List["RequestMetrics"] = []
        for metrics in summary.per_replica.values():
            requests.extend(metrics.requests)
        counters: Dict[str, int] = {}
        rows: List[ReplicaRow] = []
        total_blocked = 0
        max_score = 0.0
        for idx, replica in enumerate(cluster.replicas):
            metrics = summary.per_replica[replica.replica_id]
            blocked = 0
            gauges: Dict[str, float] = {}
            if replica.registry is not None:
                for name, value in replica.registry.counters.items():
                    counters[name] = counters.get(name, 0) + value
                blocked = replica.registry.counters.get(
                    "pressure/admission_blocked", 0
                )
                for name, value in replica.registry.gauges.items():
                    if name.startswith("pressure/"):
                        gauges[name] = value
            score = gauges.get("pressure/score", 0.0)
            total_blocked += blocked
            if score > max_score:
                max_score = score
            rows.append(
                ReplicaRow(
                    replica_id=replica.replica_id,
                    routed=summary.routed_counts[idx],
                    finished=len(metrics.requests),
                    preemptions=metrics.preemptions,
                    prefix_hit_rate=metrics.prefix_hit_rate,
                    admission_blocked=blocked,
                    pressure_score=score,
                    gauges=gauges,
                )
            )
        return cls(
            policy=summary.policy,
            num_replicas=summary.num_replicas,
            finished=summary.finished,
            failed=summary.failed,
            dispatched=cluster.num_dispatched,
            sim_duration=summary.sim_duration,
            prefix_hit_rate=summary.prefix_hit_rate,
            tokens_per_sec_per_replica=summary.tokens_per_sec_per_replica,
            preemptions=summary.preemptions,
            slo=slo_percentiles(requests),
            counters=counters,
            pressure={
                "admission_blocked": float(total_blocked),
                "max_score": max_score,
                "preemptions": float(summary.preemptions),
            },
            rows=tuple(rows),
        )


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------


def cluster_reports_payload(reports: Sequence[ClusterReport]) -> Dict[str, Any]:
    """JSON-ready dump, keyed by routing policy."""
    return {"policies": {report.policy: asdict(report) for report in reports}}


_POLICY_HEADER = (
    f"{'policy':<14} {'hit_rate':>8} {'finished':>8} {'failed':>6} "
    f"{'preempt':>7} {'tok/s/rep':>10} {'blocked':>7} {'max_score':>9}"
)

_SLO_HEADER = (
    f"{'policy':<14} {'ttft_p50':>9} {'ttft_p99':>9} {'tbt_p50':>9} "
    f"{'tbt_p99':>9} {'e2e_p50':>9} {'e2e_p99':>9}"
)


def _slo_cells(slo: Dict[str, float]) -> List[str]:
    cells = []
    for axis in _SLO_AXES:
        for q in ("p50", "p99"):
            cells.append(f"{slo.get(f'{axis}_{q}_s', 0.0):>9.3f}")
    return cells


def render_cluster_reports(reports: Sequence[ClusterReport]) -> str:
    """Plain-text cluster report: policy comparison, SLOs, replica tables."""
    lines: List[str] = ["== cluster report =="]
    lines.append("-- hit rate by routing policy --")
    lines.append(_POLICY_HEADER)
    for r in reports:
        lines.append(
            f"{r.policy:<14} {r.prefix_hit_rate:>8.3f} {r.finished:>8} "
            f"{r.failed:>6} {r.preemptions:>7} "
            f"{r.tokens_per_sec_per_replica:>10,.0f} "
            f"{int(r.pressure['admission_blocked']):>7} "
            f"{r.pressure['max_score']:>9.3f}"
        )
    lines.append("-- slo percentiles (simulated seconds) --")
    lines.append(_SLO_HEADER)
    for r in reports:
        lines.append(f"{r.policy:<14} " + " ".join(_slo_cells(r.slo)))
    for r in reports:
        lines.append(f"-- per-replica ({r.policy}) --")
        lines.append(
            f"{'replica':<12} {'routed':>6} {'finished':>8} {'preempt':>7} "
            f"{'hit_rate':>8} {'blocked':>7} {'score':>6}"
        )
        for row in r.rows:
            lines.append(
                f"{row.replica_id:<12} {row.routed:>6} {row.finished:>8} "
                f"{row.preemptions:>7} {row.prefix_hit_rate:>8.3f} "
                f"{row.admission_blocked:>7} {row.pressure_score:>6.3f}"
            )
    return "\n".join(lines)


def cluster_markdown(reports: Sequence[ClusterReport]) -> str:
    """Markdown twin of :func:`render_cluster_reports` for CI summaries."""
    lines: List[str] = ["## Cluster report", ""]
    lines.append(
        "| policy | hit rate | finished | preempt | tok/s/replica "
        "| blocked | max score |"
    )
    lines.append("|---|---|---|---|---|---|---|")
    for r in reports:
        lines.append(
            f"| {r.policy} | {r.prefix_hit_rate:.3f} | {r.finished} "
            f"| {r.preemptions} | {r.tokens_per_sec_per_replica:,.0f} "
            f"| {int(r.pressure['admission_blocked'])} "
            f"| {r.pressure['max_score']:.3f} |"
        )
    lines.append("")
    lines.append(
        "| policy | ttft p50 | ttft p99 | tbt p50 | tbt p99 "
        "| e2e p50 | e2e p99 |"
    )
    lines.append("|---|---|---|---|---|---|---|")
    for r in reports:
        cells = " | ".join(cell.strip() for cell in _slo_cells(r.slo))
        lines.append(f"| {r.policy} | {cells} |")
    lines.append("")
    return "\n".join(lines)
