"""Observability: span tracing, telemetry aggregation, trace export.

The subsystem closes the ROADMAP's "engine-step profiling hooks" item:

* :mod:`repro.obs.tracer` -- a span-based :class:`Tracer` with a
  zero-overhead null fast path; the engine splits each step into
  ``schedule`` / ``allocate`` / ``commit`` / ``release`` phase spans and
  stamps the exclusive per-phase wall time onto
  :class:`~repro.engine.metrics.StepRecord`.
* :mod:`repro.obs.registry` -- :class:`TelemetryRegistry` (counters,
  gauges, fixed-bucket histograms, bounded timelines) fed from the
  allocation-event bus by :class:`BusTelemetry`, the one fold every
  event is counted in.
* :mod:`repro.obs.export` -- Chrome trace-event JSON (open it at
  https://ui.perfetto.dev) and plain-text/JSON summary reports, surfaced
  as ``repro.cli trace`` / ``repro.cli report`` and inside
  ``BENCH_alloc.json``'s per-phase breakdown.
* :mod:`repro.obs.pressure` -- :class:`PressureMonitor`, the view that
  turns the fold's per-step counter deltas (admission blocks, evictions,
  preemptions) and the waste snapshot into per-replica/per-group pressure
  gauges (the sensing half of ``PoolResizer``).
* :mod:`repro.obs.cluster` -- cluster-scope views: the merged
  multi-replica Chrome trace (one pid lane pair per replica plus a
  cluster router lane) and :class:`ClusterReport`, the TTFT/TBT/e2e SLO
  aggregator behind ``repro.cli cluster-report``.
"""

from .cluster import (
    ClusterReport,
    cluster_chrome_trace,
    cluster_markdown,
    cluster_reports_payload,
    render_cluster_reports,
    slo_percentiles,
    write_cluster_trace,
)
from .export import (
    chrome_trace,
    render_report,
    report_payload,
    validate_chrome_trace,
    write_chrome_trace,
)
from .pressure import PressureMonitor
from .registry import LATENCY_BUCKETS_S, BusTelemetry, Histogram, TelemetryRegistry
from .tracer import NULL_TRACER, Span, Tracer

__all__ = [
    "BusTelemetry",
    "ClusterReport",
    "Histogram",
    "LATENCY_BUCKETS_S",
    "NULL_TRACER",
    "PressureMonitor",
    "Span",
    "Tracer",
    "TelemetryRegistry",
    "chrome_trace",
    "cluster_chrome_trace",
    "cluster_markdown",
    "cluster_reports_payload",
    "render_cluster_reports",
    "render_report",
    "report_payload",
    "slo_percentiles",
    "validate_chrome_trace",
    "write_chrome_trace",
]
