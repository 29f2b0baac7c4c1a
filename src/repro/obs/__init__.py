"""Observability: span tracing, telemetry aggregation, trace export.

The subsystem closes the ROADMAP's "engine-step profiling hooks" item:

* :mod:`repro.obs.tracer` -- :class:`Tracer`, the observer that turns
  the stack's phase reports (each engine step's ``schedule`` /
  ``allocate`` / ``commit`` / ``release`` ...) into wall-clock spans, and
  each step's exclusive per-phase wall time into ``phase/<name>``
  histograms of a registry.
* :mod:`repro.obs.registry` -- :class:`TelemetryRegistry` (counters,
  gauges, fixed-bucket histograms, bounded timelines) fed by
  :class:`BusTelemetry`, the observer every report of the stack is
  counted in.
* :mod:`repro.obs.export` -- Chrome trace-event JSON (open it at
  https://ui.perfetto.dev) and plain-text/JSON summary reports, surfaced
  as ``repro.cli trace`` / ``repro.cli report``.
* :mod:`repro.obs.pressure` -- :class:`PressureMonitor`, the view that
  turns the fold's per-step counter deltas (admission blocks, evictions,
  preemptions) and the waste snapshot into per-replica/per-group pressure
  gauges (``repro.cli cluster-report``'s ``pressure/score`` column).
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
from .tracer import Span, Tracer

__all__ = [
    "BusTelemetry",
    "ClusterReport",
    "Histogram",
    "LATENCY_BUCKETS_S",
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
