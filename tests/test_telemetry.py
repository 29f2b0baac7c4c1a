"""Telemetry registry, histogram/timeline math, and the telemetry observer."""

import pytest

from repro.core.events import Fanout
from repro.engine.metrics import MemorySnapshot, StepRecord
from repro.obs import BusTelemetry, Histogram, TelemetryRegistry, Tracer
from repro.obs.export import render_report, report_payload


class TestHistogram:
    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            Histogram([])
        with pytest.raises(ValueError):
            Histogram([1.0, 1.0])
        with pytest.raises(ValueError):
            Histogram([2.0, 1.0])

    def test_counts_and_moments(self):
        hist = Histogram([1.0, 10.0, 100.0])
        for value in (0.5, 5.0, 50.0, 500.0):
            hist.observe(value)
        assert hist.count == 4
        assert hist.counts == [1, 1, 1, 1]  # one per bucket + overflow
        assert hist.total == 555.5
        assert hist.vmin == 0.5
        assert hist.vmax == 500.0

    def test_percentile_reports_bucket_bound(self):
        hist = Histogram([1.0, 10.0, 100.0])
        for _ in range(99):
            hist.observe(0.5)
        hist.observe(50.0)
        assert hist.percentile(0.5) == 1.0  # bucket bound, capped by vmax
        assert hist.percentile(0.99) == 1.0
        assert hist.percentile(1.0) == 50.0  # bucket bound capped by vmax

    def test_percentile_overflow_bucket_reports_max(self):
        hist = Histogram([1.0])
        hist.observe(7.0)
        assert hist.percentile(0.5) == 7.0

    def test_percentile_capped_by_observed_max(self):
        hist = Histogram([1.0, 1000.0])
        hist.observe(2.0)
        assert hist.percentile(0.5) == 2.0  # not the 1000.0 bound

    def test_empty_histogram(self):
        hist = Histogram([1.0])
        assert hist.percentile(0.5) == 0.0
        assert hist.mean == 0.0
        snap = hist.snapshot()
        assert snap["count"] == 0
        assert snap["min"] == 0.0 and snap["max"] == 0.0

    def test_percentile_validates_q(self):
        hist = Histogram([1.0])
        with pytest.raises(ValueError):
            hist.percentile(1.5)


class TestTimeline:
    def test_decimation_bounds_points(self):
        reg = TelemetryRegistry()
        for i in range(10_000):
            reg.record_point("mem/used", float(i), float(i))
        series = reg.timeline("mem/used")
        assert len(series.points) < series.cap
        assert series.stride > 1
        assert series.last == (9999.0, 9999.0)
        times = [t for t, _ in series.points]
        assert times == sorted(times)

    def test_small_series_unsampled(self):
        reg = TelemetryRegistry()
        for i in range(10):
            reg.record_point("mem/used", float(i), 2.0 * i)
        series = reg.timeline("mem/used")
        assert series.stride == 1
        assert len(series.points) == 10

    def test_cap_honored_at_every_record(self):
        reg = TelemetryRegistry()
        series = reg.timeline("t", cap=16)
        for i in range(5_000):
            series.record(float(i), float(i))
            assert len(series.points) < series.cap

    def test_decimated_sketch_stays_uniform(self):
        # After decimation the retained points must still sketch the
        # *whole* run uniformly: first point kept, spacing bounded by the
        # stride, coverage reaching the end of the series.
        reg = TelemetryRegistry()
        series = reg.timeline("t", cap=32)
        n = 4_096
        for i in range(n):
            series.record(float(i), float(i))
        times = [t for t, _ in series.points]
        assert times[0] == 0.0
        assert times == sorted(times)
        gaps = [b - a for a, b in zip(times, times[1:])]
        # Uniform up to the one off-phase gap a decimation step introduces.
        assert max(gaps) <= 2 * series.stride
        assert times[-1] >= n - 2 * series.stride

    def test_record_after_decimate_follows_new_stride(self):
        series = TelemetryRegistry().timeline("t", cap=8)
        for i in range(8):
            series.record(float(i), float(i))
        assert series.stride == 2  # one decimation happened
        kept = len(series.points)
        series.record(8.0, 8.0)  # off-phase: skipped by the new stride
        assert len(series.points) == kept
        assert series.last == (8.0, 8.0)  # ...but `last` always tracks
        series.record(9.0, 9.0)  # stride boundary: appended
        assert series.points[-1] == (9.0, 9.0)


class TestRegistry:
    def test_counters_and_gauges(self):
        reg = TelemetryRegistry()
        reg.inc("a")
        reg.inc("a", 4)
        reg.set_gauge("g", 2.5)
        assert reg.counters == {"a": 5}
        assert reg.gauges == {"g": 2.5}

    def test_snapshot_is_json_ready(self):
        import json

        reg = TelemetryRegistry()
        reg.inc("a")
        reg.observe("h", 0.001)
        reg.record_point("t", 1.0, 2.0)
        decoded = json.loads(json.dumps(reg.snapshot()))
        assert decoded["counters"] == {"a": 1}
        assert decoded["histograms"]["h"]["count"] == 1
        assert decoded["timelines"]["t"]["series"] == [[1.0, 2.0]]


def _snapshot():
    return MemorySnapshot(
        used_by_group={"g": 3000},
        evictable_bytes=1000,
        waste_bytes=200,
        free_bytes=800,
    )


def traced_step(observer, record, phases):
    """Report one engine step with ``phases`` inside it to ``observer``."""
    observer.phase_began("step")
    for phase in phases:
        observer.phase_began(phase)
        observer.phase_ended()
    observer.step_completed(0.5, record)
    observer.phase_ended()


class TestBusTelemetry:
    def test_allocation_step_histogram(self):
        telemetry = BusTelemetry()
        for step in (1, 2, 2, 3, 5):
            telemetry.pages_allocated("g", "r0", (step,), (step,))
        reg = telemetry.registry
        assert reg.counters["alloc/pages"] == 5
        assert reg.counters["alloc/step/2"] == 2
        assert reg.counters["alloc/step/5"] == 1
        assert "alloc/step/4" not in reg.counters

    def test_batched_allocation_counts_every_page(self):
        # One pages_allocated report carries len(page_ids) pool mutations;
        # alloc/pages and the §5.4 step histogram count every page of it,
        # whether the call asked for three pages or one.
        telemetry = BusTelemetry()
        telemetry.pages_allocated("g", "r0", (1, 2, 3), (1, 2, 2))
        telemetry.pages_allocated("g", "r0", (4,), (5,))
        reg = telemetry.registry
        assert reg.counters["alloc/pages"] == 4
        assert reg.counters["alloc/step/1"] == 1
        assert reg.counters["alloc/step/2"] == 2
        assert reg.counters["alloc/step/5"] == 1

    def test_eviction_provenance(self):
        telemetry = BusTelemetry()
        telemetry.page_evicted("g", 1, "small", 0.0, 0.0)
        telemetry.page_evicted("g", 2, "large", 0.0, 3.0)
        reg = telemetry.registry
        assert reg.counters["evict/small"] == 1
        assert reg.counters["evict/large"] == 1
        assert reg.counters["evict/priority/balanced"] == 1
        assert reg.counters["evict/priority/aligned"] == 1

    def test_lifecycle_and_prefix_counters(self):
        telemetry = BusTelemetry()
        telemetry.request_queued("r0", 0.0)
        telemetry.request_admitted("r0", 0.1, 0)
        telemetry.prefix_hit("r0", 8, 64)
        telemetry.large_page_carved("g", 0, 4)
        telemetry.page_released("g", 1, True)
        telemetry.page_released("g", 2, False)
        telemetry.request_preempted("r1", 0.2, "victim")
        telemetry.request_preempted("r2", 0.3, "self")
        telemetry.request_finished("r0", 0.4)
        telemetry.request_failed("r3", 0.5)
        c = telemetry.registry.counters
        assert c["requests/queued"] == 1
        assert c["requests/admitted"] == 1
        assert c["prefix/lookups"] == 1
        assert c["prefix/hit_tokens"] == 8
        assert c["prefix/lookup_tokens"] == 64
        assert c["alloc/large_carved"] == 1
        assert c["release/cached"] == 1
        assert c["release/freed"] == 1
        assert c["preempt/victim"] == 1
        assert c["preempt/self"] == 1
        assert c["requests/finished"] == 1
        assert c["requests/failed"] == 1

    def test_step_feeds_memory_timeline_and_phases(self):
        """The fold keeps the memory timeline; a tracer given its registry
        adds the ``phase/*`` histograms."""
        telemetry = BusTelemetry()
        record = StepRecord(
            index=0, start_time=0.0, duration=0.5, decode_batch=1,
            prefill_tokens=0, num_running=1, num_waiting=0,
            num_preemptions=0, memory=_snapshot(),
        )
        traced_step(Fanout(telemetry, Tracer(registry=telemetry.registry)),
                    record, ("schedule", "allocate"))
        reg = telemetry.registry
        assert reg.counters["engine/steps"] == 1
        assert reg.gauges["mem/used"] == 3000
        assert reg.gauges["mem/waste"] == 200
        assert reg.timeline("mem/free").last == (0.5, 800)
        assert reg.histograms["phase/schedule"].count == 1
        assert reg.histograms["phase/allocate"].count == 1

    def test_step_without_record_still_counts(self):
        telemetry = BusTelemetry()
        telemetry.step_completed(0.5, None)
        assert telemetry.registry.counters["engine/steps"] == 1
        assert telemetry.registry.timelines == {}

    def test_request_routed_counters(self):
        # Regression: BusTelemetry ignored routing decisions entirely, so
        # cluster runs had no routing counters (same bug class as the
        # pages-allocated gap PR 8 fixed).
        telemetry = BusTelemetry()
        telemetry.request_routed("r0", "replica-0", "cache_aware", 48)
        telemetry.request_routed("r1", "replica-1", "cache_aware", 0)
        telemetry.request_routed("r2", "replica-0", "round_robin", 16)
        counters = telemetry.registry.counters
        assert counters["routing/requests"] == 3
        assert counters["routing/policy/cache_aware"] == 2
        assert counters["routing/policy/round_robin"] == 1
        assert counters["routing/replica/replica-0"] == 2
        assert counters["routing/replica/replica-1"] == 1
        assert counters["routing/expected_hit_tokens"] == 64

    def test_external_registry_is_adopted(self):
        reg = TelemetryRegistry()
        telemetry = BusTelemetry(registry=reg)
        telemetry.request_queued("r0", 0.0)
        assert reg.counters["requests/queued"] == 1
        assert telemetry.registry is reg


class TestReport:
    def _registry(self):
        telemetry = BusTelemetry()
        telemetry.pages_allocated("g", "r0", (1,), (2,))
        record = StepRecord(
            index=0, start_time=0.0, duration=0.5, decode_batch=1,
            prefill_tokens=8, num_running=1, num_waiting=0,
            num_preemptions=0, memory=_snapshot(),
        )
        traced_step(Fanout(telemetry, Tracer(registry=telemetry.registry)),
                    record, ("schedule",))
        return telemetry.registry

    def test_render_report_sections(self):
        text = render_report(self._registry())
        assert "-- counters --" in text
        assert "alloc/pages" in text
        assert "-- histograms --" in text
        assert "phase/schedule" in text
        assert "-- timelines --" in text
        assert "MiB" in text  # mem/* formatted as MiB

    def test_report_payload_round_trips(self):
        import json

        payload = report_payload(self._registry())
        decoded = json.loads(json.dumps(payload))
        assert decoded["telemetry"]["counters"]["engine/steps"] == 1
