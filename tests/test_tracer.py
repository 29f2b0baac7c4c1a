"""Span tracer: nesting, phase accounting, Chrome export."""

import json

import pytest

from repro.engine import LLMEngine, Request, SchedulerConfig
from repro.engine.metrics import StepRecord
from repro.models import GIB, get_model
from repro.obs import (
    Tracer,
    chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.registry import TelemetryRegistry
from repro.platforms import H100
from repro.workloads import token_block


class FakeClock:
    """Deterministic monotonic clock; tests advance it explicitly."""

    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def tick(self, dt: float) -> None:
        self.t += dt


def make_tracer(**kwargs):
    clock = FakeClock()
    return Tracer(clock=clock, **kwargs), clock


def phase_seconds(registry):
    """``phase/<name>`` histogram totals, by phase name."""
    return {
        name[len("phase/"):]: hist.total
        for name, hist in registry.histograms.items()
        if name.startswith("phase/")
    }


def step_record(index=0, num_running=1, num_waiting=0):
    return StepRecord(
        index=index, start_time=0.0, duration=0.5, decode_batch=1,
        prefill_tokens=0, num_running=num_running, num_waiting=num_waiting,
        num_preemptions=0,
    )


class TestSpans:
    def test_single_span_duration(self):
        tracer, clock = make_tracer()
        tracer.phase_began("schedule")
        clock.tick(2.0)
        tracer.phase_ended()
        (span,) = tracer.spans
        assert span.name == "schedule"
        assert span.start == 0.0
        assert span.duration == 2.0
        assert span.kind == "X"
        assert span.depth == 0

    def test_nesting_depth_and_monotonic_timestamps(self):
        tracer, clock = make_tracer()
        tracer.phase_began("outer")
        clock.tick(1.0)
        tracer.phase_began("inner", "r0")
        clock.tick(1.0)
        tracer.phase_ended()
        clock.tick(1.0)
        tracer.phase_ended()
        inner, outer = tracer.spans
        assert (inner.args, outer.args) == ({"request": "r0"}, None)
        assert (inner.name, inner.depth) == ("inner", 1)
        assert (outer.name, outer.depth) == ("outer", 0)
        assert inner.start >= outer.start
        assert outer.duration == 3.0
        assert inner.duration == 1.0
        ends = [s.start + s.duration for s in tracer.spans]
        assert ends == sorted(ends)  # record order is end order

    def test_exclusive_time_pauses_parent(self):
        registry = TelemetryRegistry()
        tracer, clock = make_tracer(registry=registry)
        tracer.phase_began("step")
        clock.tick(1.0)
        tracer.phase_began("schedule")
        clock.tick(2.0)  # schedule self-time
        tracer.phase_began("allocate")
        clock.tick(4.0)  # allocate self-time, not schedule's
        tracer.phase_ended()
        clock.tick(1.0)  # schedule self-time again
        tracer.phase_ended()
        tracer.phase_ended()
        assert phase_seconds(registry) == {"schedule": 3.0, "allocate": 4.0}

    def test_phases_sum_at_most_step_duration(self):
        registry = TelemetryRegistry()
        tracer, clock = make_tracer(registry=registry)
        tracer.phase_began("step")
        clock.tick(0.5)  # step overhead outside any phase
        tracer.phase_began("schedule")
        clock.tick(2.0)
        tracer.phase_ended()
        clock.tick(0.5)
        tracer.phase_ended()
        step_span = tracer.spans[-1]
        assert step_span.name == "step"
        assert sum(phase_seconds(registry).values()) <= step_span.duration
        assert step_span.duration == 3.0

    def test_step_totals_reset_between_steps(self):
        registry = TelemetryRegistry()
        tracer, clock = make_tracer(registry=registry)
        for _ in range(2):
            tracer.phase_began("step")
            tracer.phase_began("schedule")
            clock.tick(1.0)
            tracer.phase_ended()
            tracer.phase_ended()
        hist = registry.histograms["phase/schedule"]
        assert (hist.count, hist.total) == (2, 2.0)

    def test_capacity_is_a_ring(self):
        tracer, clock = make_tracer(capacity=4)
        for i in range(10):
            tracer.request_queued(f"r{i}", 0.0)
        assert [s.args["request"] for s in tracer.spans] == ["r6", "r7", "r8", "r9"]

    def test_instant_and_counter_kinds(self):
        tracer, _ = make_tracer()
        tracer.request_queued("r0", 0.0)
        tracer.counter("engine/running", 7)
        instant, counter = tracer.spans
        assert (instant.name, instant.kind, instant.duration) == ("queue/push", "i", 0.0)
        assert instant.args == {"request": "r0"}
        assert counter.kind == "C"
        assert counter.args == {"value": 7}

    def test_clear_keeps_open_spans(self):
        tracer, clock = make_tracer()
        tracer.phase_began("outer")
        tracer.instant("marker")
        tracer.clear()
        assert tracer.spans == []
        assert tracer.open_depth == 1
        clock.tick(1.0)
        tracer.phase_ended()
        assert [s.name for s in tracer.spans] == ["outer"]

    def test_step_phases_observed_into_the_registry(self):
        """A step's exclusive per-phase seconds become ``phase/<name>``
        histograms of the registry the tracer was given, and the step span
        takes the record's index."""
        registry = TelemetryRegistry()
        tracer, clock = make_tracer(registry=registry)
        tracer.phase_began("step")
        tracer.phase_began("schedule")
        clock.tick(1e-4)
        tracer.phase_ended()
        tracer.phase_began("allocate")
        clock.tick(2e-5)
        tracer.phase_ended()
        tracer.step_completed(1.0, step_record(index=7, num_running=2, num_waiting=3))
        tracer.phase_ended()
        assert registry.histograms["phase/schedule"].count == 1
        assert registry.histograms["phase/allocate"].count == 1
        assert "phase/step" not in registry.histograms
        counters = {s.name: s.args["value"] for s in tracer.spans if s.kind == "C"}
        assert counters == {"engine/running": 2, "engine/waiting": 3}
        assert tracer.spans[-1].args == {"step": 7}

    def test_unbalanced_end_is_ignored(self):
        tracer, _ = make_tracer()
        tracer.phase_ended()
        assert tracer.spans == [] and tracer.open_depth == 0


class TestChromeExport:
    def _populated(self):
        tracer, clock = make_tracer()
        tracer.phase_began("step")
        clock.tick(0.001)
        tracer.phase_began("schedule")
        clock.tick(0.002)
        tracer.phase_ended()
        tracer.request_queued("r0", 0.0)
        tracer.step_completed(0.5, step_record())
        tracer.phase_ended()
        return tracer

    def test_round_trips_through_json(self):
        payload = chrome_trace(self._populated())
        decoded = json.loads(json.dumps(payload))
        assert decoded == payload
        assert decoded["displayTimeUnit"] == "ms"

    def test_valid_phases_and_timestamps(self):
        payload = chrome_trace(self._populated())
        count = validate_chrome_trace(payload)
        assert count == len(payload["traceEvents"])
        phases = {e["ph"] for e in payload["traceEvents"]}
        assert phases == {"M", "X", "i", "C"}
        for event in payload["traceEvents"]:
            if event["ph"] == "X":
                assert event["dur"] >= 0.0
                assert event["ts"] >= 0.0

    def test_memory_timeline_on_separate_pid(self):
        registry = TelemetryRegistry()
        registry.record_point("mem/used", 1.5, 4096.0)
        payload = chrome_trace(self._populated(), registry)
        validate_chrome_trace(payload)
        mem = [e for e in payload["traceEvents"] if e["name"] == "mem/used"]
        assert mem and all(e["pid"] == 1 and e["ph"] == "C" for e in mem)
        walls = [e for e in payload["traceEvents"] if e.get("cat") == "phase"]
        assert walls and all(e["pid"] == 0 for e in walls)

    def test_write_validates_and_is_loadable(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(str(path), self._populated())
        with open(path) as f:
            decoded = json.load(f)
        assert validate_chrome_trace(decoded) > 0

    def test_validator_rejects_garbage(self):
        with pytest.raises(ValueError):
            validate_chrome_trace([])
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": [{"ph": "Z", "name": "x"}]})
        with pytest.raises(ValueError):
            validate_chrome_trace(
                {"traceEvents": [{"ph": "X", "name": "x", "pid": 0, "tid": 0,
                                  "ts": -1.0, "dur": 0.0}]}
            )


class TestEngineIntegration:
    def _traced_engine(self, registry=None):
        model = get_model("llama3-8b")
        from repro.baselines import make_manager

        manager = make_manager("jenga", model, 2 * GIB)
        tracer = Tracer(registry=registry)
        engine = LLMEngine(
            model, H100, manager, config=SchedulerConfig(), tracer=tracer
        )
        requests = [
            Request.text(f"t{i}", token_block(0, "t", i, 64), 8)
            for i in range(4)
        ]
        engine.add_requests(requests)
        return engine, tracer

    def test_every_step_span_holds_a_schedule_phase(self):
        engine, tracer = self._traced_engine()
        metrics = engine.run()
        engine.close()
        assert metrics.steps, "no steps ran"
        assert engine.observer is tracer
        spans = tracer.spans
        steps = [s for s in spans if s.cat == "step"]
        assert [s.args for s in steps] == [{"step": r.index} for r in metrics.steps]
        for step in steps:
            inside = [
                s for s in spans
                if s.kind == "X" and s.depth == 1
                and step.start <= s.start <= step.start + step.duration
            ]
            assert "schedule" in {s.name for s in inside}
        names = {s.name for s in spans}
        assert {"admission", "allocate", "commit", "release", "prefix_lookup",
                "queue/push"} <= names
        assert tracer.open_depth == 0

    def test_phase_sums_bounded_by_step_spans(self):
        registry = TelemetryRegistry()
        engine, tracer = self._traced_engine(registry)
        metrics = engine.run()
        engine.close()
        step_spans = [s for s in tracer.spans if s.cat == "step"]
        assert len(step_spans) == len(metrics.steps)
        slack = 1e-9  # float accumulation across pause/resume marks
        assert sum(phase_seconds(registry).values()) <= (
            sum(s.duration for s in step_spans) + slack
        )
        assert registry.histograms["phase/schedule"].count == len(metrics.steps)

    def test_untraced_engine_records_no_phases(self):
        model = get_model("llama3-8b")
        from repro.baselines import make_manager

        manager = make_manager("jenga", model, 2 * GIB)
        engine = LLMEngine(model, H100, manager, config=SchedulerConfig())
        engine.add_requests(
            [Request.text("t0", token_block(0, "t", 0, 64), 4)]
        )
        metrics = engine.run()
        assert metrics.steps
        assert engine.observer is None and manager.observer is None
        assert not hasattr(metrics.steps[0], "phases")

    def test_traced_trace_exports_valid(self, tmp_path):
        engine, tracer = self._traced_engine()
        engine.run()
        engine.close()
        path = tmp_path / "engine_trace.json"
        write_chrome_trace(str(path), tracer)
        with open(path) as f:
            assert validate_chrome_trace(json.load(f)) > 0
