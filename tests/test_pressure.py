"""PressureMonitor: the pressure view of the bus fold, engine integration,
guarded emission."""

from repro.baselines import make_manager
from repro.core.events import (
    AdmissionBlocked,
    EventBus,
    PageEvicted,
    RequestPreempted,
    StepCompleted,
)
from repro.engine import LLMEngine, Request, SchedulerConfig
from repro.engine.metrics import MemorySnapshot, StepRecord
from repro.engine.scheduler import profile_config
from repro.models import GIB, get_model
from repro.obs import BusTelemetry, PressureMonitor, TelemetryRegistry
from repro.platforms import H100
from repro.workloads import token_block

MODEL = get_model("llama3.2-1b")


def step_event(index=0, t=1.0, memory=None):
    record = StepRecord(
        index=index, start_time=t, duration=0.01, decode_batch=1,
        prefill_tokens=0, num_running=1, num_waiting=0, num_preemptions=0,
        memory=memory,
    )
    return StepCompleted(index=index, time=t, num_preemptions=0, record=record)


def fold_with_pressure(bus, registry=None):
    """The one bus subscriber with its pressure view attached."""
    fold = BusTelemetry(bus, registry)
    fold.pressure = PressureMonitor(fold)
    return fold.pressure


class TestPressureMonitorUnit:
    def test_admission_blocks_feed_counter_and_rate(self):
        bus = EventBus(capacity=0)
        monitor = fold_with_pressure(bus)
        assert bus.has_subscribers(AdmissionBlocked)
        bus.emit(AdmissionBlocked("r0", 1.0, queue_depth=3, num_running=2))
        bus.emit(AdmissionBlocked("r0", 1.1, queue_depth=4, num_running=2))
        bus.emit(step_event(t=1.2))
        reg = monitor.registry
        assert reg.counters["pressure/admission_blocked"] == 2
        assert reg.gauges["pressure/queue_depth"] == 4.0
        assert reg.gauges["pressure/blocked_rate"] > 0.0
        assert monitor.score > 0.0
        assert reg.gauges["pressure/score"] == monitor.score

    def test_per_group_eviction_rates(self):
        bus = EventBus(capacity=0)
        monitor = fold_with_pressure(bus)
        for _ in range(3):
            bus.emit(PageEvicted("full", 1, "small"))
        bus.emit(PageEvicted("win", 2, "large"))
        bus.emit(step_event())
        reg = monitor.registry
        assert reg.counters["evict/small"] + reg.counters["evict/large"] == 4
        assert reg.counters["evict/group/full"] == 3
        assert reg.counters["evict/group/win"] == 1
        assert reg.gauges["pressure/eviction_rate"] == 0.2 * 4
        assert (reg.gauges["pressure/group/full/eviction_rate"]
                > reg.gauges["pressure/group/win/eviction_rate"] > 0.0)

    def test_rates_decay_over_quiet_steps(self):
        bus = EventBus(capacity=0)
        monitor = fold_with_pressure(bus)
        bus.emit(AdmissionBlocked("r0", 1.0, queue_depth=1, num_running=1))
        bus.emit(step_event(index=0, t=1.0))
        busy = monitor.registry.gauges["pressure/blocked_rate"]
        for i in range(1, 20):
            bus.emit(step_event(index=i, t=1.0 + i))
        quiet = monitor.registry.gauges["pressure/blocked_rate"]
        assert 0.0 < quiet < busy

    def test_memory_snapshot_feeds_waste_and_occupancy(self):
        bus = EventBus(capacity=0)
        monitor = fold_with_pressure(bus)
        memory = MemorySnapshot(
            used_by_group={"g": 6000}, evictable_bytes=1000,
            waste_bytes=1000, free_bytes=2000,
        )
        bus.emit(step_event(memory=memory))
        reg = monitor.registry
        assert reg.gauges["pressure/waste_frac"] == 0.1
        # occupancy excludes free + evictable (reclaimable headroom)
        assert reg.gauges["pressure/occupancy"] == 0.7
        assert monitor.score == 0.7  # occupancy dominates with no blocks
        timeline = reg.timelines["pressure/score"]
        assert timeline.last == (1.0, 0.7)

    def test_preemptions_feed_score(self):
        bus = EventBus(capacity=0)
        monitor = fold_with_pressure(bus)
        for _ in range(10):
            bus.emit(RequestPreempted("r0", 1.0))
        bus.emit(step_event())
        reg = monitor.registry
        assert reg.counters["preempt/victim"] == 10
        assert reg.gauges["pressure/preemption_rate"] == 0.2 * 10
        assert 0.0 < monitor.score <= 1.0

    def test_score_clipped_to_one(self):
        bus = EventBus(capacity=0)
        monitor = fold_with_pressure(bus)
        for i in range(50):
            for _ in range(20):
                bus.emit(AdmissionBlocked("r", float(i), 1, 1))
            bus.emit(step_event(index=i, t=float(i)))
        assert monitor.score == 1.0

    def test_closing_the_fold_freezes_the_view(self):
        bus = EventBus(capacity=0)
        fold = BusTelemetry(bus)
        monitor = fold.pressure = PressureMonitor(fold)
        bus.emit(AdmissionBlocked("r0", 1.0, 1, 1))
        fold.close()
        fold.close()
        assert not bus.has_subscribers(AdmissionBlocked)
        bus.emit(AdmissionBlocked("r1", 2.0, 1, 1))  # goes nowhere
        bus.emit(step_event())
        assert monitor.registry.counters["pressure/admission_blocked"] == 1
        assert monitor.score == 0.0  # never ticked after close

    def test_view_shares_the_folds_registry(self):
        reg = TelemetryRegistry()
        monitor = fold_with_pressure(EventBus(capacity=0), registry=reg)
        assert monitor.registry is reg

    def test_view_ignores_counts_older_than_itself(self):
        bus = EventBus(capacity=0)
        fold = BusTelemetry(bus)
        for _ in range(5):
            bus.emit(AdmissionBlocked("r0", 1.0, 1, 1))
        monitor = fold.pressure = PressureMonitor(fold)
        bus.emit(step_event())
        assert monitor.registry.gauges["pressure/blocked_rate"] == 0.0


class TestEngineEmission:
    def _pressured_engine(self, events):
        # ~96 MiB with ~42 MiB per request: roughly two fit, the rest of
        # the waiting queue blocks at admission.
        manager = make_manager("jenga", MODEL, 96 * 1024 * 1024)
        return LLMEngine(
            MODEL, H100, manager,
            config=profile_config("vllm", record_memory=True), events=events,
        )

    def _requests(self, n=12):
        return [
            Request.text(f"p{i}", token_block(0, "press", i, 300), 32)
            for i in range(n)
        ]

    def test_blocked_admission_emits_event(self):
        bus = EventBus(capacity=0)
        monitor = fold_with_pressure(bus)
        engine = self._pressured_engine(bus)
        engine.add_requests(self._requests())
        metrics = engine.run(max_steps=20_000)
        assert len(metrics.requests) == 12
        reg = monitor.registry
        assert reg.counters["pressure/admission_blocked"] > 0
        assert bus.counts["AdmissionBlocked"] == (
            reg.counters["pressure/admission_blocked"]
        )
        # record_memory=True populated the waste/occupancy gauges too.
        assert "pressure/occupancy" in reg.gauges
        assert len(reg.timelines["pressure/score"].points) > 0

    def test_no_subscriber_means_no_event_constructed(self):
        bus = EventBus(capacity=0)  # pure dispatch, nobody listening
        engine = self._pressured_engine(bus)
        engine.add_requests(self._requests())
        engine.run(max_steps=20_000)
        assert bus.counts.get("AdmissionBlocked", 0) == 0

    def test_gate_suppresses_redundant_block_events(self):
        # The AdmissionGate memo skips provably redundant re-probes, so
        # blocked events must be far rarer than engine steps.
        bus = EventBus(capacity=0)
        monitor = fold_with_pressure(bus)
        engine = self._pressured_engine(bus)
        engine.add_requests(self._requests())
        metrics = engine.run(max_steps=20_000)
        blocked = monitor.registry.counters["pressure/admission_blocked"]
        assert 0 < blocked < len(metrics.steps)

    def test_vision_embedding_refusal_is_a_blocked_admission(self):
        """A head request whose text pages fit but whose vision-embedding
        pages do not stalls the queue exactly like a failed can_admit, so
        it publishes the same AdmissionBlocked record (it used to release
        and break silently)."""
        model = get_model("llava-onevision-7b")
        manager = make_manager("jenga", model, 4 * GIB, enable_prefix_caching=False)
        bus = EventBus(capacity=0)
        monitor = fold_with_pressure(bus)
        engine = LLMEngine(
            model, H100, manager, events=bus,
            config=SchedulerConfig(max_num_batched_tokens=1024),
        )
        real, refused = manager.allocate_vision, []

        def refuse_v1_once(seq):
            # As if the embedding group were full while v0 still runs.
            if seq.request_id == "v1" and engine.running and not refused:
                refused.append(seq.request_id)
                return False
            return real(seq)

        manager.allocate_vision = refuse_v1_once
        per_image = model.vision.tokens_per_image
        engine.add_requests([
            Request.multimodal(
                rid,
                [("image", token_block(0, rid, 0, per_image)),
                 ("text", token_block(0, rid + "q", 0, 64))],
                max_output_tokens=8,
            )
            for rid in ("v0", "v1")
        ])
        metrics = engine.run(max_steps=20_000)
        assert len(metrics.requests) == 2 and refused == ["v1"]
        assert bus.counts["AdmissionBlocked"] == 1
        assert monitor.registry.counters["pressure/admission_blocked"] == 1
