"""PressureMonitor: the pressure view of the telemetry fold, engine
integration, guarded reports."""

import pytest

from repro.baselines import make_manager
from repro.engine import LLMEngine, Request, SchedulerConfig
from repro.engine.metrics import MemorySnapshot, StepRecord
from repro.engine.scheduler import profile_config
from repro.models import GIB, get_model
from repro.obs import BusTelemetry, PressureMonitor, TelemetryRegistry
from repro.platforms import H100
from repro.workloads import token_block

from .recording import RecordingObserver
from .test_telemetry import pool_totals

MODEL = get_model("llama3.2-1b")


def step(fold, index=0, t=1.0, memory=None):
    """Report one engine step ending at ``t`` to ``fold``."""
    record = StepRecord(
        index=index, start_time=t, duration=0.01, decode_batch=1,
        prefill_tokens=0, num_running=1, num_waiting=0, num_preemptions=0,
        memory=memory,
    )
    fold.step_completed(t, record)


def fold_with_pressure(registry=None):
    """The telemetry observer with its pressure view attached."""
    fold = BusTelemetry(registry)
    fold.pressure = PressureMonitor(fold)
    return fold


class TestPressureMonitorUnit:
    def test_admission_blocks_feed_counter_and_rate(self):
        fold = fold_with_pressure()
        monitor = fold.pressure
        fold.admission_blocked("r0", 1.0, 3, 2)
        fold.admission_blocked("r0", 1.1, 4, 2)
        step(fold, t=1.2)
        reg = monitor.registry
        assert reg.counters["pressure/admission_blocked"] == 2
        assert reg.gauges["pressure/queue_depth"] == 4.0
        assert reg.gauges["pressure/blocked_rate"] > 0.0
        assert monitor.score > 0.0
        assert reg.gauges["pressure/score"] == monitor.score

    def test_per_group_eviction_rates(self):
        fold = fold_with_pressure()
        monitor = fold.pressure
        # Three step-5 victims of "full", one step-3 victim "win" owned;
        # "other" has evicted nothing and gets no gauge.
        fold.allocator = pool = pool_totals(
            step_pages=(0, 0, 0, 1, 0, 3), victims={"full": 3, "win": 1, "other": 0},
        )
        step(fold)
        reg = monitor.registry
        assert reg.counters["evict/small"] + reg.counters["evict/large"] == 4
        assert reg.counters["evict/group/full"] == 3
        assert reg.counters["evict/group/win"] == 1
        assert reg.gauges["pressure/eviction_rate"] == 0.2 * 4
        assert (reg.gauges["pressure/group/full/eviction_rate"]
                > reg.gauges["pressure/group/win/eviction_rate"] > 0.0)
        assert "pressure/group/other/eviction_rate" not in reg.gauges
        # A quiet step: the totals stand still, so every rate decays.
        rate = reg.gauges["pressure/group/full/eviction_rate"]
        step(fold, index=1, t=2.0)
        assert reg.gauges["pressure/group/full/eviction_rate"] == pytest.approx(0.8 * rate)
        assert reg.gauges["pressure/eviction_rate"] == pytest.approx(0.8 * 0.2 * 4)
        # "other" evicts: its gauge appears, fed by this step's delta.
        pool.step_pages[5] += 1
        pool.victims["other"] += 1
        step(fold, index=2, t=3.0)
        assert reg.gauges["pressure/group/other/eviction_rate"] == 0.2

    def test_rates_decay_over_quiet_steps(self):
        fold = fold_with_pressure()
        monitor = fold.pressure
        fold.admission_blocked("r0", 1.0, 1, 1)
        step(fold, index=0, t=1.0)
        busy = monitor.registry.gauges["pressure/blocked_rate"]
        for i in range(1, 20):
            step(fold, index=i, t=1.0 + i)
        quiet = monitor.registry.gauges["pressure/blocked_rate"]
        assert 0.0 < quiet < busy

    def test_memory_snapshot_feeds_waste_and_occupancy(self):
        fold = fold_with_pressure()
        monitor = fold.pressure
        memory = MemorySnapshot(
            used_by_group={"g": 6000}, evictable_bytes=1000,
            waste_bytes=1000, free_bytes=2000,
        )
        step(fold, memory=memory)
        reg = monitor.registry
        assert reg.gauges["pressure/waste_frac"] == 0.1
        # occupancy excludes free + evictable (reclaimable headroom)
        assert reg.gauges["pressure/occupancy"] == 0.7
        assert monitor.score == 0.7  # occupancy dominates with no blocks
        timeline = reg.timelines["pressure/score"]
        assert timeline.last == (1.0, 0.7)

    def test_preemptions_feed_score(self):
        fold = fold_with_pressure()
        monitor = fold.pressure
        for _ in range(10):
            fold.request_preempted("r0", 1.0, "victim")
        step(fold)
        reg = monitor.registry
        assert reg.counters["preempt/victim"] == 10
        assert reg.gauges["pressure/preemption_rate"] == 0.2 * 10
        assert 0.0 < monitor.score <= 1.0

    def test_score_clipped_to_one(self):
        fold = fold_with_pressure()
        for i in range(50):
            for _ in range(20):
                fold.admission_blocked("r", float(i), 1, 1)
            step(fold, index=i, t=float(i))
        assert fold.pressure.score == 1.0

    def test_view_shares_the_folds_registry(self):
        reg = TelemetryRegistry()
        monitor = fold_with_pressure(registry=reg).pressure
        assert monitor.registry is reg

    def test_view_ignores_counts_older_than_itself(self):
        fold = BusTelemetry()
        for _ in range(5):
            fold.admission_blocked("r0", 1.0, 1, 1)
        monitor = fold.pressure = PressureMonitor(fold)
        step(fold)
        assert monitor.registry.gauges["pressure/blocked_rate"] == 0.0


class TestEngineEmission:
    def _pressured_engine(self, observer):
        # ~96 MiB with ~42 MiB per request: roughly two fit, the rest of
        # the waiting queue blocks at admission.
        manager = make_manager("jenga", MODEL, 96 * 1024 * 1024)
        return LLMEngine(
            MODEL, H100, manager,
            config=profile_config("vllm", record_memory=True), observer=observer,
        )

    def _requests(self, n=12):
        return [
            Request.text(f"p{i}", token_block(0, "press", i, 300), 32)
            for i in range(n)
        ]

    def test_blocked_admission_emits_event(self):
        fold = fold_with_pressure()
        engine = self._pressured_engine(fold)
        engine.add_requests(self._requests())
        metrics = engine.run(max_steps=20_000)
        assert len(metrics.requests) == 12
        reg = fold.registry
        assert reg.counters["pressure/admission_blocked"] > 0
        recorded = RecordingObserver()
        again = self._pressured_engine(recorded)
        again.add_requests(self._requests())
        again.run(max_steps=20_000)
        assert recorded.counts["AdmissionBlocked"] == (
            reg.counters["pressure/admission_blocked"]
        )
        # record_memory=True populated the waste/occupancy gauges too.
        assert "pressure/occupancy" in reg.gauges
        assert len(reg.timelines["pressure/score"].points) > 0

    def test_no_subscriber_means_no_event_constructed(self):
        # No observer: the engine binds none anywhere, so every report
        # site (blocked admissions included) is skipped, and the run is
        # the observed one.
        engine = self._pressured_engine(None)
        assert engine.observer is None and engine.manager.observer is None
        engine.add_requests(self._requests())
        bare = engine.run(max_steps=20_000)
        observed = self._pressured_engine(fold_with_pressure())
        observed.add_requests(self._requests())
        assert len(observed.run(max_steps=20_000).steps) == len(bare.steps)
        assert observed.observer.registry.counters["pressure/admission_blocked"] > 0

    def test_gate_suppresses_redundant_block_events(self):
        # The AdmissionGate memo skips provably redundant re-probes, so
        # blocked events must be far rarer than engine steps.
        fold = fold_with_pressure()
        engine = self._pressured_engine(fold)
        engine.add_requests(self._requests())
        metrics = engine.run(max_steps=20_000)
        blocked = fold.registry.counters["pressure/admission_blocked"]
        assert 0 < blocked < len(metrics.steps)

    def test_vision_embedding_refusal_is_a_blocked_admission(self):
        """A head request whose text pages fit but whose vision-embedding
        pages do not stalls the queue exactly like a failed can_admit, so
        it reports the same blocked admission (it used to release and
        break silently)."""
        model = get_model("llava-onevision-7b")
        manager = make_manager("jenga", model, 4 * GIB, enable_prefix_caching=False)
        fold = fold_with_pressure()
        blocked = []
        engine = LLMEngine(
            model, H100, manager, observer=fold,
            config=SchedulerConfig(max_num_batched_tokens=1024),
        )
        engine.events.subscribe(blocked.append)
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
        assert [ev.request_id for ev in blocked] == ["v1"]
        assert fold.registry.counters["pressure/admission_blocked"] == 1
