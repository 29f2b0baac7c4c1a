"""Tests for metric aggregation."""

import pytest

from repro.core.math_utils import percentile
from repro.engine.metrics import (
    EngineMetrics,
    MemorySnapshot,
    MetricsCollector,
    RequestMetrics,
    StepRecord,
)


def req(rid="r", arrival=0.0, first=1.0, finish=5.0, prompt=10, out=5, cached=0):
    return RequestMetrics(
        request_id=rid,
        arrival_time=arrival,
        first_token_time=first,
        finish_time=finish,
        prompt_len=prompt,
        output_len=out,
        cached_prompt_tokens=cached,
        num_preemptions=0,
    )


def step(i=0, start=0.0, dur=1.0, decode=2, prefill=0):
    return StepRecord(
        index=i, start_time=start, duration=dur, decode_batch=decode,
        prefill_tokens=prefill, num_running=decode, num_waiting=0,
        num_preemptions=0,
    )


class TestRequestMetrics:
    def test_ttft_e2el(self):
        r = req(arrival=2.0, first=3.5, finish=10.0)
        assert r.ttft == 1.5
        assert r.e2el == 8.0

    def test_tpot(self):
        r = req(first=1.0, finish=9.0, out=5)
        assert r.tpot == 2.0

    def test_tpot_single_token(self):
        assert req(out=1).tpot == 0.0


class TestEngineMetrics:
    def test_empty(self):
        m = EngineMetrics()
        assert m.makespan == 0.0
        assert m.token_throughput() == 0.0
        assert m.mean_ttft() == 0.0
        assert m.mean_decode_batch() == 0.0

    def test_makespan(self):
        m = EngineMetrics(steps=[step(0, 0.0, 1.0), step(1, 1.0, 2.5)])
        assert m.makespan == 3.5

    def test_throughputs(self):
        m = EngineMetrics(
            steps=[step(0, 0.0, 10.0)],
            requests=[req(prompt=10, out=5), req(prompt=20, out=5)],
        )
        assert m.total_output_tokens == 10
        assert m.output_throughput() == 1.0
        assert m.token_throughput() == 4.0
        assert m.request_throughput() == 0.2

    def test_mean_decode_batch_ignores_prefill_only_steps(self):
        m = EngineMetrics(steps=[step(decode=4), step(decode=0, prefill=100), step(decode=6)])
        assert m.mean_decode_batch() == 5.0
        assert m.decode_batch_timeline() == [4, 0, 6]

    def test_latency_means(self):
        m = EngineMetrics(requests=[req(first=1.0, finish=5.0), req(first=3.0, finish=7.0)])
        assert m.mean_ttft() == 2.0
        assert m.mean_e2el() == 6.0

    def test_p99(self):
        # Nearest-rank: the 99th of 100 ordered samples, not the maximum
        # (the old int(q*n) index was biased one rank high).
        rs = [req(first=float(i)) for i in range(100)]
        m = EngineMetrics(requests=rs)
        assert m.p99_ttft() == 98.0


class TestPercentile:
    def test_p99_of_100_is_not_the_max(self):
        values = [float(i) for i in range(100)]
        assert percentile(values, 0.99) == 98.0
        assert percentile(values, 1.0) == 99.0

    def test_p50_even_length_is_lower_median(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.0

    def test_p50_odd_length_is_exact_median(self):
        assert percentile([3.0, 1.0, 2.0], 0.5) == 2.0

    def test_extremes_and_unsorted_input(self):
        values = [5.0, 1.0, 3.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 1.0) == 5.0

    def test_empty_returns_zero(self):
        assert percentile([], 0.5) == 0.0

    def test_rejects_out_of_range_q(self):
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)
        with pytest.raises(ValueError):
            percentile([1.0], -0.1)


class TestMetricsCollector:
    """The collector is the engine's own tally object, not a subscriber.
    That an engine run needs no bus traffic, and that engines sharing a
    bus keep separate tallies, is pinned end to end in
    tests/test_events.py::TestEngineEvents."""

    class FakeManager:
        hit_tokens = 48
        lookup_tokens = 128

    def test_tallies_are_plain_state_written_by_the_owner(self):
        collector = MetricsCollector(self.FakeManager())
        collector.steps.append(step())
        collector.preemptions += 1
        assert len(collector.steps) == 1
        assert collector.preemptions == 1

    def test_prefix_tallies_are_the_managers_counters(self):
        manager = self.FakeManager()
        collector = MetricsCollector(manager)
        assert collector.prefix_hit_tokens == 48
        assert collector.prefix_lookup_tokens == 128
        manager.hit_tokens += 16  # a later lookup shows up with no event
        assert collector.prefix_hit_tokens == 64


class TestMemorySnapshot:
    def test_used_bytes(self):
        snap = MemorySnapshot(
            used_by_group={"a": 10, "b": 20}, evictable_bytes=5, waste_bytes=1,
            free_bytes=64,
        )
        assert snap.used_bytes == 30
