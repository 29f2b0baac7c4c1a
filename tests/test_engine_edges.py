"""Engine edge cases and failure-injection tests."""

import pytest

from repro.baselines import make_manager
from repro.engine import LLMEngine, Request, SchedulerConfig
from repro.engine.multi_model import MultiModelEngine
from repro.engine.request import RequestState, generated_token
from repro.models import GIB, get_model
from repro.platforms import H100
from repro.workloads import token_block


def make_engine(kv=GIB, system="jenga", caching=True, **cfg):
    model = get_model("llama3-8b")
    mgr = make_manager(system, model, kv, enable_prefix_caching=caching)
    return LLMEngine(model, H100, mgr, config=SchedulerConfig(**cfg))


class TestRequestObject:
    def test_generated_tokens_deterministic_and_distinct(self):
        assert generated_token("r1", 0) == generated_token("r1", 0)
        assert generated_token("r1", 0) != generated_token("r1", 1)
        assert generated_token("r1", 0) != generated_token("r2", 0)

    def test_reset_for_recompute(self):
        r = Request.text("r", [1, 2, 3], 4)
        r.num_computed_tokens = 3
        r.encoder_done = True
        r.reset_for_recompute()
        assert r.num_computed_tokens == 0
        assert not r.encoder_done
        assert r.num_preemptions == 1
        assert r.state is RequestState.WAITING

    def test_image_helpers(self):
        r = Request.multimodal(
            "r", [("text", [1, 2]), ("image", [3, 4, 5]), ("text", [6])], 4
        )
        assert r.num_image_tokens() == 3
        assert r.num_text_tokens() == 3
        assert r.images_in_range(0, 3) == 1
        assert r.images_in_range(5, 6) == 0


class TestEngineEdges:
    def test_empty_engine_run(self):
        eng = make_engine()
        m = eng.run()
        assert not m.steps and not m.requests

    def test_single_token_output(self):
        eng = make_engine()
        eng.add_request(Request.text("r", token_block(0, "e", 0, 32), 1))
        m = eng.run()
        assert m.requests[0].output_len == 1
        assert m.requests[0].tpot == 0.0

    def test_one_token_prompt(self):
        eng = make_engine()
        eng.add_request(Request.text("r", [42], 3))
        m = eng.run()
        assert m.requests[0].output_len == 3

    def test_max_steps_cap(self):
        eng = make_engine(max_num_batched_tokens=16)
        eng.add_request(Request.text("r", token_block(0, "e", 1, 4096), 4))
        m = eng.run(max_steps=3)
        assert len(m.steps) == 3
        assert not m.requests  # still prefilling

    def test_record_memory_snapshots(self):
        eng = make_engine(record_memory=True)
        eng.add_request(Request.text("r", token_block(0, "e", 2, 128), 4))
        m = eng.run()
        assert all(s.memory is not None for s in m.steps)
        assert any(s.memory.used_bytes > 0 for s in m.steps)

    def test_memory_fully_released_after_run_without_caching(self):
        eng = make_engine(caching=False)
        eng.add_requests(
            [Request.text(f"r{i}", token_block(0, "e", i, 300), 8) for i in range(6)]
        )
        eng.run()
        stats = eng.manager.stats()
        assert stats.used_bytes == 0
        assert stats.evictable_bytes == 0
        assert stats.free_bytes + stats.slack_bytes == stats.total_bytes

    def test_failed_request_releases_memory(self):
        eng = make_engine(kv=64 * 1024 * 1024, caching=False)
        eng.add_request(Request.text("big", token_block(0, "e", 3, 100_000), 4))
        eng.add_request(Request.text("ok", token_block(0, "e", 4, 64), 4))
        m = eng.run(max_steps=2000)
        assert [r.request_id for r in eng.failed] == ["big"]
        assert [r.request_id for r in m.requests] == ["ok"]

    def test_failure_at_idle_clock_jump_does_not_strand_later_arrivals(self):
        # The idle engine jumps its clock to "big", which can never fit;
        # it must keep jumping to the arrivals behind it instead of
        # reporting idle with two requests still queued.
        model = get_model("gemma2-9b")
        mgr = make_manager("jenga", model, 64 * 1024 * 1024)
        eng = LLMEngine(model, H100, mgr, config=SchedulerConfig())
        eng.add_request(Request.text("big", token_block(0, "e", 0, 4000), 4,
                                     arrival_time=1.0))
        eng.add_request(Request.text("a", token_block(0, "e", 1, 32), 4,
                                     arrival_time=5.0))
        eng.add_request(Request.text("b", token_block(0, "e", 2, 32), 4,
                                     arrival_time=9.0))
        m = eng.run()
        assert [r.request_id for r in eng.failed] == ["big"]
        assert sorted(r.request_id for r in m.requests) == ["a", "b"]
        assert not eng.waiting and not eng.running
        assert len(eng.finished) + len(eng.failed) == 3  # submitted

    def test_interleaved_arrivals_and_finishes(self):
        eng = make_engine()
        for i in range(10):
            eng.add_request(
                Request.text(f"r{i}", token_block(0, "e", 10 + i, 64), 8,
                             arrival_time=float(i * 3))
            )
        m = eng.run()
        assert len(m.requests) == 10
        for r in m.requests:
            assert r.first_token_time >= r.arrival_time

    def test_zero_waiting_idle_step_returns_none(self):
        eng = make_engine()
        assert eng.step() is None


class TestSchedulerInvariants:
    def test_budget_never_exceeded(self):
        eng = make_engine(max_num_batched_tokens=512)
        eng.add_requests(
            [Request.text(f"r{i}", token_block(0, "b", i, 700), 16) for i in range(8)]
        )
        m = eng.run()
        for s in m.steps:
            assert s.prefill_tokens + s.decode_batch <= 512

    def test_max_num_seqs_respected(self):
        eng = make_engine(max_num_seqs=3)
        eng.add_requests(
            [Request.text(f"r{i}", token_block(0, "c", i, 64), 32) for i in range(9)]
        )
        m = eng.run()
        assert max(s.num_running for s in m.steps) <= 3

    def test_clock_monotone(self):
        eng = make_engine()
        eng.add_requests(
            [Request.text(f"r{i}", token_block(0, "d", i, 128), 8,
                          arrival_time=float(i * 7)) for i in range(5)]
        )
        m = eng.run()
        starts = [s.start_time for s in m.steps]
        assert starts == sorted(starts)


class TestMultiModelEdges:
    def test_single_deployment_behaves_like_plain_engine(self):
        model = get_model("llama3-8b")
        multi = MultiModelEngine({"only": model}, H100, GIB,
                                 enable_prefix_caching=False)
        multi.add_requests(
            "only",
            [Request.text(f"r{i}", token_block(0, "m", i, 128), 8) for i in range(4)],
        )
        metrics = multi.run()["only"]

        plain = make_engine(kv=GIB, caching=False)
        plain.add_requests(
            [Request.text(f"r{i}", token_block(0, "m", i, 128), 8) for i in range(4)]
        )
        plain_metrics = plain.run()
        # Same steps, same makespan (the shared pool adds no overhead; the
        # LCM of one model's groups is its own page size).
        assert len(metrics.steps) == len(plain_metrics.steps)
        assert metrics.makespan == pytest.approx(plain_metrics.makespan)
