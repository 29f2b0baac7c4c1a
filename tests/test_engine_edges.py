"""Engine edge cases and failure-injection tests."""

import pytest

from repro.baselines import make_manager
from repro.engine import LLMEngine, Request, SchedulerConfig
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
        r.horizon, r.quiet_time = 16, 2.5
        r.reset_for_recompute()
        assert r.num_computed_tokens == 0
        assert not r.encoder_done
        # The released pages' horizon and quiet-decode time are void.
        assert r.horizon == 0 and r.quiet_time == 0.0
        assert r.num_preemptions == 1
        assert r.state is RequestState.WAITING

    def test_image_helpers(self):
        r = Request.multimodal(
            "r", [("text", [1, 2]), ("image", [3, 4, 5]), ("text", [6])], 4
        )
        assert r.seq.stream_length(frozenset({"image"})) == 3
        assert r.seq.stream_length(frozenset({"text"})) == 3
        assert r.seq.image_spans == [(2, 5)]


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
    @pytest.mark.parametrize("limit", ["max_num_seqs", "max_num_batched_tokens"])
    def test_a_limit_below_one_is_rejected(self, limit):
        """Either limit at 0 would strand every request: none admitted, or
        none ever scheduled a token."""
        with pytest.raises(ValueError):
            SchedulerConfig(**{limit: 0})
        with pytest.raises(ValueError):
            SchedulerConfig().with_(**{limit: -1})
        assert getattr(SchedulerConfig().with_(**{limit: 1}), limit) == 1

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


class TestTerminalStates:
    """A drained run ends every submitted request exactly once, finished or
    failed, at every scope that drives engines."""

    MODEL = get_model("llama3.2-1b")  # 32 KiB of KV per token

    def requests(self, tag, n=10):
        """Short prompts plus two (``big*``) that no 16 MiB pool can hold,
        spread over arrivals so failures land between finishes."""
        out = []
        for i in range(n):
            tokens = 2048 if i in (3, 7) else 96 + 16 * i
            rid = f"{tag}big{i}" if i in (3, 7) else f"{tag}{i}"
            out.append(Request.text(rid, token_block(0, tag, i, tokens), 8,
                                    arrival_time=0.05 * i))
        return out

    @staticmethod
    def assert_drained(engines, submitted):
        ended = [m.request_id for e in engines for m in e.finished]
        ended += [r.request_id for e in engines for r in e.failed]
        assert sorted(ended) == sorted(r.request_id for r in submitted)
        failed = {r.request_id for e in engines for r in e.failed}
        assert failed and all("big" in rid for rid in failed)
        for engine in engines:
            assert not engine.waiting and not engine.running

    def test_every_request_ends_exactly_once(self):
        from repro.serving import ServingCluster

        pool = 16 * 1024 * 1024
        config = SchedulerConfig(max_num_seqs=4)

        engine = LLMEngine(self.MODEL, H100, make_manager("jenga", self.MODEL, pool),
                           config=config)
        submitted = self.requests("e")
        engine.add_requests(submitted)
        engine.run()
        self.assert_drained([engine], submitted)

        cluster = ServingCluster.build(self.MODEL, H100, pool, 2, config=config)
        submitted = self.requests("c", n=16)
        cluster.submit(submitted)
        cluster.run()
        assert cluster.num_dispatched == len(submitted)
        self.assert_drained([r.engine for r in cluster.replicas], submitted)
