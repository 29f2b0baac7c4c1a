"""Tests for the stack's observer reports (the §5.4 traces included)."""

import inspect

from repro.core.events import Fanout, Observer
from repro.core.kv_manager import JengaKVCacheManager
from repro.core.layer_policy import FULL_ATTENTION, GroupSpec
from repro.baselines import SYSTEMS, make_manager
from repro.core.sequence import IMAGE, TEXT, SequenceSpec
from repro.engine import LLMEngine, Request, SchedulerConfig
from repro.engine.metrics import StepRecord
from repro.models import get_model
from repro.obs.pressure import PressureMonitor
from repro.obs.registry import BusTelemetry
from repro.obs.tracer import Tracer
from repro.platforms import H100
from repro.workloads import token_block

from .recording import (
    RECORDS,
    AdmissionBlocked,
    PrefixHit,
    RecordingObserver,
    RequestAdmitted,
    RequestFinished,
    StepCompleted,
)

T = frozenset({TEXT})
I = frozenset({IMAGE})


class TestObserver:
    def test_every_observer_method_has_a_record(self):
        methods = {name for name in vars(Observer) if not name.startswith("_")}
        assert methods == set(RECORDS) | {"step_completed"}


def five_step_manager():
    """Two groups whose LCM page holds two text pages.

    ``full`` (text, 16 B/token, 4 tokens/page -> 64 B pages) shares the pool
    with ``img`` (image-only, 32 B/token -> 128 B pages), so a large page is
    lcm(64, 128) = 128 B = two ``full`` pages.  Total is five large pages.
    """
    specs = {
        "full": GroupSpec("full", FULL_ATTENTION, 2, 16, tokens_per_page=4,
                          accepted_tags=T),
        "img": GroupSpec("img", FULL_ATTENTION, 2, 32, tokens_per_page=4,
                         accepted_tags=I),
    }
    return JengaKVCacheManager(specs, 5 * 128, enable_prefix_caching=True)


def prefill(mgr, seq, now):
    assert mgr.allocate_up_to(seq, len(seq))
    mgr.commit(seq, len(seq), now=now, phase="prefill")


class TestFiveStepTrace:
    """Drive one request through every §5.4 allocation step, in order.

    The §5.4 algorithm tries, in order: (1) a request-associated empty
    small page, (2) carving a fresh large page, (3) evicting the LRU
    fully-evictable large page, (4) any empty small page, (5) evicting an
    evictable small page.  The prelude below stages the pool so that
    growing request A one page at a time exercises them as
    [1, 2, 1, 3, 1, 4, 5]: every odd growth first drains the second slot
    of A's own most recent large page (step 1), and the fallbacks fire in
    §5.4 order as the staged resources run out.  The pool's per-step page
    totals say which step served each growth.
    """

    def stage(self):
        mgr = five_step_manager()
        mgr.bind_observer(RecordingObserver())

        # C carves large page #1; its second slot stays EMPTY and
        # C-associated (step-4 fodder: empty but not A's).
        c = SequenceSpec.text_only("C", list(range(1000, 1004)))
        assert mgr.begin_request(c) == 0
        prefill(mgr, c, now=0.5)

        # B fills large page #2 with two hashed pages, then leaves.
        b = SequenceSpec.text_only("B", list(range(2000, 2008)))
        mgr.begin_request(b)
        prefill(mgr, b, now=1.0)
        mgr.release(b, cacheable=True)

        # E re-acquires B's first block, so large page #2 is mixed
        # USED/EVICTABLE: its evictable half is step-5 fodder, and the
        # mixed page can never be evicted wholesale at step 3.
        e = SequenceSpec.text_only("E", list(range(2000, 2004)) + list(range(3000, 3004)))
        assert mgr.begin_request(e) == 4

        # F fills large page #3 and leaves entirely: fully evictable
        # (step-3 fodder).
        f = SequenceSpec.text_only("F", list(range(4000, 4008)))
        mgr.begin_request(f)
        prefill(mgr, f, now=2.0)
        mgr.release(f, cacheable=True)

        # A starts with one page, carving large page #4; large page #5
        # stays free (step-2 fodder).
        a = SequenceSpec.text_only("A", list(range(5000, 5004)))
        mgr.begin_request(a)
        assert mgr.allocate_up_to(a, 4)
        return mgr, a

    def test_allocation_steps_fire_in_paper_order(self):
        mgr, a = self.stage()
        pool = mgr.allocator
        victims, aligned = dict(pool.victims), pool.aligned_victims

        steps = []
        for _ in range(7):  # grow A one "full" page per call
            before = list(pool.step_pages)
            a.extend(range(len(a), len(a) + 4))
            assert mgr.allocate_up_to(a, len(a))
            served = [after - was for was, after in zip(before, pool.step_pages)]
            assert sum(served) == 1  # one page per call, by one step
            steps.append(served.index(1))
        assert steps == [1, 2, 1, 3, 1, 4, 5]

        # First occurrences walk the algorithm top to bottom.
        first_seen = list(dict.fromkeys(steps))
        assert first_seen == [1, 2, 3, 4, 5]

        # Both victims were "full" pages, each holding a non-zero prefix
        # length (aligned): F's large page (step 3), then B's evictable
        # second page (step 5).
        assert pool.victims == {"full": victims["full"] + 2, "img": victims["img"]}
        assert pool.aligned_victims == aligned + 2

    def test_prefix_hits_and_releases_are_emitted(self):
        mgr, a = self.stage()
        hits = mgr.observer.recent(PrefixHit)
        by_request = {ev.request_id: ev for ev in hits}
        assert by_request["E"].hit_tokens == 4
        assert by_request["E"].lookup_tokens == 8
        assert by_request["A"].hit_tokens == 0
        # B's and F's two pages each were released into the cache.
        assert mgr.allocator.cached_releases == 4


class TestEngineEvents:
    def test_request_lifecycle_events(self):
        model = get_model("llama3-8b")
        mgr = JengaKVCacheManager(model.kv_groups(), 2 << 30)
        seen = RecordingObserver()
        eng = LLMEngine(model, H100, mgr, config=SchedulerConfig(), observer=seen)
        eng.add_requests([
            Request.text(f"r{i}", token_block(0, "r", i, 64), 4)
            for i in range(3)
        ])
        metrics = eng.run()

        assert seen.counts["RequestQueued"] == 3
        assert seen.counts["RequestAdmitted"] == 3
        assert seen.counts["RequestFinished"] == 3
        assert seen.counts["StepCompleted"] == len(metrics.steps)
        admitted = {ev.request_id for ev in seen.recent(RequestAdmitted)}
        finished = {ev.request_id for ev in seen.recent(RequestFinished)}
        assert admitted == finished == {"r0", "r1", "r2"}

    def test_manager_events_flow_to_engine_bus(self):
        model = get_model("llama3-8b")
        mgr = JengaKVCacheManager(model.kv_groups(), 2 << 30)
        assert mgr.observer is None
        seen = RecordingObserver()
        eng = LLMEngine(model, H100, mgr, config=SchedulerConfig(), observer=seen)
        # The engine binds its observer on the queue and the manager.
        assert eng.observer is seen and eng.waiting.observer is seen
        assert mgr.observer is seen
        eng.add_requests([Request.text("r0", token_block(0, "r", 0, 64), 2)])
        eng.run()
        assert seen.counts["PrefixHit"] == 1
        assert seen.counts["StepCompleted"] == len(eng.steps)

    def test_run_record_matches_what_the_bus_saw(self):
        model = get_model("llama3-8b")
        mgr = JengaKVCacheManager(model.kv_groups(), 2 << 30)
        seen = RecordingObserver()
        eng = LLMEngine(model, H100, mgr, config=SchedulerConfig(), observer=seen)
        eng.add_requests([
            Request.text(f"r{i}", token_block(0, "same", 0, 128), 4,
                         arrival_time=i * 100.0)  # r1 arrives after r0 ends
            for i in range(2)
        ])
        metrics = eng.run()
        records = [ev.record for ev in seen.recent(StepCompleted)]
        assert records == metrics.steps
        # The second request's prompt hits the first one's cached prefix.
        assert metrics.prefix_lookup_tokens >= 2 * 128
        assert metrics.prefix_hit_tokens > 0

    @staticmethod
    def pressured_engine(observer=None):
        """12 x 640-token prompts on 192 MiB: blocked admissions, cache
        evictions and preemptions all occur."""
        model = get_model("llama3-8b")
        mgr = JengaKVCacheManager(model.kv_groups(), 192 * 1024 * 1024)
        eng = LLMEngine(model, H100, mgr,
                        config=SchedulerConfig(max_num_seqs=4), observer=observer)
        eng.add_requests([
            Request.text(f"r{i}", token_block(0, "r", i, 640), 24)
            for i in range(12)
        ])
        return eng

    def test_default_engine_constructs_no_page_event(self):
        """An engine built without an observer leaves the queue and the
        manager with none, for every registered manager system, so every
        report site is skipped and no record of any kind is built; the
        allocator has no observer seat at all.  The results are the
        engine's own run record."""
        model = get_model("llama3-8b")
        for system in SYSTEMS:
            mgr = make_manager(system, model, 192 * 1024 * 1024)
            eng = LLMEngine(model, H100, mgr, config=SchedulerConfig(max_num_seqs=4))
            assert eng.observer is None and eng.waiting.observer is None, system
            assert mgr.observer is None, system
            assert not hasattr(mgr.allocator, "observer"), system
        eng = self.pressured_engine()
        metrics = eng.run(max_steps=20_000)
        assert len(metrics.requests) == 12
        assert eng.manager.allocator.num_large_evictions > 0
        assert metrics.preemptions > 0 and len(metrics.steps) > 0

    def test_events_subscribe_counts_what_telemetry_counts(self):
        """``engine.events.subscribe(fn, [AdmissionBlocked])`` (the e2e
        harness's one subscription) hands ``fn`` exactly the blocked
        admissions BusTelemetry counts, and leaves the observer it wraps
        fed and the manager's observer alone."""
        telemetry = BusTelemetry()
        eng = self.pressured_engine(telemetry)
        blocked = []
        eng.events.subscribe(blocked.append, [AdmissionBlocked])
        assert eng.manager.observer is telemetry
        eng.run(max_steps=20_000)
        assert blocked and all(isinstance(ev, AdmissionBlocked) for ev in blocked)
        assert len(blocked) == telemetry.registry.counters["pressure/admission_blocked"]
        assert telemetry.registry.counters["requests/finished"] == 12

        bare = self.pressured_engine()
        unobserved = []
        bare.events.subscribe(unobserved.append, [AdmissionBlocked])
        assert bare.manager.observer is None
        bare.run(max_steps=20_000)
        assert unobserved == blocked

    def test_observers_do_not_perturb_the_run(self):
        """Bare, recorded and fully-observed runs of one request set take
        identical steps and finish identical requests."""

        def outcome(eng):
            eng.run(max_steps=20_000)
            return list(eng.steps), list(eng.finished)

        bare = outcome(self.pressured_engine())
        captured = outcome(self.pressured_engine(RecordingObserver()))
        telemetry = BusTelemetry()
        telemetry.pressure = PressureMonitor(telemetry)
        engine = self.pressured_engine(telemetry)
        telemetry.allocator = engine.manager.allocator
        observed = outcome(engine)
        tracer = Tracer()
        traced = outcome(self.pressured_engine(tracer))
        fanned = outcome(self.pressured_engine(Fanout(BusTelemetry(), Tracer())))
        assert telemetry.registry.counters["alloc/pages"] > 0
        assert telemetry.registry.counters["pressure/admission_blocked"] > 0
        assert telemetry.pressure.score > 0.0
        assert tracer.spans and tracer.open_depth == 0
        assert bare[0] and bare == captured == observed == traced == fanned

    def test_fanout_forwards_every_call_in_order(self):
        """Each observer behind a ``Fanout`` gets every ``Observer`` call,
        in the order made: called directly, and over a whole run."""
        first, second = RecordingObserver(), RecordingObserver()
        fanout = Fanout(first, second)
        record = StepRecord(index=3, start_time=0.0, duration=0.5, decode_batch=1,
                            prefill_tokens=0, num_running=1, num_waiting=0,
                            num_preemptions=0)
        methods = [name for name in vars(Observer) if not name.startswith("_")]
        for name in methods:
            if name == "step_completed":
                fanout.step_completed(0.5, record)
                continue
            arity = len(inspect.signature(getattr(Observer, name)).parameters) - 1
            getattr(fanout, name)(*(f"{name}-{i}" for i in range(arity)))
        expected = [
            "StepCompleted" if name == "step_completed" else RECORDS[name].__name__
            for name in methods
        ]
        assert [type(r).__name__ for r in first.records] == expected
        assert first.records == second.records

        alone = RecordingObserver()
        self.pressured_engine(alone).run(max_steps=20_000)
        first, second = RecordingObserver(), RecordingObserver()
        self.pressured_engine(Fanout(first, second)).run(max_steps=20_000)
        assert alone.counts["PhaseBegan"] > 0 and alone.counts["PrefixHit"] > 0
        assert first.records == second.records == alone.records
