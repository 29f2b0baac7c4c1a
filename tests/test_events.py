"""Tests for the structured allocation-event bus (EventBus + §5.4 traces)."""

import dataclasses

from repro.core import events as events_module
from repro.core.events import (
    ALLOCATION_STEPS,
    EventBus,
    LargePageCarved,
    PagesAllocated,
    PageEvicted,
    PageReleased,
    PrefixHit,
    RequestAdmitted,
    RequestFinished,
    RequestQueued,
    StepCompleted,
)
from repro.core.kv_manager import JengaKVCacheManager
from repro.core.layer_policy import FULL_ATTENTION, GroupSpec
from repro.core.sequence import IMAGE, TEXT, SequenceSpec
from repro.engine import LLMEngine, Request, SchedulerConfig
from repro.engine.multi_model import MultiModelEngine
from repro.models import get_model
from repro.obs.pressure import PressureMonitor
from repro.obs.registry import BusTelemetry
from repro.platforms import H100
from repro.workloads import token_block

T = frozenset({TEXT})
I = frozenset({IMAGE})

#: Every concrete event class the stack can publish.
EVENT_TYPES = [
    cls for cls in vars(events_module).values()
    if isinstance(cls, type) and issubclass(cls, events_module.Event)
    and cls is not events_module.Event
]


class TestEventBus:
    def test_emit_recent_counts(self):
        bus = EventBus()
        bus.emit(RequestQueued("r1", 0.0))
        bus.emit(RequestQueued("r2", 1.0))
        bus.emit(PrefixHit("r1", 4, 8))
        assert len(bus) == 3
        assert bus.counts["RequestQueued"] == 2
        assert bus.counts["PrefixHit"] == 1
        queued = bus.recent(RequestQueued)
        assert [e.request_id for e in queued] == ["r1", "r2"]
        assert bus.recent(RequestQueued, limit=1) == [queued[-1]]

    def test_subscriber_type_filter(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append, [PrefixHit])
        bus.emit(RequestQueued("r1", 0.0))
        bus.emit(PrefixHit("r1", 2, 4))
        assert seen == [PrefixHit("r1", 2, 4)]

    def test_unfiltered_subscriber_sees_everything(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        bus.emit(RequestQueued("r1", 0.0))
        bus.emit(PrefixHit("r1", 2, 4))
        assert len(seen) == 2

    def test_unsubscribe(self):
        bus = EventBus()
        seen = []
        handler = bus.subscribe(seen.append)
        assert bus.unsubscribe(handler)
        assert not bus.unsubscribe(handler)
        bus.emit(RequestQueued("r1", 0.0))
        assert not seen

    def test_ring_capacity_bounds_buffer_not_subscribers(self):
        bus = EventBus(capacity=4)
        seen = []
        bus.subscribe(seen.append)
        for i in range(10):
            bus.emit(RequestQueued(f"r{i}", float(i)))
        assert len(bus) == 4
        assert [e.request_id for e in bus.recent()] == ["r6", "r7", "r8", "r9"]
        assert len(seen) == 10  # subscribers see every event
        assert bus.counts["RequestQueued"] == 10  # counters are not bounded

    def test_clear_keeps_subscribers(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        bus.emit(RequestQueued("r1", 0.0))
        bus.clear()
        assert len(bus) == 0 and not bus.counts
        bus.emit(RequestQueued("r2", 0.0))
        assert len(seen) == 2

    def test_has_subscribers_true_while_ring_captures(self):
        # A capturing bus has an implicit consumer (recent()/counts), so
        # emit call sites must keep constructing events.
        bus = EventBus()
        assert bus.has_subscribers(PrefixHit)
        assert bus.has_subscribers(RequestQueued)

    def test_has_subscribers_pure_dispatch_tracks_interest(self):
        bus = EventBus(capacity=0)
        assert not bus.has_subscribers(PrefixHit)
        seen = []
        handler = bus.subscribe(seen.append, [PrefixHit])
        assert bus.has_subscribers(PrefixHit)
        assert not bus.has_subscribers(RequestQueued)
        bus.unsubscribe(handler)
        assert not bus.has_subscribers(PrefixHit)

    def test_has_subscribers_unfiltered_subscriber_matches_all(self):
        bus = EventBus(capacity=0)
        bus.subscribe(lambda e: None)
        assert bus.has_subscribers(PrefixHit)
        assert bus.has_subscribers(StepCompleted)

    def test_interest_cache_invalidated_by_late_subscribe(self):
        bus = EventBus(capacity=0)
        assert not bus.has_subscribers(PrefixHit)  # caches the negative
        seen = []
        bus.subscribe(seen.append, [PrefixHit])
        assert bus.has_subscribers(PrefixHit)  # cache was cleared

    def test_pure_dispatch_bus_skips_ring(self):
        bus = EventBus(capacity=0)
        seen = []
        bus.subscribe(seen.append)
        bus.emit(RequestQueued("r1", 0.0))
        assert len(bus) == 0 and not bus.recent()
        assert len(seen) == 1
        assert bus.counts["RequestQueued"] == 1

    def test_step_names(self):
        # 1-5 are the paper's five steps; 0 tags the request-aware
        # ablation's first-fit path.
        assert set(ALLOCATION_STEPS) == {0, 1, 2, 3, 4, 5}
        assert all(isinstance(name, str) and name for name in ALLOCATION_STEPS.values())


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
    §5.4 order as the staged resources run out.
    """

    def stage(self):
        mgr = five_step_manager()

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
        trace = []
        mgr.events.subscribe(
            trace.append, [PagesAllocated, PageEvicted, LargePageCarved]
        )

        for _ in range(7):  # grow A one "full" page per call
            a.extend(range(len(a), len(a) + 4))
            assert mgr.allocate_up_to(a, len(a))

        # allocate_up_to batches: one PagesAllocated per call, whose steps
        # record the §5.4 step satisfying each page of the batch.
        allocs = [ev for ev in trace if isinstance(ev, PagesAllocated)]
        steps = [step for ev in allocs for step in ev.steps]
        assert steps == [1, 2, 1, 3, 1, 4, 5]
        assert all(ev.request_id == "A" and ev.group_id == "full" for ev in allocs)
        assert all(len(ev.page_ids) == len(ev.steps) == 1 for ev in allocs)

        # First occurrences walk the algorithm top to bottom.
        first_seen = list(dict.fromkeys(steps))
        assert first_seen == [1, 2, 3, 4, 5]

        # The full interleaving: carves and evictions fire inside the
        # batch, before the PagesAllocated record they make room for.
        shapes = [
            (type(ev).__name__, getattr(ev, "steps", getattr(ev, "level", None)))
            for ev in trace
        ]
        assert shapes == [
            ("PagesAllocated", (1,)),
            ("LargePageCarved", None),
            ("PagesAllocated", (2,)),
            ("PagesAllocated", (1,)),
            ("PageEvicted", "large"),
            ("LargePageCarved", None),
            ("PagesAllocated", (3,)),
            ("PagesAllocated", (1,)),
            ("PagesAllocated", (4,)),
            ("PageEvicted", "small"),
            ("PagesAllocated", (5,)),
        ]

        # Eviction events carry the victim's two-key LRU priority.
        large_evt = next(ev for ev in trace
                         if isinstance(ev, PageEvicted) and ev.level == "large")
        assert large_evt.last_access == 2.0  # F's commit time
        assert large_evt.prefix_length > 0

    def test_prefix_hits_and_releases_are_emitted(self):
        mgr, a = self.stage()
        hits = mgr.events.recent(PrefixHit)
        by_request = {ev.request_id: ev for ev in hits}
        assert by_request["E"].hit_tokens == 4
        assert by_request["E"].lookup_tokens == 8
        assert by_request["A"].hit_tokens == 0
        released = mgr.events.recent(PageReleased)
        # B's and F's two pages each were released into the cache.
        assert len([ev for ev in released if ev.cached]) == 4


class TestEngineEvents:
    def test_request_lifecycle_events(self):
        model = get_model("llama3-8b")
        mgr = JengaKVCacheManager(model.kv_groups(), 2 << 30)
        # The engine's default bus is capture-free; pass a ring to read.
        eng = LLMEngine(model, H100, mgr, config=SchedulerConfig(),
                        events=EventBus())
        eng.add_requests([
            Request.text(f"r{i}", token_block(0, "r", i, 64), 4)
            for i in range(3)
        ])
        metrics = eng.run()

        assert eng.events.counts["RequestQueued"] == 3
        assert eng.events.counts["RequestAdmitted"] == 3
        assert eng.events.counts["RequestFinished"] == 3
        assert eng.events.counts["StepCompleted"] == len(metrics.steps)
        admitted = {ev.request_id for ev in eng.events.recent(RequestAdmitted)}
        finished = {ev.request_id for ev in eng.events.recent(RequestFinished)}
        assert admitted == finished == {"r0", "r1", "r2"}

    def test_manager_events_flow_to_engine_bus(self):
        model = get_model("llama3-8b")
        mgr = JengaKVCacheManager(model.kv_groups(), 2 << 30)
        assert mgr.allocator.events is mgr.events
        bus = EventBus()
        eng = LLMEngine(model, H100, mgr, config=SchedulerConfig(), events=bus)
        # The engine owns the bus; binding rewires the manager + allocator.
        assert eng.events is bus
        assert mgr.events is bus and mgr.allocator.events is bus
        eng.add_requests([Request.text("r0", token_block(0, "r", 0, 64), 2)])
        eng.run()
        assert bus.counts["PagesAllocated"] > 0
        assert bus.counts["StepCompleted"] == len(eng.steps)

    def test_run_record_matches_what_the_bus_saw(self):
        model = get_model("llama3-8b")
        mgr = JengaKVCacheManager(model.kv_groups(), 2 << 30)
        eng = LLMEngine(model, H100, mgr, config=SchedulerConfig(),
                        events=EventBus())
        eng.add_requests([
            Request.text(f"r{i}", token_block(0, "same", 0, 128), 4,
                         arrival_time=i * 100.0)  # r1 arrives after r0 ends
            for i in range(2)
        ])
        metrics = eng.run()
        records = [ev.record for ev in eng.events.recent(StepCompleted)]
        assert records == metrics.steps
        # The second request's prompt hits the first one's cached prefix.
        assert metrics.prefix_lookup_tokens >= 2 * 128
        assert metrics.prefix_hit_tokens > 0

    @staticmethod
    def pressured_engine(events=None):
        """12 x 640-token prompts on 192 MiB: blocked admissions, cache
        evictions and preemptions all occur."""
        model = get_model("llama3-8b")
        mgr = JengaKVCacheManager(model.kv_groups(), 192 * 1024 * 1024)
        eng = LLMEngine(model, H100, mgr,
                        config=SchedulerConfig(max_num_seqs=4), events=events)
        eng.add_requests([
            Request.text(f"r{i}", token_block(0, "r", i, 640), 24)
            for i in range(12)
        ])
        return eng

    def test_default_engine_constructs_no_page_event(self):
        """Nothing in the stack listens on an unobserved engine's bus --
        its results are its own run record -- so the guarded emits never
        build a record of any type."""
        eng = self.pressured_engine()
        assert not any(eng.events.has_subscribers(cls) for cls in EVENT_TYPES)
        metrics = eng.run(max_steps=20_000)
        assert len(metrics.requests) == 12
        assert eng.manager.allocator.num_large_evictions > 0
        assert metrics.preemptions > 0 and len(metrics.steps) > 0
        assert eng.events.counts == {}
        assert len(eng.events) == 0  # capture-free default

    def test_shared_bus_keeps_per_engine_tallies(self):
        """Two deployments publishing onto one bus report exactly what
        they report on private buses: the tallies are the engines' own."""
        model = get_model("llama3.2-1b")

        def run(events):
            engine = MultiModelEngine(
                {"a": model, "b": model}, H100, 48 * 1024 * 1024,
                config=SchedulerConfig(max_num_seqs=4), events=events,
            )
            for name, prompt in (("a", 320), ("b", 512)):
                engine.add_requests(name, [
                    # i % 3: repeated prompts, so the prefix cache hits.
                    Request.text(f"{name}{i}", token_block(0, name, i % 3, prompt), 16)
                    for i in range(8)
                ])
            return {
                name: (len(m.steps), m.preemptions, m.prefix_hit_tokens,
                       m.prefix_lookup_tokens, len(m.requests))
                for name, m in engine.run(max_steps=20_000).items()
            }

        private = run(None)
        shared = run(EventBus(capacity=0))
        assert shared == private
        assert private["a"] != private["b"]  # merged tallies would be equal
        assert all(t[1] > 0 and t[2] > 0 for t in private.values())

    def test_observers_do_not_perturb_the_run(self):
        """Bare, ring-capturing and fully-observed runs of one request set
        take identical steps and finish identical requests."""

        def outcome(eng):
            eng.run(max_steps=20_000)
            steps = [dataclasses.replace(r, phases=None) for r in eng.steps]
            return steps, list(eng.finished)

        bare = outcome(self.pressured_engine())
        captured = outcome(self.pressured_engine(EventBus()))
        bus = EventBus(capacity=0)
        telemetry = BusTelemetry(bus)
        telemetry.pressure = PressureMonitor(telemetry)
        observed = outcome(self.pressured_engine(bus))
        assert telemetry.registry.counters["alloc/pages"] > 0
        assert telemetry.registry.counters["pressure/admission_blocked"] > 0
        assert telemetry.pressure.score > 0.0
        assert bare[0] and bare == captured == observed
