"""Elastic-repartitioning tests: soft quotas, deflation, and the resizer.

Covers the quota edge cases the elastic sweep leans on:

* deflating below current usage must reclaim only reclaimable pages --
  USED-pinned large pages survive every resize (quotas are soft);
* a batched ``allocate_pages`` that fails mid-carve under a freshly
  shrunk quota rolls back completely, leaving accounting exact;
* the hysteresis dwell gate under square-wave demand: a group's quota
  moves at most once per dwell window no matter how fast demand flips;
* the hypothesis property that ``stats() == stats_slow()`` and
  ``can_admit == can_admit_uncached`` hold at every step of randomized
  resize/allocate/release interleavings;
* ``foreign_used_bytes``: zero for private pools, co-tenant USED bytes
  for shared-allocator views (the engine's permanent-failure gate).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.events import EventBus, QuotaResized, StepCompleted
from repro.obs import BusTelemetry, PressureMonitor
from repro.core.kv_manager import JengaKVCacheManager
from repro.core.layer_policy import FULL_ATTENTION, GroupSpec, make_policy
from repro.core.resizer import (
    GroupPressure,
    HysteresisPolicy,
    PoolResizer,
    ProportionalPolicy,
    make_resize_policy,
)
from repro.core.sequence import TEXT, SequenceSpec
from repro.core.two_level import TwoLevelAllocator
from repro.engine.multi_model import build_shared_managers
from repro.models import get_model

T = frozenset({TEXT})


def make_allocator(num_large=8, **kwargs):
    """Two groups: 'a' pages of 256 B (3 per large), 'b' pages of 384 B (2)."""
    specs = {
        "a": GroupSpec("a", FULL_ATTENTION, 1, per_token_bytes=64,
                       tokens_per_page=4, accepted_tags=T),
        "b": GroupSpec("b", FULL_ATTENTION, 1, per_token_bytes=96,
                       tokens_per_page=4, accepted_tags=T),
    }
    policies = {g: make_policy(s) for g, s in specs.items()}
    return TwoLevelAllocator(768 * num_large, specs, policies, **kwargs)


class FakeMonitor:
    """Minimal PressureSource: settable score + eviction rates."""

    def __init__(self, score=1.0, rates=None):
        self.score = score
        self._rates = rates or {}

    def group_eviction_rates(self):
        return dict(self._rates)


def assert_stats_equal(alloc):
    fast, slow = alloc.stats(), alloc.stats_slow()
    assert fast.used_bytes_by_group == slow.used_bytes_by_group
    assert fast.evictable_bytes_by_group == slow.evictable_bytes_by_group
    assert fast.free_bytes == slow.free_bytes


class TestDeflation:
    def test_deflate_below_usage_keeps_used_pages(self):
        alloc = make_allocator()
        pages = [alloc.allocate_page("a", "r1") for _ in range(6)]
        assert all(p is not None for p in pages)
        owned = alloc.large_pages_owned("a")
        assert owned == 2  # 6 pages at 3 per large
        reclaimed = alloc.set_quota("a", 1)
        # Every small page is USED: nothing is reclaimable, ownership
        # stays above the (soft) quota, and no page was harmed.
        assert reclaimed == 0
        assert alloc.large_pages_owned("a") == owned
        assert alloc.groups["a"].n_used == 6
        assert alloc.quota_of("a") == 1
        alloc.check_invariants()
        assert_stats_equal(alloc)

    def test_deflate_reclaims_fully_evictable_first(self):
        alloc = make_allocator()
        evictable = [alloc.allocate_page("a", "r1") for _ in range(3)]
        pinned = [alloc.allocate_page("a", "r2") for _ in range(3)]
        for p in evictable:
            alloc.register_block_hash("a", p, hash(("a", p.page_id)))
            alloc.release_page("a", p.page_id, cacheable=True)
        assert alloc.large_pages_owned("a") == 2
        assert alloc.fully_evictable_large_pages("a") == 1
        reclaimed = alloc.set_quota("a", 1)
        assert reclaimed == 1  # the fully-evictable large page, not r2's
        assert alloc.large_pages_owned("a") == 1
        assert alloc.groups["a"].n_used == len(pinned)
        alloc.check_invariants()
        assert_stats_equal(alloc)

    def test_resize_emits_guarded_quota_event(self):
        bus = EventBus(capacity=8)
        received = []
        bus.subscribe(received.append, (QuotaResized,))
        alloc = make_allocator(events=bus)
        alloc.set_quota("a", 3)
        assert len(received) == 1
        assert received[0].group_id == "a"
        assert received[0].new_quota == 3

    def test_noop_resize_emits_nothing(self):
        bus = EventBus(capacity=8)
        received = []
        bus.subscribe(received.append, (QuotaResized,))
        alloc = make_allocator(events=bus)
        alloc.set_quota("a", 3)
        alloc.set_quota("a", 3)
        assert len(received) == 1  # second call is a no-op


class TestBatchedAllocRollback:
    def test_quota_blocked_batch_rolls_back_clean(self):
        alloc = make_allocator(num_large=8)
        # Shrink 'a' to one large page (3 small) mid-flight, then ask for
        # a batch that must carve a second one: all-or-nothing means the
        # partial carve is rolled back and accounting stays exact.
        alloc.set_quota("a", 1)
        pages = alloc.allocate_pages("a", "r1", 5)
        assert pages is None
        assert alloc.groups["a"].n_used == 0
        assert alloc.large_pages_owned("a") <= 1
        alloc.check_invariants()
        assert_stats_equal(alloc)
        # The batch that fits the quota still succeeds afterwards.
        assert alloc.allocate_pages("a", "r1", 3) is not None
        alloc.check_invariants()

    def test_inflate_reopens_blocked_batch(self):
        alloc = make_allocator(num_large=8)
        alloc.set_quota("a", 1)
        assert alloc.allocate_pages("a", "r1", 5) is None
        alloc.set_quota("a", 4)
        pages = alloc.allocate_pages("a", "r1", 5)
        assert pages is not None and len(pages) == 5
        alloc.check_invariants()
        assert_stats_equal(alloc)


class TestHysteresisDwell:
    @staticmethod
    def square_wave(step, quota_a, quota_b, total=64):
        """Alternating demand: even windows load 'a', odd windows 'b'."""
        hot = step // 8 % 2 == 0
        return [
            GroupPressure("a", quota_a, quota_a, 48 if hot else 0, 0.0),
            GroupPressure("b", quota_b, quota_b, 0 if hot else 48, 0.0),
        ]

    def test_dwell_limits_moves_per_group(self):
        policy = HysteresisPolicy(dwell_steps=32)
        quotas = {"a": 32, "b": 32}
        move_steps = {"a": [], "b": []}
        for step in range(0, 128, 4):
            desired = policy.decide(
                self.square_wave(step, quotas["a"], quotas["b"]),
                total_large=64, score=1.0, step=step,
            )
            for gid, quota in desired.items():
                move_steps[gid].append(step)
                quotas[gid] = quota
        assert any(move_steps.values())  # the gate does open
        for gid, steps in move_steps.items():
            gaps = [b - a for a, b in zip(steps, steps[1:])]
            assert all(gap >= policy.dwell_steps for gap in gaps), (gid, steps)

    def test_dead_band_pins_partition_at_low_score(self):
        policy = HysteresisPolicy(dead_band=0.25)
        pressure = self.square_wave(0, 32, 32)
        assert policy.decide(pressure, 64, score=0.2, step=0) == {}
        assert policy.decide(pressure, 64, score=0.3, step=0) != {}

    def test_proportional_floor_keeps_idle_group_restartable(self):
        # An idle group must keep enough quota to readmit one request,
        # else its demand signal never recovers (the bootstrap floor).
        policy = ProportionalPolicy()
        pressure = [
            GroupPressure("a", 32, 32, 48, 0.0),
            GroupPressure("b", 32, 32, 0, 0.0),
        ]
        desired = policy.decide(pressure, total_large=64, score=1.0, step=0)
        assert desired["b"] >= policy.floor_quota(64, 2)
        assert desired["b"] < desired["a"]

    def test_unknown_policy_name_raises(self):
        with pytest.raises(ValueError, match="unknown resize policy"):
            make_resize_policy("nope")


class TestPoolResizer:
    def test_partition_on_start_is_exact_equal_split(self):
        alloc = make_allocator(num_large=7)
        PoolResizer(alloc, FakeMonitor(), policy="static", interval=4)
        quotas = [alloc.quota_of(g) for g in sorted(alloc.groups)]
        assert sum(quotas) == alloc.lcm.num_pages
        assert max(quotas) - min(quotas) <= 1

    def test_rebalance_fires_every_interval(self):
        alloc = make_allocator()

        class CountingPolicy(ProportionalPolicy):
            calls = 0

            def decide(self, pressure, total_large, score, step):
                CountingPolicy.calls += 1
                return {}

        resizer = PoolResizer(alloc, FakeMonitor(),
                              policy=CountingPolicy(), interval=4)
        for _ in range(12):
            resizer.on_step()
        assert CountingPolicy.calls == 3

    def test_fold_ticks_the_resizer_until_closed(self):
        alloc = make_allocator()
        bus = EventBus(capacity=0)
        fold = BusTelemetry(bus)
        resizer = fold.resizer = PoolResizer(
            alloc, FakeMonitor(), policy="static", interval=4)
        for step in range(12):
            bus.emit(StepCompleted(step, 0.0, 0))
        assert resizer.num_decides == 3
        fold.close()
        bus.emit(StepCompleted(12, 0.0, 0))
        assert resizer.num_decides == 3  # the fold no longer listens

    def test_moves_follow_demand(self):
        alloc = make_allocator(num_large=8)
        for _ in range(9):
            assert alloc.allocate_page("a", "r1") is not None
        resizer = PoolResizer(alloc, FakeMonitor(score=1.0),
                              policy="proportional", interval=1)
        resizer.on_step()
        assert resizer.num_resizes > 0
        assert alloc.quota_of("a") > alloc.quota_of("b")
        alloc.check_invariants()

    def test_resize_evictions_land_in_the_next_window(self):
        """The fold ticks counters -> pressure -> resizer, so the
        PageEvicted records a deflating quota move publishes from inside
        the resizer tick are counted after this step's pressure window
        closed: they show up in the *next* step's eviction rate."""
        bus = EventBus(capacity=0)
        alloc = make_allocator(events=bus)
        cached = [alloc.allocate_page("a", "r1") for _ in range(9)]
        for page in cached:
            alloc.register_block_hash("a", page, hash(("a", page.page_id)))
            alloc.release_page("a", page.page_id, cacheable=True)
        assert alloc.fully_evictable_large_pages("a") == 3

        class ShrinkA(ProportionalPolicy):
            def decide(self, pressure, total_large, score, step):
                return {"a": 1} if step == 1 else {}

        fold = BusTelemetry(bus)
        monitor = fold.pressure = PressureMonitor(fold)
        fold.resizer = PoolResizer(alloc, monitor, policy=ShrinkA(),
                                   interval=1, partition_on_start=False)
        counters, gauges = fold.registry.counters, fold.registry.gauges

        bus.emit(StepCompleted(0, 1.0, 0))
        assert fold.resizer.num_reclaimed == 2
        assert counters["evict/large"] == counters["evict/group/a"] == 2
        assert counters["resize/quota_resized"] == 1
        assert gauges["pressure/eviction_rate"] == 0.0
        assert "pressure/group/a/eviction_rate" not in gauges
        bus.emit(StepCompleted(1, 2.0, 0))
        assert gauges["pressure/eviction_rate"] == 0.2 * 2
        assert gauges["pressure/group/a/eviction_rate"] == 0.2 * 2
        alloc.check_invariants()


class TestPropertyResizeChurn:
    @settings(max_examples=40, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),
                st.sampled_from(["begin", "grow", "release", "resize_a",
                                 "resize_b", "unquota"]),
                st.integers(min_value=1, max_value=6),
            ),
            max_size=30,
        ),
    )
    def test_admission_and_stats_stay_exact_under_resizes(self, ops):
        mgr = JengaKVCacheManager(
            {
                "full": GroupSpec("full", FULL_ATTENTION, 2, 64,
                                  tokens_per_page=4, accepted_tags=T),
            },
            2 * 64 * 4 * 24,
            enable_prefix_caching=True,
        )
        alloc = mgr.allocator
        seqs = {
            i: SequenceSpec.text_only(f"r{i}", list(range(24)) + [100 + i])
            for i in range(4)
        }
        active = set()
        now = 1.0
        for i, op, quota in ops:
            seq = seqs[i]
            if op == "begin" and i not in active:
                mgr.begin_request(seq)
                active.add(i)
            elif op == "grow" and i in active:
                if mgr.allocate_up_to(seq, len(seq)):
                    mgr.commit(seq, len(seq), now=now, phase="prefill")
                now += 1.0
            elif op == "release" and i in active:
                mgr.release(seq, cacheable=bool(quota % 2))
                active.discard(i)
            elif op == "resize_a":
                alloc.set_quota("full", quota)
            elif op == "resize_b":
                alloc.set_quota("full", quota * 2)
            elif op == "unquota":
                alloc.set_quota("full", None)
            for probe in seqs.values():
                assert mgr.can_admit(probe) == mgr.can_admit_uncached(probe)
            assert_stats_equal(alloc)
        alloc.check_invariants()


class TestForeignUsedBytes:
    def test_private_pool_reports_zero(self):
        mgr = JengaKVCacheManager(
            {"full": GroupSpec("full", FULL_ATTENTION, 1, 64,
                               tokens_per_page=4, accepted_tags=T)},
            768 * 4,
        )
        seq = SequenceSpec.text_only("r1", list(range(12)))
        mgr.begin_request(seq)
        assert mgr.allocate_up_to(seq, len(seq))
        assert mgr.foreign_used_bytes() == 0

    def test_shared_view_counts_cotenant_used_bytes(self):
        model = get_model("llama3-8b")
        managers = build_shared_managers(
            {"a": model, "b": model}, 512 * 1024 * 1024
        )
        seq = SequenceSpec.text_only("r1", list(range(64)))
        managers["a"].begin_request(seq)
        assert managers["a"].allocate_up_to(seq, len(seq))
        assert managers["a"].foreign_used_bytes() == 0  # b holds nothing
        assert managers["b"].foreign_used_bytes() > 0   # a's USED bytes
        managers["a"].release(seq, cacheable=True)      # evictable != used
        assert managers["b"].foreign_used_bytes() == 0
