"""Admission tests: allocator version, demand memo, cross-check, gate.

``can_admit`` reads the allocator's live O(1) counters plus a per-request
demand memo (``repro.core.admission``); ``can_admit_uncached`` is the
recompute-everything cross-check, and ``TwoLevelAllocator.version`` is
the monotone counter the engine's blocked-probe gate keys on.  These
tests pin down:

* the version contract -- every allocator op that changes an admission
  input (``num_free``, evictor sizes, fully-evictable / owned large-page
  counts, ``lcm.num_free``, a quota) moves ``version``; ops that change
  none leave it alone; no event bus is involved;
* the stale-bound regressions -- a prefix-cache hit reactivating
  evictable pages, and a cache-index displacement freeing a page outside
  ``release_page``, both show up in the very next ``can_admit``;
* the hypothesis property ``can_admit(...) == can_admit_uncached(...)``
  at every step of randomized allocate/commit/release/append churn;
* the engine's blocked-probe gate -- skipping a re-probe while the
  version is unchanged must not change scheduling outcomes, and must
  actually eliminate the per-step prefix-lookup rescans.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.events import EventBus
from repro.core.kv_manager import JengaKVCacheManager
from repro.core.layer_policy import (
    FULL_ATTENTION,
    GroupSpec,
    SLIDING_WINDOW,
    make_policy,
)
from repro.core.sequence import TEXT, SequenceSpec
from repro.core.two_level import TwoLevelAllocator
from repro.engine import LLMEngine, Request, SchedulerConfig
from repro.engine.scheduler import AdmissionGate
from repro.models import get_model
from repro.platforms import H100
from repro.workloads import token_block

T = frozenset({TEXT})


def hetero_specs(tpp=4, window=8):
    return {
        "full": GroupSpec("full", FULL_ATTENTION, 2, 64, tokens_per_page=tpp,
                          accepted_tags=T),
        "win": GroupSpec("win", SLIDING_WINDOW, 2, 64, tokens_per_page=tpp,
                         window=window, accepted_tags=T),
    }


def make_manager(total=64 * 4 * 64, caching=True, specs=None):
    return JengaKVCacheManager(
        specs or hetero_specs(), total, enable_prefix_caching=caching
    )


def make_allocator(num_large=3):
    """Bare two-group allocator with no bus: 3 'a' or 2 'b' pages per large."""
    specs = {
        "a": GroupSpec("a", FULL_ATTENTION, 1, 64, tokens_per_page=4,
                       accepted_tags=T),
        "b": GroupSpec("b", FULL_ATTENTION, 1, 96, tokens_per_page=4,
                       accepted_tags=T),
    }
    alloc = TwoLevelAllocator(
        768 * num_large, specs, {g: make_policy(s) for g, s in specs.items()}
    )
    assert alloc.events is None
    return alloc


def admission_inputs(alloc):
    """Every pool-side value ``can_admit`` reads."""
    return (
        alloc.lcm.num_free,
        len(alloc.large_evictor),
        tuple(
            (
                group.num_free,
                len(group.evictor),
                alloc.fully_evictable_large_pages(gid),
                alloc.large_pages_owned(gid),
                group.quota,
            )
            for gid, group in alloc.groups.items()
        ),
    )


def cache_page(alloc, gid, page, block_hash, now):
    """Hash ``page`` and release it into the evictable cache."""
    alloc.register_block_hash(gid, page, block_hash)
    page.last_access = now
    alloc.release_page(gid, page.page_id, cacheable=True)


def evictable_page(alloc, gid="a", block_hash=7):
    page = alloc.allocate_page(gid, "r")
    cache_page(alloc, gid, page, block_hash, 1.0)
    return page


# Each scenario sets a bare allocator up and returns the one op under test.

def allocate_one(alloc):  # step 2: the first page also carves
    return lambda: alloc.allocate_page("a", "r")


def allocate_batch(alloc):  # 4 > 3 slots: steps 2, 1, 1, 2
    return lambda: alloc.allocate_pages("a", "r", 4)


def release_to_free(alloc):
    page = alloc.allocate_page("a", "r")
    return lambda: alloc.release_page("a", page.page_id, cacheable=False)


def release_to_cache(alloc):
    page = alloc.allocate_page("a", "r")
    return lambda: cache_page(alloc, "a", page, 7, 1.0)


def acquire_evictable(alloc):  # cache hit: EVICTABLE -> USED
    evictable_page(alloc)
    return lambda: alloc.acquire_cached("a", 7, "s")


def evict_small(alloc):  # step 5
    pages = alloc.allocate_pages("a", "r", 3 * alloc.lcm.num_free)
    cache_page(alloc, "a", pages[0], 1, 1.0)
    return lambda: alloc.allocate_page("a", "s")


def evict_large(alloc):  # step 3, across groups
    pages = alloc.allocate_pages("a", "r", 3 * alloc.lcm.num_free)
    for i, page in enumerate(pages):
        cache_page(alloc, "a", page, 10 + i, 2.0 + i)
    return lambda: alloc.allocate_page("b", "t")


def quota_set(alloc):
    return lambda: alloc.set_quota("a", 2)


def quota_deflate(alloc):
    evictable_page(alloc)
    return lambda: alloc.set_quota("a", 0)


def quota_clear(alloc):
    alloc.set_quota("a", 2)
    return lambda: alloc.set_quota("a", None)


def displace_stale_copy(alloc):
    # Re-registering hash 7 frees the stale evictable copy outright,
    # without passing through release_page.
    evictable_page(alloc)
    new = alloc.allocate_page("a", "s")
    return lambda: alloc.register_block_hash("a", new, 7)


def return_large_page_alone(alloc):
    # White box: the deflation path evicts a large page without allocating;
    # the owned / lcm.num_free counts it writes must move the version
    # without leaning on set_quota's own bump.
    page = evictable_page(alloc)
    return lambda: alloc._return_large_page(page.large_page_id)


MOVING = [
    allocate_one, allocate_batch, release_to_free, release_to_cache,
    acquire_evictable, evict_small, evict_large, quota_set, quota_deflate,
    quota_clear, displace_stale_copy, return_large_page_alone,
]


def same_quota(alloc):
    alloc.set_quota("a", 2)
    return lambda: alloc.set_quota("a", 2)


def touch(alloc):
    page = evictable_page(alloc)
    page.last_access = 9.0
    return lambda: alloc.touch_evictable("a", page)


def share_used_page(alloc):
    # A second reference on an already-USED page changes no pool count.
    evictable_page(alloc)
    alloc.acquire_cached("a", 7, "s")
    return lambda: alloc.acquire_cached("a", 7, "t")


def drop_shared_reference(alloc):
    share_used_page(alloc)()
    page_id = alloc.groups["a"].cache_index.lookup(7)
    return lambda: alloc.release_page("a", page_id)


def cache_miss(alloc):
    return lambda: alloc.acquire_cached("a", 999, "t")


def failed_allocation(alloc):
    alloc.allocate_pages("a", "r", 3 * alloc.lcm.num_free)
    return lambda: alloc.allocate_pages("b", "s", 2)


def register_fresh_hash(alloc):
    page = alloc.allocate_page("a", "r")
    return lambda: alloc.register_block_hash("a", page, 8)


STILL = [
    same_quota, touch, share_used_page, drop_shared_reference, cache_miss,
    failed_allocation, register_fresh_hash,
]


class TestAllocatorVersion:
    """No bus anywhere: the allocator's own ``version`` tracks its inputs."""

    @pytest.mark.parametrize("scenario", MOVING, ids=lambda f: f.__name__)
    def test_input_changing_op_moves_version(self, scenario):
        alloc = make_allocator()
        op = scenario(alloc)
        before_inputs, before = admission_inputs(alloc), alloc.version
        op()
        assert admission_inputs(alloc) != before_inputs
        assert alloc.version > before
        alloc.check_invariants()

    @pytest.mark.parametrize("scenario", STILL, ids=lambda f: f.__name__)
    def test_input_preserving_op_leaves_version_alone(self, scenario):
        alloc = make_allocator()
        op = scenario(alloc)
        before_inputs, before = admission_inputs(alloc), alloc.version
        op()
        assert admission_inputs(alloc) == before_inputs
        assert alloc.version == before
        alloc.check_invariants()

    @settings(max_examples=100, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(
                    ["alloc", "batch", "free", "cache", "acquire", "touch", "quota"]
                ),
                st.sampled_from(["a", "b"]),
                st.integers(0, 5),  # request / hash / count / quota selector
            ),
            max_size=80,
        )
    )
    def test_version_moves_with_every_admission_input(self, ops):
        """Whenever an op changes any admission input, ``version`` changes
        too (fails when the move is removed from a run form or
        ``set_quota``)."""
        alloc = make_allocator()
        live = []
        clock = 0.0
        for op, gid, k in ops:
            before_inputs, before = admission_inputs(alloc), alloc.version
            clock += 1.0
            if op == "alloc":
                page = alloc.allocate_page(gid, f"r{k}")
                if page is not None:
                    live.append((gid, page))
            elif op == "batch":
                pages = alloc.allocate_pages(gid, f"r{k}", k)
                live.extend((gid, page) for page in pages or ())
            elif op in ("free", "cache") and live:
                pgid, page = live.pop(k % len(live))
                if op == "cache":
                    # Six hashes over many pages: re-registration displaces
                    # stale evictable copies.
                    alloc.register_block_hash(pgid, page, k)
                    page.last_access = clock
                alloc.release_page(pgid, page.page_id, cacheable=(op == "cache"))
            elif op == "acquire":
                page = alloc.acquire_cached(gid, k, f"r{k}")
                if page is not None:
                    live.append((gid, page))
            elif op == "touch":
                for page in alloc.groups[gid].pages.values():
                    if page.is_evictable:
                        page.last_access = clock
                        alloc.touch_evictable(gid, page)
                        break
            elif op == "quota":
                alloc.set_quota(gid, None if k == 5 else k)
            assert alloc.version >= before
            if admission_inputs(alloc) != before_inputs:
                assert alloc.version > before, (op, gid, k)
        alloc.check_invariants()


class TestManagerVersion:
    def test_real_allocation_moves_admission_version(self):
        mgr = make_manager()
        version = mgr.admission_version()
        seq = SequenceSpec.text_only("r1", list(range(16)))
        mgr.begin_request(seq)
        assert mgr.allocate_up_to(seq, 16)
        assert mgr.admission_version() > version

    def test_probe_and_rebind_leave_version_alone(self):
        """Neither a ``can_admit`` probe nor ``bind_events`` touches the
        pool, and the verdict after a rebind still matches the recompute."""
        mgr = make_manager()
        probe = SequenceSpec.text_only("probe", list(range(24)))
        version = mgr.admission_version()
        assert version >= 0
        for _ in range(3):
            mgr.can_admit(probe)
        mgr.bind_events(EventBus())
        assert mgr.admission_version() == version
        assert mgr.can_admit(probe) == mgr.can_admit_uncached(probe)

    def test_batched_allocation_matches_singles(self):
        """One ``allocate_pages`` call must leave admission in the same
        state as the n ``allocate_page`` calls it replaced."""
        singles = make_manager()
        batched = make_manager()
        probe = SequenceSpec.text_only("probe", list(range(24)))
        assert singles.can_admit(probe) == batched.can_admit(probe)
        versions = (singles.admission_version(), batched.admission_version())
        for _ in range(3):
            assert singles.allocator.allocate_page("full", "r") is not None
        pages = batched.allocator.allocate_pages("full", "r", 3)
        assert pages is not None and len(pages) == 3
        assert singles.admission_version() > versions[0]
        assert batched.admission_version() > versions[1]
        assert admission_inputs(singles.allocator) == admission_inputs(batched.allocator)
        assert singles.can_admit(probe) == batched.can_admit(probe)

    def test_no_bus_views_agree_with_uncached_under_cotenant_churn(self):
        """A manager and a shared-pool sibling whose allocator has *no* bus
        still answer ``can_admit`` exactly and see each other's mutations
        in ``admission_version`` -- they read the same allocator."""
        specs = hetero_specs()
        policies = {g: make_policy(s) for g, s in specs.items()}
        allocator = TwoLevelAllocator(32 * 4 * 64, specs, policies)
        full = {"full": specs["full"]}
        win = {"win": specs["win"]}
        ma = JengaKVCacheManager(full, 0, shared_allocator=allocator)
        mb = JengaKVCacheManager(win, 0, shared_allocator=allocator)
        allocator.events = None  # drop the fan-out the views installed
        probes = [
            SequenceSpec.text_only(f"p{n}", list(range(5000, 5000 + n)))
            for n in (8, 48, 96, 128)
        ]

        def check():
            for mgr in (ma, mb):
                for probe in probes:
                    assert mgr.can_admit(probe) == mgr.can_admit_uncached(probe)

        check()
        version = mb.admission_version()
        assert version >= 0
        held = []
        for i in range(4):
            seq = SequenceSpec.text_only(f"a{i}", list(range(100 * i, 100 * i + 24)))
            ma.begin_request(seq)
            assert ma.allocate_up_to(seq, 24)
            ma.commit(seq, 24, now=float(i), phase="prefill")
            held.append(seq)
            assert mb.admission_version() > version  # co-tenant moved it
            version = mb.admission_version()
            check()
        for i, seq in enumerate(held):
            ma.release(seq, cacheable=(i % 2 == 0))
            assert mb.admission_version() > version
            version = mb.admission_version()
            check()
        assert allocator.events is None
        allocator.check_invariants()


class TestDemandMemo:
    def test_probe_hits_memo_until_length_changes(self):
        mgr = make_manager()
        cache = mgr._admission
        seq = SequenceSpec.text_only("r1", list(range(20)))
        mgr.can_admit(seq)
        misses = cache.num_demand_misses
        hits = cache.num_demand_hits
        for _ in range(4):
            mgr.can_admit(seq)
        assert cache.num_demand_misses == misses
        assert cache.num_demand_hits == hits + 4
        seq.append(999)  # new computed-length bucket
        mgr.can_admit(seq)
        assert cache.num_demand_misses == misses + 1

    def test_memo_capacity_is_bounded(self):
        mgr = make_manager()
        cache = mgr._admission
        cap = cache.DEMAND_CAPACITY
        for i in range(cap + 10):
            mgr.can_admit(SequenceSpec.text_only(f"r{i}", [1, 2, 3]))
        assert len(cache._demand) <= cap


class TestStaleBoundRegression:
    def test_prefix_hit_reacquire_updates_admission_bounds(self):
        """Prefix-hit reactivation (EVICTABLE -> USED) shrinks the bound.

        ``acquire_cached`` pulls pages out of the evictor without any
        allocation or release; ``can_admit`` must stop counting the
        reacquired pages as reclaimable, or it says yes to prompts the
        pool can no longer host.
        """
        specs = {
            "full": GroupSpec("full", FULL_ATTENTION, 2, 64, tokens_per_page=4,
                              accepted_tags=T),
        }
        # Exactly 16 small pages; the donor fills all of them.
        mgr = make_manager(total=16 * 4 * 64, specs=specs)
        donor = SequenceSpec.text_only("donor", list(range(64)))
        mgr.begin_request(donor)
        assert mgr.allocate_up_to(donor, 64)
        mgr.commit(donor, 64, now=1.0, phase="prefill")
        mgr.release(donor, cacheable=True)  # whole pool now evictable

        probe = SequenceSpec.text_only("probe", list(range(1000, 1048)))
        # Probe while the evictable pool covers the demand.
        assert mgr.can_admit(probe) is True
        assert mgr.can_admit(probe) == mgr.can_admit_uncached(probe)

        # Same-prefix request reacquires the cached pages: no allocation,
        # no release -- only the EVICTABLE -> USED transition.  The hit is
        # capped at len - 1 (one token must still be computed), so 15 of
        # the 16 pages flip to USED.
        reuser = SequenceSpec.text_only("reuser", list(range(64)))
        hit = mgr.begin_request(reuser)
        assert hit == 60
        assert mgr.can_admit_uncached(probe) is False
        assert mgr.can_admit(probe) == mgr.can_admit_uncached(probe)

    def test_cache_index_displacement_updates_admission_bounds(self):
        """Displacing a stale cached copy frees it outright; the freed
        page must move the allocator version and the free/evictable split
        ``can_admit`` reads.

        A twin request recomputes a block the cache already holds (the
        hit cap leaves the donor's last block unacquired), and its commit
        re-registers the same hash -- the index displacement frees the
        donor's old evictable copy without passing through release_page.
        """
        specs = {
            "full": GroupSpec("full", FULL_ATTENTION, 2, 64, tokens_per_page=4,
                              accepted_tags=T),
        }
        mgr = make_manager(total=16 * 4 * 64, specs=specs)
        donor = SequenceSpec.text_only("donor", list(range(8)))
        mgr.begin_request(donor)
        assert mgr.allocate_up_to(donor, 8)
        mgr.commit(donor, 8, now=1.0, phase="prefill")
        mgr.release(donor, cacheable=True)  # both blocks cached+evictable

        # The twin hits only block 0 (hit capped at len - 1 = 7 tokens)
        # and recomputes block 1 on a fresh page.
        twin = SequenceSpec.text_only("twin", list(range(8)))
        assert mgr.begin_request(twin) == 4
        assert mgr.allocate_up_to(twin, 8)

        # The only pool mutation in commit() is the displacement.
        probe = SequenceSpec.text_only("probe", list(range(1000, 1016)))
        mgr.can_admit(probe)
        version = mgr.admission_version()
        mgr.commit(twin, 8, now=2.0, phase="prefill")
        assert mgr.admission_version() > version  # displacement freed a page
        assert mgr.can_admit(probe) == mgr.can_admit_uncached(probe)
        mgr.allocator.check_invariants()


class TestPropertyEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=5),
                st.sampled_from(
                    ["begin", "grow", "release_cached", "release_free", "append"]
                ),
            ),
            max_size=40,
        ),
        watermark=st.integers(min_value=0, max_value=8),
    )
    def test_cached_equals_uncached_under_churn(self, ops, watermark):
        mgr = make_manager(total=48 * 4 * 64)  # small pool: verdicts flip
        seqs = {}
        for i in range(6):
            # Half the requests share a prefix so churn produces real
            # prefix-cache hits (acquire_cached paths included).
            base = list(range(32)) if i % 2 == 0 else list(range(100 * i, 100 * i + 24))
            seqs[i] = SequenceSpec.text_only(f"r{i}", base + [1000 + i])
        active = set()
        now = 1.0

        def check_all():
            for seq in seqs.values():
                for chunk in (64, 8192):
                    assert mgr.can_admit(seq, watermark, chunk) == \
                        mgr.can_admit_uncached(seq, watermark, chunk)

        for i, op in ops:
            seq = seqs[i]
            if op == "begin" and i not in active:
                mgr.begin_request(seq)
                active.add(i)
            elif op == "grow" and i in active:
                if mgr.allocate_up_to(seq, len(seq)):
                    mgr.commit(seq, len(seq), now=now, phase="prefill")
                now += 1.0
            elif op == "release_cached" and i in active:
                mgr.release(seq, cacheable=True)
                active.discard(i)
            elif op == "release_free" and i in active:
                mgr.release(seq, cacheable=False)
                active.discard(i)
            elif op == "append" and i not in active:
                seq.append(2000 + len(seq))
            check_all()
        mgr.allocator.check_invariants()


class TestAdmissionGate:
    def test_matches_only_identical_triple(self):
        gate = AdmissionGate()
        assert not gate.should_skip("r1", 10, 5)
        gate.note_blocked("r1", 10, 5)
        assert gate.should_skip("r1", 10, 5)
        assert not gate.should_skip("r1", 10, 6)   # pool moved
        assert not gate.should_skip("r1", 11, 5)   # sequence grew
        assert not gate.should_skip("r2", 10, 5)   # different head
        gate.clear()
        assert not gate.should_skip("r1", 10, 5)

    def test_negative_version_disables_gate(self):
        gate = AdmissionGate()
        gate.note_blocked("r1", 10, -1)
        assert not gate.should_skip("r1", 10, -1)

    def test_engine_gate_skips_rescans_without_changing_schedule(self):
        """With the gate, blocked heads stop re-probing every step -- and
        scheduling outcomes stay identical to a gate-disabled run."""

        class UngatedManager(JengaKVCacheManager):
            def admission_version(self) -> int:
                return -1  # never let the engine skip a probe

        def build(manager_cls):
            model = get_model("llama3-8b")
            groups = model.kv_groups()
            manager = manager_cls(groups, 192 * 1024 * 1024)
            engine = LLMEngine(model, H100, manager,
                               config=SchedulerConfig(max_num_seqs=4))
            engine.add_requests([
                Request.text(f"r{i}", token_block(0, "r", i, 640), 24)
                for i in range(12)
            ])
            return engine

        gated = build(JengaKVCacheManager)
        ungated = build(UngatedManager)
        gm = gated.run(max_steps=20_000)
        um = ungated.run(max_steps=20_000)

        assert len(gm.requests) == len(um.requests) == 12
        order = lambda m: [r.request_id for r in m.requests]
        assert order(gm) == order(um)
        finish = lambda m: [r.finish_time for r in m.requests]
        assert finish(gm) == finish(um)
        assert len(gm.steps) == len(um.steps)

        # The gate must actually fire: the gated run performs far fewer
        # prefix lookups than one per (step x blocked head).
        assert gated.manager.lookup_tokens < ungated.manager.lookup_tokens
