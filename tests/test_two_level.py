"""Tests for the two-level allocator and the five-step algorithm (§5.4)."""

import pytest

from repro.core.layer_policy import (
    FULL_ATTENTION,
    GroupSpec,
    SLIDING_WINDOW,
    make_policy,
)
from repro.core.lcm_allocator import OutOfLargePagesError
from repro.core.pages import EMPTY, EVICTABLE, USED
from repro.core.sequence import TEXT
from repro.core.two_level import TwoLevelAllocator

from .recording import PageEvicted, PagesAllocated, RecordingObserver

T = frozenset({TEXT})


def make_allocator(num_large=4, enable_prefix_caching=True, **kwargs):
    """Two groups: 'a' pages of 256 B (3 per large), 'b' pages of 384 B (2)."""
    specs = {
        "a": GroupSpec("a", FULL_ATTENTION, 1, per_token_bytes=64, tokens_per_page=4, accepted_tags=T),
        "b": GroupSpec("b", FULL_ATTENTION, 1, per_token_bytes=96, tokens_per_page=4, accepted_tags=T),
    }
    policies = {g: make_policy(s) for g, s in specs.items()}
    return TwoLevelAllocator(
        768 * num_large, specs, policies,
        enable_prefix_caching=enable_prefix_caching, **kwargs
    )


def large_of(alloc, group_id, page_id):
    """The large page that page ``page_id`` of ``group_id`` is a slot of."""
    return page_id // alloc.groups[group_id].small_per_large


def cache(alloc, group_id, page_id, block_hash, last_access=1.0):
    """Hash page ``page_id`` and stamp it, ready to release into the cache."""
    alloc.register_block_hash(group_id, page_id, block_hash)
    alloc.groups[group_id].last_access[page_id] = last_access


class TestCarving:
    def test_first_allocation_carves_large_page(self):
        alloc = make_allocator()
        page = alloc.allocate_page("a", "r1")
        assert page is not None and alloc.groups["a"].state[page] is USED
        assert alloc.lcm.num_allocated == 1
        assert alloc.groups["a"].num_free == 2  # 3 per large, 1 taken

    def test_page_sizes_per_group(self):
        alloc = make_allocator()
        assert alloc.groups["a"].small_per_large == 3
        assert alloc.groups["b"].small_per_large == 2

    def test_slots_are_uncarved_until_their_large_page_is_owned(self):
        alloc = make_allocator(num_large=4)
        group = alloc.groups["a"]
        assert group.state == [None] * 12  # 4 large x 3 slots, built once
        page = alloc.allocate_page("a", "r1")
        large = large_of(alloc, "a", page)
        assert [group.state[i] for i in group.slots(large)] == [USED, EMPTY, EMPTY]
        assert group.request_id[page + 1] == "r1"  # carved for the request
        assert all(s is None for i, s in enumerate(group.state) if i not in group.slots(large))
        assert alloc.groups["b"].state == [None] * 8
        alloc.check_invariants()

    def test_extents_within_large_page(self):
        alloc = make_allocator()
        pages = [alloc.allocate_page("b", "r1") for _ in range(2)]
        extents = [alloc.extent_of("b", p) for p in pages]
        assert not extents[0].overlaps(extents[1])
        assert all(e.size == 384 for e in extents)


class TestRequestAwareAllocation:
    def test_step1_prefers_own_request_pages(self):
        alloc = make_allocator()
        p1 = alloc.allocate_page("a", "r1")
        p2 = alloc.allocate_page("a", "r1")
        # Same large page: request-aware (Section 4.3).
        assert large_of(alloc, "a", p1) == large_of(alloc, "a", p2)

    def test_step2_new_request_gets_new_large_page(self):
        alloc = make_allocator()
        p1 = alloc.allocate_page("a", "r1")
        p2 = alloc.allocate_page("a", "r2")
        # r1's large page still has empty slots, but r2 carves its own
        # (step 2 before step 4) to avoid Figure 8a interleaving.
        assert large_of(alloc, "a", p1) != large_of(alloc, "a", p2)

    def test_step4_falls_back_to_foreign_pages(self):
        alloc = make_allocator(num_large=1)
        alloc.allocate_page("a", "r1")
        page = alloc.allocate_page("a", "r2")
        assert page is not None
        assert alloc.groups["a"].request_id[page] == "r2"  # re-associated

    def test_whole_large_page_freed_when_request_completes(self):
        alloc = make_allocator()
        pages = [alloc.allocate_page("a", "r1") for _ in range(3)]
        assert alloc.lcm.num_allocated == 1
        for p in pages:
            alloc.release_page("a", p, cacheable=False)
        assert alloc.lcm.num_allocated == 0
        assert alloc.lcm.num_free == 4
        assert alloc.groups["a"].state == [None] * 12


class TestInterleavingFragmentation:
    def test_interleaved_requests_fragment_without_request_awareness(self):
        """Figure 8: with request-aware allocation, interleaved alloc of two
        requests still frees whole large pages when one request completes."""
        alloc = make_allocator(num_large=4)
        a_pages, b_pages = [], []
        for _ in range(3):
            a_pages.append(alloc.allocate_page("a", "reqA"))
            b_pages.append(alloc.allocate_page("a", "reqB"))
        # Each request's pages are packed into its own large pages.
        assert len({large_of(alloc, "a", p) for p in a_pages}) == 1
        assert len({large_of(alloc, "a", p) for p in b_pages}) == 1
        before = alloc.lcm.num_free
        for p in a_pages:
            alloc.release_page("a", p, cacheable=False)
        assert alloc.lcm.num_free == before + 1


class TestEvictionSteps:
    def test_step3_evicts_foreign_large_page(self):
        alloc = make_allocator(num_large=1)
        pages = [alloc.allocate_page("a", "r1") for _ in range(3)]
        for p in pages:
            cache(alloc, "a", p, hash(("a", p)))
            alloc.release_page("a", p, cacheable=True)
        # All of group a's pages are evictable; group b needs memory.
        page = alloc.allocate_page("b", "r2")
        assert page is not None and alloc.groups["b"].state[page] is USED
        assert alloc.num_large_evictions == 1
        assert len(alloc.groups["a"].cache_index) == 0
        assert alloc.groups["a"].state == [None] * 3

    def test_step5_evicts_small_page_in_place(self):
        alloc = make_allocator(num_large=1)
        pages = [alloc.allocate_page("a", "r1") for _ in range(3)]
        # Only one becomes evictable; the others stay used, pinning the
        # large page (step 3 unavailable).
        victim = pages[0]
        cache(alloc, "a", victim, 123)
        alloc.release_page("a", victim, cacheable=True)
        page = alloc.allocate_page("a", "r2")
        assert page is not None
        assert page == victim
        assert alloc.groups["a"].block_hash[page] is None
        assert alloc.groups["a"].num_evictions == 1

    def test_allocation_fails_when_all_used(self):
        alloc = make_allocator(num_large=1)
        for _ in range(3):
            assert alloc.allocate_page("a", "r1") is not None
        assert alloc.allocate_page("b", "r2") is None

    def test_large_eviction_prefers_lru(self):
        alloc = make_allocator(num_large=2)
        old = [alloc.allocate_page("a", "old") for _ in range(3)]
        new = [alloc.allocate_page("a", "new") for _ in range(3)]
        for t, group in ((1.0, old), (2.0, new)):
            for p in group:
                cache(alloc, "a", p, hash((t, p)), last_access=t)
                alloc.release_page("a", p, cacheable=True)
        alloc.allocate_page("b", "r")
        # The old request's large page was the victim.
        state = alloc.groups["a"].state
        assert all(state[p] is None for p in old)
        assert all(state[p] is EVICTABLE for p in new)

    def test_large_eviction_keeps_lru_order_of_biased_stamps(self):
        """Prefill slide-outs are stamped ``now - 1e15``: a large page's key
        is the true max of such stamps (it used to be clamped to -1.0, so
        the large page released first was the victim)."""
        alloc = make_allocator(num_large=2)
        group = alloc.groups["a"]
        newer = [alloc.allocate_page("a", "newer") for _ in range(3)]
        older = [alloc.allocate_page("a", "older") for _ in range(3)]
        for stamp, run in ((10.0 - 1e15, newer), (5.0 - 1e15, older)):
            for prefix, p in enumerate(run):
                cache(alloc, "a", p, hash((stamp, p)), last_access=stamp - prefix)
                group.prefix_length[p] = float(prefix)
            alloc.release_pages("a", run)
        newer_large, older_large = large_of(alloc, "a", newer[0]), large_of(alloc, "a", older[0])
        assert alloc.large_evictor.priority_of(newer_large) == (10.0 - 1e15, 2.0)
        assert alloc.large_evictor.priority_of(older_large) == (5.0 - 1e15, 2.0)
        seen = alloc.observer = RecordingObserver()
        alloc.allocate_page("b", "r")  # step 3
        assert [(e.page_id, e.last_access) for e in seen.recent(PageEvicted)] == [
            (older_large, 5.0 - 1e15)
        ]
        assert all(group.state[p] is None for p in older)
        assert newer_large in alloc.large_evictor
        alloc.check_invariants()


class TestPrefixCacheTransitions:
    def test_release_without_hash_frees(self):
        alloc = make_allocator()
        page = alloc.allocate_page("a", "r1")
        alloc.release_page("a", page, cacheable=True)
        # No hash -> nothing to cache: the page empties, and with it its
        # large page, which goes back uncarved.
        assert alloc.groups["a"].state[page] is None
        assert alloc.lcm.num_allocated == 0

    def test_release_with_hash_becomes_evictable(self):
        alloc = make_allocator()
        page = alloc.allocate_page("a", "r1")
        alloc.register_block_hash("a", page, 555)
        alloc.release_page("a", page, cacheable=True)
        assert alloc.groups["a"].state[page] is EVICTABLE
        assert alloc.groups["a"].cache_index.probe(555) == page

    def test_acquire_cached_revives_page(self):
        alloc = make_allocator()
        group = alloc.groups["a"]
        page = alloc.allocate_page("a", "r1")
        group.num_tokens[page] = 4
        alloc.register_block_hash("a", page, 555)
        alloc.release_page("a", page, cacheable=True)
        got = alloc.acquire_cached("a", 555, "r2")
        assert got == page
        assert group.state[got] is USED and group.ref_count[got] == 1
        assert group.request_id[got] == "r2"

    def test_shared_page_refcount(self):
        alloc = make_allocator()
        group = alloc.groups["a"]
        page = alloc.allocate_page("a", "r1")
        alloc.register_block_hash("a", page, 7)
        got = alloc.acquire_cached("a", 7, "r2")
        assert group.ref_count[got] == 2
        alloc.release_page("a", page)
        assert group.state[page] is USED  # r2 still holds it
        alloc.release_page("a", page)
        assert group.state[page] is EVICTABLE

    def test_acquire_miss(self):
        alloc = make_allocator()
        assert alloc.acquire_cached("a", 999, "r") is None

    def test_duplicate_hash_frees_displaced_page(self):
        alloc = make_allocator()
        p1 = alloc.allocate_page("a", "r1")
        alloc.register_block_hash("a", p1, 42)
        alloc.release_page("a", p1, cacheable=True)
        p2 = alloc.allocate_page("a", "r2")
        alloc.register_block_hash("a", p2, 42)
        # The older duplicate was evictable -> freed outright (and its
        # now-empty large page with it).
        assert alloc.groups["a"].state[p1] is None
        assert alloc.lcm.owner_of(large_of(alloc, "a", p1)) is None
        assert alloc.groups["a"].cache_index.probe(42) == p2

    def test_caching_disabled_never_caches(self):
        alloc = make_allocator(enable_prefix_caching=False)
        page = alloc.allocate_page("a", "r1")
        alloc.register_block_hash("a", page, 1)
        assert alloc.groups["a"].block_hash[page] is None
        alloc.release_page("a", page, cacheable=True)
        assert alloc.groups["a"].state[page] is None  # freed, large page too
        assert not alloc.groups["a"].cache_index


class TestAccounting:
    def test_stats_match_slow_scan(self):
        alloc = make_allocator(num_large=4)
        pages = []
        for r in ("r1", "r2"):
            for _ in range(2):
                p = alloc.allocate_page("a", r)
                alloc.groups["a"].num_tokens[p] = 3
                pages.append(p)
        alloc.allocate_page("b", "r1")
        alloc.register_block_hash("a", pages[0], 9)
        alloc.release_page("a", pages[0], cacheable=True)
        fast, slow = alloc.stats(), alloc.stats_slow()
        assert fast.used_bytes_by_group == slow.used_bytes_by_group
        assert fast.evictable_bytes_by_group == slow.evictable_bytes_by_group
        assert fast.internal_frag_bytes == slow.internal_frag_bytes

    def test_invariants_hold_through_churn(self):
        alloc = make_allocator(num_large=3)
        import random

        rng = random.Random(0)
        live = []
        for i in range(200):
            if live and rng.random() < 0.4:
                gid, page = live.pop(rng.randrange(len(live)))
                alloc.release_page(gid, page, cacheable=rng.random() < 0.5)
            else:
                gid = rng.choice(["a", "b"])
                page = alloc.allocate_page(gid, f"r{rng.randrange(3)}")
                if page is None:
                    continue
                if rng.random() < 0.5:
                    alloc.register_block_hash(gid, page, rng.randrange(10**9))
                alloc.groups[gid].last_access[page] = float(i)
                live.append((gid, page))
            alloc.check_invariants()

    def test_capacity_counts_free_and_carvable_pages(self):
        alloc = make_allocator(num_large=2)
        assert fits_exactly(alloc, "a", 6)  # 2 large x 3
        alloc.allocate_page("a", "r")
        assert fits_exactly(alloc, "a", 5)


def fits_exactly(alloc, group_id, n):
    """``n`` pages of ``group_id`` fit and ``n + 1`` do not."""
    return alloc.groups_that_fit([(group_id, n)], "s") == 1 and not alloc.groups_that_fit(
        [(group_id, n + 1)], "s"
    )


class TestReclaimableOverlapRegression:
    def test_fully_evictable_own_pages_not_double_counted(self):
        """A group's own small pages inside a fully-evictable large page
        used to show up twice in the capacity bound: once in the group's
        evictor term and once via the large-evictor term (pre-fix it
        reported 6 reclaimable pages while the group only has 3)."""
        alloc = make_allocator(num_large=1)
        pages = [alloc.allocate_page("a", "r1") for _ in range(3)]
        for p in pages:
            cache(alloc, "a", p, hash(("a", p)))
            alloc.release_page("a", p, cacheable=True)
        assert len(alloc.large_evictor) == 1
        assert len(alloc.groups["a"].evictor) == 3
        # Capacity can never exceed the pages that physically exist (3).
        assert fits_exactly(alloc, "a", 3)
        # Group b sees the fully-evictable large page once, as 2 b-slots.
        assert fits_exactly(alloc, "b", 2)
        alloc.check_invariants()

    def test_partially_evictable_large_not_affected(self):
        alloc = make_allocator(num_large=1)
        pages = [alloc.allocate_page("a", "r1") for _ in range(3)]
        cache(alloc, "a", pages[0], 1234)
        alloc.release_page("a", pages[0], cacheable=True)
        # 1 evictable + 2 used: large page not fully evictable.
        assert len(alloc.large_evictor) == 0
        assert fits_exactly(alloc, "a", 1)


class TestRequestAwareAblation:
    def test_ablation_first_fit_emits_step0_and_skips_probe(self):
        """With request_aware=False the first-fit hit must be tagged
        step=0 (pre-fix it reported step=4 after a pointless step-1
        probe of the per-request buckets)."""
        alloc = make_allocator(num_large=1, request_aware=False)
        seen = alloc.observer = RecordingObserver()
        alloc.allocate_page("a", "r1")   # empty pool -> carve (step 2)
        alloc.allocate_page("a", "r2")   # first-fit from the pool
        assert [e.steps for e in seen.recent(PagesAllocated)] == [(2,), (0,)]

    def test_ablation_ignores_request_association(self):
        alloc = make_allocator(num_large=2, request_aware=False)
        anchor = alloc.allocate_page("a", "r1")  # keeps the large page alive
        p1 = alloc.allocate_page("a", "r1")
        alloc.release_page("a", p1, cacheable=False)
        # r2 gets r1's slot straight from the pool: no step-2 carve.
        p2 = alloc.allocate_page("a", "r2")
        assert p2 == p1
        assert large_of(alloc, "a", p2) == large_of(alloc, "a", anchor)
        assert alloc.lcm.num_allocated == 1


class TestBatchedAllocation:
    def test_batch_emits_exactly_one_event(self):
        alloc = make_allocator(num_large=4)
        seen = alloc.observer = RecordingObserver()
        pages = alloc.allocate_pages("a", "r1", 5)
        assert pages is not None and len(pages) == 5
        (ev,) = seen.recent(PagesAllocated)
        assert ev.page_ids == tuple(pages)
        assert len(ev.steps) == 5

    def test_batch_matches_singles(self):
        one_by_one = make_allocator(num_large=4)
        batched = make_allocator(num_large=4)
        singles = [one_by_one.allocate_page("a", "r1") for _ in range(6)]
        batch = batched.allocate_pages("a", "r1", 6)
        assert all(p is not None for p in singles)
        assert batch is not None
        assert singles == batch
        assert (one_by_one.stats().free_bytes == batched.stats().free_bytes)
        one_by_one.check_invariants()
        batched.check_invariants()

    def test_batch_is_all_or_nothing(self):
        alloc = make_allocator(num_large=1)  # 3 'a' slots total
        seen = alloc.observer = RecordingObserver()
        before_free = alloc.stats().free_bytes
        assert alloc.allocate_pages("a", "r1", 4) is None
        # Refused before any page moved: nothing was taken or released ...
        assert seen.records == []
        # ... leaving the pool exactly where it started.
        assert alloc.stats().free_bytes == before_free
        fast, slow = alloc.stats(), alloc.stats_slow()
        assert fast.used_bytes_by_group == slow.used_bytes_by_group
        alloc.check_invariants()

    def test_empty_batch_is_a_noop(self):
        alloc = make_allocator()
        seen = alloc.observer = RecordingObserver()
        assert alloc.allocate_pages("a", "r1", 0) == []
        assert seen.records == []

    def test_batch_steps_follow_paper_order(self):
        alloc = make_allocator(num_large=2)
        seen = alloc.observer = RecordingObserver()
        pages = alloc.allocate_pages("a", "r1", 4)
        assert pages is not None
        (ev,) = seen.recent(PagesAllocated)
        # First page carves (step 2), later ones drain the request's own
        # free slots (step 1), spilling into a second carve when the
        # first large page fills.
        assert ev.steps[0] == 2
        assert set(ev.steps) <= {1, 2}

    def test_batch_stats_match_slow_recount(self):
        alloc = make_allocator(num_large=4)
        for rid, n in (("r1", 3), ("r2", 2), ("r1", 2)):
            alloc.allocate_pages("a", rid, n)
        fast, slow = alloc.stats(), alloc.stats_slow()
        assert fast.used_bytes_by_group == slow.used_bytes_by_group
        assert fast.free_bytes == slow.free_bytes
        alloc.check_invariants()
        alloc.check_no_physical_overlap()
