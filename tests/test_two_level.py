"""Tests for the two-level allocator and the five-step algorithm (§5.4)."""

import pytest

from repro.core.layer_policy import (
    FULL_ATTENTION,
    GroupSpec,
    SLIDING_WINDOW,
    make_policy,
)
from repro.core.lcm_allocator import OutOfLargePagesError
from repro.core.pages import PageState
from repro.core.sequence import TEXT
from repro.core.two_level import TwoLevelAllocator

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


class TestCarving:
    def test_first_allocation_carves_large_page(self):
        alloc = make_allocator()
        page = alloc.allocate_page("a", "r1")
        assert page is not None and page.is_used
        assert alloc.lcm.num_allocated == 1
        assert alloc.groups["a"].num_free == 2  # 3 per large, 1 taken

    def test_page_sizes_per_group(self):
        alloc = make_allocator()
        assert alloc.groups["a"].small_per_large == 3
        assert alloc.groups["b"].small_per_large == 2

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
        assert p1.large_page_id == p2.large_page_id

    def test_step2_new_request_gets_new_large_page(self):
        alloc = make_allocator()
        p1 = alloc.allocate_page("a", "r1")
        p2 = alloc.allocate_page("a", "r2")
        # r1's large page still has empty slots, but r2 carves its own
        # (step 2 before step 4) to avoid Figure 8a interleaving.
        assert p1.large_page_id != p2.large_page_id

    def test_step4_falls_back_to_foreign_pages(self):
        alloc = make_allocator(num_large=1)
        alloc.allocate_page("a", "r1")
        page = alloc.allocate_page("a", "r2")
        assert page is not None
        assert page.request_id == "r2"  # re-associated

    def test_whole_large_page_freed_when_request_completes(self):
        alloc = make_allocator()
        pages = [alloc.allocate_page("a", "r1") for _ in range(3)]
        assert alloc.lcm.num_allocated == 1
        for p in pages:
            alloc.release_page("a", p.page_id, cacheable=False)
        assert alloc.lcm.num_allocated == 0
        assert alloc.lcm.num_free == 4


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
        assert len({p.large_page_id for p in a_pages}) == 1
        assert len({p.large_page_id for p in b_pages}) == 1
        before = alloc.lcm.num_free
        for p in a_pages:
            alloc.release_page("a", p.page_id, cacheable=False)
        assert alloc.lcm.num_free == before + 1


class TestEvictionSteps:
    def test_step3_evicts_foreign_large_page(self):
        alloc = make_allocator(num_large=1)
        pages = [alloc.allocate_page("a", "r1") for _ in range(3)]
        for p in pages:
            p.block_hash = hash(("a", p.page_id))
            alloc.groups["a"].cache_index.insert(p.block_hash, p.page_id)
            p.last_access = 1.0
            alloc.release_page("a", p.page_id, cacheable=True)
        # All of group a's pages are evictable; group b needs memory.
        page = alloc.allocate_page("b", "r2")
        assert page is not None and page.group_id == "b"
        assert alloc.num_large_evictions == 1
        assert len(alloc.groups["a"].cache_index) == 0

    def test_step5_evicts_small_page_in_place(self):
        alloc = make_allocator(num_large=1)
        pages = [alloc.allocate_page("a", "r1") for _ in range(3)]
        # Only one becomes evictable; the others stay used, pinning the
        # large page (step 3 unavailable).
        victim = pages[0]
        victim.block_hash = 123
        alloc.groups["a"].cache_index.insert(123, victim.page_id)
        alloc.release_page("a", victim.page_id, cacheable=True)
        page = alloc.allocate_page("a", "r2")
        assert page is not None
        assert page.page_id == victim.page_id
        assert page.block_hash is None
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
                p.block_hash = hash((t, p.page_id))
                alloc.groups["a"].cache_index.insert(p.block_hash, p.page_id)
                p.last_access = t
                alloc.release_page("a", p.page_id, cacheable=True)
        alloc.allocate_page("b", "r")
        # The old request's large page was the victim.
        assert all(alloc.groups["a"].pages.get(p.page_id) is None for p in old)
        assert all(alloc.groups["a"].pages.get(p.page_id) is not None for p in new)


class TestPrefixCacheTransitions:
    def test_release_without_hash_frees(self):
        alloc = make_allocator()
        page = alloc.allocate_page("a", "r1")
        alloc.release_page("a", page.page_id, cacheable=True)
        assert page.is_empty  # no hash -> nothing to cache

    def test_release_with_hash_becomes_evictable(self):
        alloc = make_allocator()
        page = alloc.allocate_page("a", "r1")
        alloc.register_block_hash("a", page, 555)
        alloc.release_page("a", page.page_id, cacheable=True)
        assert page.is_evictable
        assert alloc.groups["a"].cache_index.probe(555) == page.page_id

    def test_acquire_cached_revives_page(self):
        alloc = make_allocator()
        page = alloc.allocate_page("a", "r1")
        page.num_tokens = 4
        alloc.register_block_hash("a", page, 555)
        alloc.release_page("a", page.page_id, cacheable=True)
        got = alloc.acquire_cached("a", 555, "r2")
        assert got is page
        assert got.is_used and got.ref_count == 1
        assert got.request_id == "r2"

    def test_shared_page_refcount(self):
        alloc = make_allocator()
        page = alloc.allocate_page("a", "r1")
        alloc.register_block_hash("a", page, 7)
        got = alloc.acquire_cached("a", 7, "r2")
        assert got.ref_count == 2
        alloc.release_page("a", page.page_id)
        assert page.is_used  # r2 still holds it
        alloc.release_page("a", page.page_id)
        assert page.is_evictable

    def test_acquire_miss(self):
        alloc = make_allocator()
        assert alloc.acquire_cached("a", 999, "r") is None

    def test_duplicate_hash_frees_displaced_page(self):
        alloc = make_allocator()
        p1 = alloc.allocate_page("a", "r1")
        alloc.register_block_hash("a", p1, 42)
        alloc.release_page("a", p1.page_id, cacheable=True)
        p2 = alloc.allocate_page("a", "r2")
        alloc.register_block_hash("a", p2, 42)
        # The older duplicate was evictable -> freed outright.
        assert p1.is_empty
        assert alloc.groups["a"].cache_index.probe(42) == p2.page_id

    def test_caching_disabled_never_caches(self):
        alloc = make_allocator(enable_prefix_caching=False)
        page = alloc.allocate_page("a", "r1")
        alloc.register_block_hash("a", page, 1)
        assert page.block_hash is None
        alloc.release_page("a", page.page_id, cacheable=True)
        assert page.is_empty


class TestAccounting:
    def test_stats_match_slow_scan(self):
        alloc = make_allocator(num_large=4)
        pages = []
        for r in ("r1", "r2"):
            for _ in range(2):
                p = alloc.allocate_page("a", r)
                p.num_tokens = 3
                pages.append(p)
        alloc.allocate_page("b", "r1")
        alloc.register_block_hash("a", pages[0], 9)
        alloc.release_page("a", pages[0].page_id, cacheable=True)
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
                alloc.release_page(gid, page.page_id, cacheable=rng.random() < 0.5)
            else:
                gid = rng.choice(["a", "b"])
                page = alloc.allocate_page(gid, f"r{rng.randrange(3)}")
                if page is None:
                    continue
                if rng.random() < 0.5:
                    alloc.register_block_hash(gid, page, rng.randrange(10**9))
                page.last_access = float(i)
                live.append((gid, page))
            alloc.check_invariants()

    def test_reclaimable_pages(self):
        alloc = make_allocator(num_large=2)
        assert alloc.reclaimable_pages("a") == 6  # 2 large x 3
        page = alloc.allocate_page("a", "r")
        assert alloc.reclaimable_pages("a") == 5


class TestReclaimableOverlapRegression:
    def test_fully_evictable_own_pages_not_double_counted(self):
        """A group's own small pages inside a fully-evictable large page
        used to show up twice in reclaimable_pages: once in the group's
        evictor term and once via the large-evictor term (pre-fix this
        reported 6 reclaimable pages while the group only has 3)."""
        alloc = make_allocator(num_large=1)
        pages = [alloc.allocate_page("a", "r1") for _ in range(3)]
        for p in pages:
            alloc.register_block_hash("a", p, hash(("a", p.page_id)))
            p.last_access = 1.0
            alloc.release_page("a", p.page_id, cacheable=True)
        assert len(alloc.large_evictor) == 1
        assert len(alloc.groups["a"].evictor) == 3
        # Bound can never exceed the pages that physically exist (3).
        assert alloc.reclaimable_pages("a") == 3
        # Group b sees the fully-evictable large page once, as 2 b-slots.
        assert alloc.reclaimable_pages("b") == 2
        alloc.check_invariants()

    def test_partially_evictable_large_not_affected(self):
        alloc = make_allocator(num_large=1)
        pages = [alloc.allocate_page("a", "r1") for _ in range(3)]
        alloc.register_block_hash("a", pages[0], 1234)
        pages[0].last_access = 1.0
        alloc.release_page("a", pages[0].page_id, cacheable=True)
        # 1 evictable + 2 used: large page not fully evictable.
        assert len(alloc.large_evictor) == 0
        assert alloc.reclaimable_pages("a") == 1


class TestRequestAwareAblation:
    def test_ablation_first_fit_emits_step0_and_skips_probe(self):
        """With request_aware=False the first-fit hit must be tagged
        step=0 (pre-fix it reported step=4 after a pointless step-1
        probe of the per-request buckets)."""
        from repro.core.events import EventBus, PagesAllocated

        bus = EventBus()
        seen = []
        bus.subscribe(seen.append, [PagesAllocated])
        alloc = make_allocator(num_large=1, request_aware=False, events=bus)
        alloc.allocate_page("a", "r1")   # empty pool -> carve (step 2)
        alloc.allocate_page("a", "r2")   # first-fit from the pool
        assert [e.steps for e in seen] == [(2,), (0,)]

    def test_ablation_ignores_request_association(self):
        alloc = make_allocator(num_large=2, request_aware=False)
        anchor = alloc.allocate_page("a", "r1")  # keeps the large page alive
        p1 = alloc.allocate_page("a", "r1")
        alloc.release_page("a", p1.page_id, cacheable=False)
        # r2 gets r1's slot straight from the pool: no step-2 carve.
        p2 = alloc.allocate_page("a", "r2")
        assert p2.page_id == p1.page_id
        assert p2.large_page_id == anchor.large_page_id
        assert alloc.lcm.num_allocated == 1


class TestBatchedAllocation:
    def test_batch_emits_exactly_one_event(self):
        from repro.core.events import EventBus, PagesAllocated

        bus = EventBus()
        seen = []
        bus.subscribe(seen.append, [PagesAllocated])
        alloc = make_allocator(num_large=4, events=bus)
        pages = alloc.allocate_pages("a", "r1", 5)
        assert pages is not None and len(pages) == 5
        (ev,) = seen
        assert ev.num_pages == 5
        assert ev.page_ids == tuple(p.page_id for p in pages)
        assert len(ev.steps) == 5

    def test_batch_matches_singles(self):
        one_by_one = make_allocator(num_large=4)
        batched = make_allocator(num_large=4)
        singles = [one_by_one.allocate_page("a", "r1") for _ in range(6)]
        batch = batched.allocate_pages("a", "r1", 6)
        assert all(p is not None for p in singles)
        assert batch is not None
        assert [p.page_id for p in singles] == [p.page_id for p in batch]
        assert (one_by_one.stats().free_bytes == batched.stats().free_bytes)
        one_by_one.check_invariants()
        batched.check_invariants()

    def test_batch_is_all_or_nothing(self):
        from repro.core.events import EventBus, PageReleased

        bus = EventBus()
        released = []
        bus.subscribe(released.append, [PageReleased])
        alloc = make_allocator(num_large=1, events=bus)  # 3 'a' slots total
        before_free = alloc.stats().free_bytes
        assert alloc.allocate_pages("a", "r1", 4) is None
        # Partial takes were rolled back (non-cacheably) ...
        assert all(not ev.cached for ev in released)
        # ... leaving the pool exactly where it started.
        assert alloc.stats().free_bytes == before_free
        fast, slow = alloc.stats(), alloc.stats_slow()
        assert fast.used_bytes_by_group == slow.used_bytes_by_group
        alloc.check_invariants()

    def test_empty_batch_is_a_noop(self):
        from repro.core.events import EventBus, PagesAllocated

        bus = EventBus()
        seen = []
        bus.subscribe(seen.append, [PagesAllocated])
        alloc = make_allocator(events=bus)
        assert alloc.allocate_pages("a", "r1", 0) == []
        assert seen == []

    def test_batch_steps_follow_paper_order(self):
        alloc = make_allocator(num_large=2)
        from repro.core.events import EventBus, PagesAllocated

        bus = EventBus()
        seen = []
        bus.subscribe(seen.append, [PagesAllocated])
        alloc.events = bus
        pages = alloc.allocate_pages("a", "r1", 4)
        assert pages is not None
        (ev,) = seen
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
