"""FreePool index tests, plus the bucket-leak regression on the allocator."""

import pytest

from repro.core.free_pool import FreePool
from repro.core.layer_policy import FULL_ATTENTION, GroupSpec, make_policy
from repro.core.sequence import TEXT
from repro.core.two_level import TwoLevelAllocator

T = frozenset({TEXT})


def make_allocator(num_large=4):
    specs = {
        "a": GroupSpec("a", FULL_ATTENTION, 1, per_token_bytes=64,
                       tokens_per_page=4, accepted_tags=T),
    }
    policies = {g: make_policy(s) for g, s in specs.items()}
    return TwoLevelAllocator(256 * 3 * num_large, specs, policies)


class TestFreePool:
    def test_push_pop_lifo_within_request(self):
        pool = FreePool()
        for pid in (1, 2, 3):
            pool.push(pid, "r1")
        assert pool.pop("r1") == 3
        assert pool.pop("r1") == 2
        assert pool.pop("r1") == 1
        assert pool.pop("r1") is None
        assert len(pool) == 0

    def test_pop_misses_other_requests(self):
        pool = FreePool()
        pool.push(1, "r1")
        assert pool.pop("r2") is None
        assert pool.pop(None) is None
        assert len(pool) == 1

    def test_pop_any_serves_oldest_bucket_first(self):
        pool = FreePool()
        pool.push(1, "r1")
        pool.push(2, "r2")
        pool.push(3, "r1")
        assert pool.pop_any() == 3  # r1 bucket first (oldest), LIFO within
        assert pool.pop_any() == 1
        assert pool.pop_any() == 2
        assert pool.pop_any() is None

    def test_duplicate_push_raises(self):
        pool = FreePool()
        pool.push(1, "r1")
        with pytest.raises(ValueError):
            pool.push(1, "r2")

    def test_discard(self):
        pool = FreePool()
        pool.push(1, "r1")
        pool.push(2, "r1")
        assert pool.discard(1) is True
        assert pool.discard(1) is False
        assert 1 not in pool and 2 in pool
        pool.check_consistent()

    def test_returning_a_large_page_drops_only_its_slots(self):
        alloc = make_allocator(num_large=2)  # 3 small pages per large page
        group = alloc.groups["a"]
        (first,) = alloc.allocate_pages("a", "r1", 1)
        (second,) = alloc.allocate_pages("a", "r2", 1)
        spl = group.small_per_large
        spare = {
            page_id
            for page in (first, second)
            for page_id in group.slots(page // spl)
            if page_id != page
        }
        assert set(group.free_pool) == spare
        alloc.release_pages("a", [first], cacheable=False)
        assert alloc.lcm.owner_of(first // spl) is None
        assert set(group.free_pool) == set(group.slots(second // spl)) - {second}
        group.free_pool.check_consistent()

    def test_buckets_deleted_when_exhausted(self):
        pool = FreePool()
        for i in range(5):
            pool.push(i, f"r{i}")
        for i in range(5):
            assert pool.pop(f"r{i}") == i
        assert pool.num_buckets == 0
        pool.check_consistent()


class TestBucketLeakRegression:
    def test_bucket_count_stays_bounded_under_request_churn(self):
        """Pre-fix, draining a request's bucket via pop_free/pop_free_any
        left the empty list behind, so the dict grew by one bucket per
        churned request id.  The indexed pool deletes exhausted buckets
        eagerly: bucket count is bounded by the pooled-page count."""
        alloc = make_allocator(num_large=1)  # one large page, 3 small slots
        group = alloc.groups["a"]
        anchor = alloc.allocate_page("a", "anchor")
        assert anchor is not None  # pins the large page forever
        for i in range(300):
            rid = f"r{i}"
            # Both remaining slots go to rid (step 4 re-associates), then
            # free again, landing in a fresh per-request bucket each time.
            p1 = alloc.allocate_page("a", rid)
            p2 = alloc.allocate_page("a", rid)
            assert p1 is not None and p2 is not None
            alloc.release_page("a", p1, cacheable=False)
            alloc.release_page("a", p2, cacheable=False)
            assert group.free_buckets <= group.num_free
        assert group.free_buckets <= 2
        alloc.check_invariants()

    def test_long_churn_full_lifecycle_bounded(self):
        """Request churn through carve/release cycles (large pages coming
        and going) never accumulates buckets either."""
        alloc = make_allocator(num_large=4)
        group = alloc.groups["a"]
        for i in range(200):
            rid = f"r{i}"
            pages = [alloc.allocate_page("a", rid) for _ in range(3)]
            keep = pages[: i % 3]
            for p in pages[i % 3:]:
                alloc.release_page("a", p, cacheable=False)
            assert group.free_buckets <= group.num_free
            for p in keep:
                alloc.release_page("a", p, cacheable=False)
        assert group.free_buckets == 0
        assert group.num_free == 0
        alloc.check_invariants()
