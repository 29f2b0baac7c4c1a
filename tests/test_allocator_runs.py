"""Run forms of the allocator: batching invariance, a golden, observers.

Every page transition of :class:`TwoLevelAllocator` has one run form
(``allocate_pages``, ``release_pages``, ``acquire_cached_run``); the
per-page names are delegates.  These tests pin down that a run is exactly
its pages taken one at a time:

* a hypothesis property drives two allocators through the same random
  op sequence, one issuing runs and one issuing runs of one, and compares
  everything observable after every op;
* one scripted sequence is digested and compared with the value recorded
  on the commit *before* the run forms existed (per-page code), so "same
  page, same step, same victim" is pinned against the old implementation
  and not only against itself;
* with a subscriber attached the event stream and the cache-index
  counters are those of the per-page loop.
"""

import copy
import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.events import (
    EventBus,
    LargePageCarved,
    PageEvicted,
    PageReleased,
    PagesAllocated,
)
from repro.core.layer_policy import FULL_ATTENTION, GroupSpec, make_policy
from repro.core.sequence import TEXT
from repro.core.two_level import TwoLevelAllocator

from .test_admission_cache import admission_inputs

T = frozenset({TEXT})
GROUPS = ("one", "two", "four")  # small pages per large page: 1, 2, 4
REQUESTS = ("r0", "r1", "r2", "r3")


def make_allocator(num_large=12, caching=True, request_aware=True):
    specs = {
        g: GroupSpec(g, FULL_ATTENTION, 1, per_token_bytes=bytes_, tokens_per_page=4,
                     accepted_tags=T)
        for g, bytes_ in (("one", 256), ("two", 128), ("four", 64))
    }
    alloc = TwoLevelAllocator(
        1024 * num_large, specs, {g: make_policy(s) for g, s in specs.items()},
        enable_prefix_caching=caching, request_aware=request_aware,
        events=EventBus(capacity=1 << 20),
    )
    assert [alloc.groups[g].small_per_large for g in GROUPS] == [1, 2, 4]
    return alloc


def other_events(alloc):
    """The captured stream without its ``PagesAllocated`` records: a run
    publishes that record once, after all of its carve and eviction
    records, so runs of one interleave it differently (``Driver.allocate``
    reports the steps instead)."""
    return [repr(e) for e in alloc.events.recent() if not isinstance(e, PagesAllocated)]


def snapshot(alloc):
    """Everything observable about the pool, as a comparable value."""
    groups = []
    for group_id, group in alloc.groups.items():
        pages = tuple(
            (p.page_id, p.state.name, p.ref_count, p.request_id, p.large_page_id,
             p.slot, p.block_hash, p.num_tokens, p.last_access, p.prefix_length)
            for p in sorted(group.pages.values(), key=lambda p: p.page_id)
        )
        pool = copy.deepcopy(group.free_pool)
        pop_order = tuple(iter(pool.pop_any, None))
        groups.append((
            group_id, pages, tuple(group.evictor.items_in_order()), pop_order,
            group.n_used, group.n_evictable, group.n_empty_carved,
            group.used_filled_tokens, group.num_evictions, group.quota,
            group.cache_index.hits, group.cache_index.misses,
            alloc.fully_evictable_large_pages(group_id),
            alloc.large_pages_owned(group_id),
        ))
    return (
        tuple(groups),
        tuple(alloc.large_evictor.items_in_order()),
        tuple(
            (large.page_id, large.owner_group, tuple(large.small_page_ids))
            for large in map(alloc.lcm.page, range(alloc.lcm.num_pages))
        ),
        alloc.lcm.num_free,
        alloc.num_large_evictions,
    )


class Driver:
    """Applies abstract ops to one allocator in one of three dialects:
    ``run`` (the run forms), ``single`` (runs of one) and ``per_page``
    (the three per-page names, all the parent commit had)."""

    def __init__(self, dialect, **kwargs):
        self.dialect = dialect
        self.alloc = make_allocator(**kwargs)
        self.held = {g: [] for g in GROUPS}  # references held, in order
        self.clock = 0.0
        self.allocated = []  # every PagesAllocated record
        self.alloc.events.subscribe(self.allocated.append, [PagesAllocated])

    def release_ids(self, gid, ids, cacheable):
        alloc = self.alloc
        if self.dialect == "run":
            alloc.release_pages(gid, ids, cacheable)
        elif self.dialect == "single":
            for page_id in ids:
                alloc.release_pages(gid, [page_id], cacheable)
        else:
            for page_id in ids:
                alloc.release_page(gid, page_id, cacheable=cacheable)

    def allocate(self, gid, rid, n):
        """``(page ids, steps)`` of the run, ``None`` if it rolled back."""
        alloc = self.alloc
        mark = len(self.allocated)
        if self.dialect != "single":
            pages = alloc.allocate_pages(gid, rid, n)
        else:
            pages = []
            for _ in range(n):
                got = alloc.allocate_pages(gid, rid, 1)
                if got is None:  # all-or-nothing, as the run rolls back
                    self.release_ids(gid, [p.page_id for p in reversed(pages)], False)
                    pages = None
                    break
                pages.extend(got)
        if pages is None:
            return None
        self.held[gid].extend(p.page_id for p in pages)
        steps = [step for event in self.allocated[mark:] for step in event.steps]
        return [p.page_id for p in pages], steps

    def release(self, gid, count, cacheable, hash_base):
        """Release the ``count`` oldest held references of ``gid``; with a
        ``hash_base`` the pages are hashed first (small hash domain, so
        re-registration displaces stale copies)."""
        alloc = self.alloc
        ids, self.held[gid] = self.held[gid][:count], self.held[gid][count:]
        self.clock += 1.0
        for offset, page_id in enumerate(ids):
            page = alloc.groups[gid].pages[page_id]
            if hash_base is not None and page.block_hash is None:
                alloc.register_block_hash(gid, page, (hash_base + offset) % 24)
                alloc.groups[gid].note_fill(4 - page.num_tokens)
                page.num_tokens = 4
            page.last_access = self.clock - (offset % 2)
            page.prefix_length = float(offset)
        self.release_ids(gid, ids, cacheable)
        return ids

    def acquire(self, gid, hashes, rid):
        alloc = self.alloc
        if self.dialect == "run":
            pages = alloc.acquire_cached_run(gid, hashes, rid)
        else:
            pages = []
            for block_hash in hashes:
                if self.dialect == "single":
                    page = next(iter(alloc.acquire_cached_run(gid, [block_hash], rid)), None)
                else:
                    page = alloc.acquire_cached(gid, block_hash, rid)
                if page is None:
                    break
                pages.append(page)
        self.held[gid].extend(p.page_id for p in pages)
        return [p.page_id for p in pages]

    def touch(self, gid):
        self.clock += 1.0
        for page in self.alloc.groups[gid].pages.values():
            if page.is_evictable:
                page.last_access = self.clock
                self.alloc.touch_evictable(gid, page)
                return page.page_id
        return None

    def quota(self, gid, quota):
        return self.alloc.set_quota(gid, quota)

    def apply(self, op):
        """One op; asserts the version contract around it."""
        alloc = self.alloc
        before_inputs, before = admission_inputs(alloc), alloc.version
        result = getattr(self, op[0])(*op[1:])
        assert alloc.version >= before
        if admission_inputs(alloc) != before_inputs:
            assert alloc.version > before, op
        return result


OPS = st.one_of(
    st.tuples(st.just("allocate"), st.sampled_from(GROUPS), st.sampled_from(REQUESTS),
              st.integers(0, 9)),
    st.tuples(st.just("release"), st.sampled_from(GROUPS), st.integers(0, 7),
              st.booleans(), st.one_of(st.none(), st.integers(0, 23))),
    st.tuples(st.just("acquire"), st.sampled_from(GROUPS),
              st.lists(st.integers(0, 23), max_size=6), st.sampled_from(REQUESTS)),
    st.tuples(st.just("touch"), st.sampled_from(GROUPS)),
    st.tuples(st.just("quota"), st.sampled_from(GROUPS),
              st.one_of(st.none(), st.integers(0, 6))),
)


class TestBatchingInvariance:
    @settings(max_examples=120, deadline=None)
    @given(
        ops=st.lists(OPS, max_size=60),
        caching=st.booleans(),
        request_aware=st.booleans(),
    )
    def test_a_run_is_its_pages_one_at_a_time(self, ops, caching, request_aware):
        kwargs = dict(num_large=6, caching=caching, request_aware=request_aware)
        run, single = Driver("run", **kwargs), Driver("single", **kwargs)
        for op in ops:
            assert run.apply(op) == single.apply(op), op
            assert snapshot(run.alloc) == snapshot(single.alloc), op
            assert other_events(run.alloc) == other_events(single.alloc), op
            for alloc in (run.alloc, single.alloc):
                alloc.check_invariants()
                assert alloc.stats() == alloc.stats_slow()

    def test_a_bad_page_in_a_run_leaves_the_earlier_ones_released(self):
        alloc = make_allocator()
        a, b = alloc.allocate_pages("four", "r0", 2)
        with pytest.raises(ValueError):
            alloc.release_pages("four", [a.page_id, a.page_id, b.page_id], False)
        assert a.is_empty and b.is_used
        alloc.check_invariants()
        assert alloc.stats() == alloc.stats_slow()


# ----------------------------------------------------------------------
# The golden: one scripted sequence, digested on the parent commit
# ----------------------------------------------------------------------


def scripted_ops(seed=1234, count=900):
    rng = random.Random(seed)
    ops = []
    for _ in range(count):
        kind = rng.choices(
            ["allocate", "release", "acquire", "touch", "quota"], [8, 8, 4, 1, 1]
        )[0]
        gid = rng.choice(GROUPS)
        if kind == "allocate":
            ops.append((kind, gid, rng.choice(REQUESTS), rng.choice([1, 1, 2, 3, 5, 8, 13, 40])))
        elif kind == "release":
            ops.append((kind, gid, rng.randint(1, 10), rng.random() < 0.75,
                        rng.choice([None, rng.randrange(24)])))
        elif kind == "acquire":
            start = rng.randrange(24)
            ops.append((kind, gid, [(start + i) % 24 for i in range(rng.randint(1, 6))],
                        rng.choice(REQUESTS)))
        elif kind == "touch":
            ops.append((kind, gid))
        else:
            ops.append((kind, gid, rng.choice([None, None, 2, 4, 6])))
    return ops


def scripted_digest(dialect, **kwargs):
    driver = Driver(dialect, **kwargs)
    results = [driver.apply(op) for op in scripted_ops()]
    driver.alloc.check_invariants()
    payload = repr((results, snapshot(driver.alloc), other_events(driver.alloc)))
    steps = {step for event in driver.allocated for step in event.steps}
    return hashlib.sha256(payload.encode()).hexdigest()[:16], steps, results


#: Recorded at 9420a05 (the per-page implementation) with
#: ``scripted_digest("per_page", **config)``.
GOLDEN = {
    (True, True): "ee22cb82139fd8a2",
    (False, True): "c9fbdc1a3b5b61c6",
    (True, False): "276ae2a6e58af8d4",
}


class TestGoldenAgainstPerPageImplementation:
    @pytest.mark.parametrize("dialect", ["run", "single", "per_page"])
    @pytest.mark.parametrize("caching,request_aware", sorted(GOLDEN))
    def test_scripted_sequence_digest(self, dialect, caching, request_aware):
        digest, _, _ = scripted_digest(
            dialect, caching=caching, request_aware=request_aware
        )
        assert digest == GOLDEN[caching, request_aware]

    def test_the_script_reaches_every_step_and_fails_sometimes(self):
        _, steps, results = scripted_digest("run", caching=True, request_aware=True)
        assert steps == {1, 2, 3, 4, 5}
        assert any(r is None for r in results)  # a rolled-back allocate_pages
        _, steps, _ = scripted_digest("run", caching=True, request_aware=False)
        assert 0 in steps


# ----------------------------------------------------------------------
# Observers see the per-page stream
# ----------------------------------------------------------------------


def cached_run(alloc, gid, rid, n, first_hash=0):
    pages = alloc.allocate_pages(gid, rid, n)
    for offset, page in enumerate(pages):
        alloc.register_block_hash(gid, page, first_hash + offset)
        page.last_access = 1.0
    return pages


class TestObserversSeeTheSameStream:
    def test_run_release_publishes_one_record_per_page_in_order(self):
        alloc = make_allocator()
        pages = cached_run(alloc, "four", "r0", 6)
        shared = alloc.acquire_cached("four", 2, "r1")  # second reference
        plain = alloc.allocate_pages("four", "r0", 2)
        seen = []
        alloc.events.subscribe(seen.append, [PageReleased])
        ids = [p.page_id for p in pages + plain]
        alloc.release_pages("four", ids, cacheable=True)
        # The shared page only dropped a reference: no record for it.
        assert seen == [
            PageReleased("four", page_id, cached=page_id not in {p.page_id for p in plain})
            for page_id in ids if page_id != shared.page_id
        ]
        assert shared.is_used and shared.ref_count == 1

    def test_one_pages_allocated_record_per_call_with_every_step(self):
        alloc = make_allocator(num_large=2)
        seen = []
        alloc.events.subscribe(seen.append, [PagesAllocated, LargePageCarved, PageEvicted])
        pages = alloc.allocate_pages("four", "r0", 6)
        allocated = [e for e in seen if isinstance(e, PagesAllocated)]
        assert allocated == [PagesAllocated(
            "four", "r0", tuple(p.page_id for p in pages), (2, 1, 1, 1, 2, 1)
        )]
        # Carve records precede the allocation record they fed.
        assert [type(e) for e in seen] == [LargePageCarved, LargePageCarved, PagesAllocated]

    def test_failed_run_acquire_counts_lookups_like_the_loop(self):
        alloc = make_allocator()
        pages = cached_run(alloc, "two", "r0", 3)
        alloc.release_pages("two", [p.page_id for p in pages], cacheable=True)
        index = alloc.groups["two"].cache_index
        got = alloc.acquire_cached_run("two", [0, 1, 99, 2], "r1")
        # Two hits, the miss that stopped the run, and nothing past it.
        assert [p.page_id for p in got] == [pages[0].page_id, pages[1].page_id]
        assert (index.hits, index.misses) == (2, 1)
        assert pages[2].is_evictable

    def test_failed_allocate_leaves_its_evictions_behind(self):
        alloc = make_allocator(num_large=3)
        cached = cached_run(alloc, "one", "r0", 2)
        alloc.release_pages("one", [p.page_id for p in cached], cacheable=True)
        pinned = alloc.allocate_pages("one", "r1", 1)
        seen = []
        alloc.events.subscribe(seen.append, [PageEvicted, PageReleased, PagesAllocated])
        assert alloc.allocate_pages("one", "r2", 3) is None
        # Both cached large pages were evicted for it and stay evicted;
        # the two pages it took were released again, newest first.
        assert [type(e) for e in seen] == [PageEvicted, PageEvicted, PageReleased, PageReleased]
        assert alloc.num_large_evictions == 2
        assert len(alloc.groups["one"].cache_index) == 0
        assert alloc.lcm.num_free == 2 and pinned[0].is_used
        alloc.check_invariants()
