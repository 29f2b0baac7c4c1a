"""Run forms of the allocator: batching invariance, a golden, observers.

Every page transition of :class:`TwoLevelAllocator` has one run form
(``allocate_pages``, ``release_pages``, ``acquire_cached_run``); the
per-page names are delegates.  These tests pin down that a run is exactly
its pages taken one at a time:

* a hypothesis property drives two allocators through the same random
  op sequence, one issuing runs and one issuing runs of one, and compares
  everything observable after every op;
* one scripted sequence is digested and compared with a recorded value
  that an older implementation reproduces (see ``GOLDEN``), so "same
  page, same step, same victim" is pinned against more than itself --
  with page ids renamed to the carve order that implementation numbered
  them in (:class:`CarveOrder`);
* with an observer attached the reported stream and the cache-index
  counters are those of the per-page loop.
"""

import copy
import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.layer_policy import FULL_ATTENTION, GroupSpec, make_policy
from repro.core.pages import EMPTY, EVICTABLE, USED
from repro.core.sequence import TEXT
from repro.core.two_level import TwoLevelAllocator

from .recording import (
    LargePageCarved,
    PageReleased,
    PagesAllocated,
    RecordingObserver,
)
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
    )
    # ``events`` names the recorder the way other_events (unchanged since
    # the golden was recorded) reads the stream.
    alloc.observer = alloc.events = CarveOrder()
    assert [alloc.groups[g].small_per_large for g in GROUPS] == [1, 2, 4]
    return alloc


class CarveOrder(RecordingObserver):
    """A recorder that names small pages as the allocator the golden was
    recorded on numbered them: each group counts 0, 1, 2, ... over the
    slots it carves, in slot order, and a page keeps its name until its
    large page is carved again.  An order-preserving bijection onto the
    live page ids, so every pop order reads the same under both names.
    Records carry the names."""

    def __init__(self):
        super().__init__()
        self.num_carved = {}  # group -> small pages carved so far
        self.names = {}  # (group, page id) -> carve-order name

    def name(self, group_id, page_id):
        return self.names[group_id, page_id]

    def large_page_carved(self, group_id, large_page_id, num_small_pages):
        first = self.num_carved.get(group_id, 0)
        self.num_carved[group_id] = first + num_small_pages
        for slot in range(num_small_pages):
            self.names[group_id, large_page_id * num_small_pages + slot] = first + slot
        super().large_page_carved(group_id, large_page_id, num_small_pages)

    def pages_allocated(self, group_id, request_id, page_ids, steps):
        names = tuple(self.name(group_id, page_id) for page_id in page_ids)
        super().pages_allocated(group_id, request_id, names, steps)

    def page_evicted(self, group_id, page_id, level, last_access, prefix_length):
        if level == "small":
            page_id = self.name(group_id, page_id)
        super().page_evicted(group_id, page_id, level, last_access, prefix_length)

    def page_released(self, group_id, page_id, cached):
        super().page_released(group_id, self.name(group_id, page_id), cached)


def other_events(alloc):
    """The captured stream without its ``PagesAllocated`` records: a run
    publishes that record once, after all of its carve and eviction
    records, so runs of one interleave it differently (``Driver.allocate``
    reports the steps instead)."""
    return [repr(e) for e in alloc.events.recent() if not isinstance(e, PagesAllocated)]


def snapshot(alloc):
    """Everything observable about the pool, as a comparable value, with
    small pages under their carve-order names."""
    name = alloc.events.name
    groups = []
    for group_id, group in alloc.groups.items():
        spl = group.small_per_large
        pages = sorted(
            (name(group_id, p), state.name, group.ref_count[p], group.request_id[p],
             p // spl, p % spl, group.block_hash[p], group.num_tokens[p],
             group.last_access[p], group.prefix_length[p])
            for p, state in enumerate(group.state) if state is not None
        )
        pool = copy.deepcopy(group.free_pool)
        pop_order = tuple(name(group_id, page_id) for page_id in iter(pool.pop_any, None))
        evict_order = tuple(name(group_id, page_id) for page_id in group.evictor.iter_in_order())
        groups.append((
            group_id, tuple(pages), evict_order, pop_order,
            group.n_used, group.n_evictable, group.n_empty_carved,
            group.used_filled_tokens, group.num_evictions, group.quota,
            group.cache_index.hits, group.cache_index.misses,
            alloc.fully_evictable_large_pages(group_id),
            alloc.large_pages_owned(group_id),
        ))
    return (
        tuple(groups),
        tuple(alloc.large_evictor.iter_in_order()),
        tuple(
            (large_id, owner, () if owner is None else tuple(
                name(owner, page_id) for page_id in alloc.groups[owner].slots(large_id)
            ))
            for large_id, owner in (
                (large_id, alloc.lcm.owner_of(large_id)) for large_id in range(alloc.lcm.num_pages)
            )
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

    @property
    def allocated(self):
        """Every PagesAllocated record so far."""
        return self.alloc.observer.recent(PagesAllocated)

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

    def names(self, gid, page_ids):
        return [self.alloc.events.name(gid, page_id) for page_id in page_ids]

    def allocate(self, gid, rid, n):
        """``(page names, steps)`` of the run, ``None`` if it was refused."""
        alloc = self.alloc
        mark = len(self.allocated)
        if self.dialect != "single":
            pages = alloc.allocate_pages(gid, rid, n)
        elif not alloc.groups_that_fit([(gid, n)], rid):
            pages = None  # refused before any page moves, as the run is
        else:
            pages = []
            for _ in range(n):
                got = alloc.allocate_pages(gid, rid, 1)
                assert got is not None, "a checked run of ones cannot fail"
                pages.extend(got)
        if pages is None:
            return None
        self.held[gid].extend(pages)
        steps = [step for event in self.allocated[mark:] for step in event.steps]
        return self.names(gid, pages), steps

    def release(self, gid, count, cacheable, hash_base):
        """Release the ``count`` oldest held references of ``gid``; with a
        ``hash_base`` the pages are hashed first (small hash domain, so
        re-registration displaces stale copies)."""
        alloc = self.alloc
        group = alloc.groups[gid]
        ids, self.held[gid] = self.held[gid][:count], self.held[gid][count:]
        self.clock += 1.0
        for offset, page_id in enumerate(ids):
            if hash_base is not None and group.block_hash[page_id] is None:
                alloc.register_block_hash(gid, page_id, (hash_base + offset) % 24)
                group.note_fill(4 - group.num_tokens[page_id])
                group.num_tokens[page_id] = 4
            group.last_access[page_id] = self.clock - (offset % 2)
            group.prefix_length[page_id] = float(offset)
        self.release_ids(gid, ids, cacheable)
        return self.names(gid, ids)

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
        self.held[gid].extend(pages)
        return self.names(gid, pages)

    def touch(self, gid):
        """Re-key the evictable page carved first (the lowest carve-order
        name), if there is one."""
        self.clock += 1.0
        group = self.alloc.groups[gid]
        name = self.alloc.events.name
        evictable = [p for p, state in enumerate(group.state) if state is EVICTABLE]
        if not evictable:
            return None
        page = min(evictable, key=lambda p: name(gid, p))
        group.last_access[page] = self.clock
        self.alloc.touch_evictable(gid, page)
        return name(gid, page)

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
            alloc.release_pages("four", [a, a, b], False)
        state = alloc.groups["four"].state
        assert state[a] is EMPTY and state[b] is USED
        alloc.check_invariants()
        assert alloc.stats() == alloc.stats_slow()


# ----------------------------------------------------------------------
# The golden: one scripted sequence, digested
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


#: Re-recorded when a refused allocation stopped mutating the pool (it used
#: to carve, evict and re-bucket, then release what it took).  The same
#: values come out of the previous implementation (578b5bf) driven with
#: ``scripted_digest("run", **config)`` when every ``allocate_pages`` that
#: returns ``None`` is undone by restoring a deep copy of the allocator
#: taken before it -- so a refusal is exactly "as if never called", and
#: every successful call still takes the same pages in the same steps.
GOLDEN = {
    (True, True): "ef3c6290067cdbb6",
    (False, True): "4690dc6088e4bbbb",
    (True, False): "e2acfa0609136b95",
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
        assert any(r is None for r in results)  # a refused allocate_pages
        _, steps, _ = scripted_digest("run", caching=True, request_aware=False)
        assert 0 in steps


# ----------------------------------------------------------------------
# Observers see the per-page stream
# ----------------------------------------------------------------------


def cached_run(alloc, gid, rid, n, first_hash=0):
    pages = alloc.allocate_pages(gid, rid, n)
    for offset, page in enumerate(pages):
        alloc.register_block_hash(gid, page, first_hash + offset)
        alloc.groups[gid].last_access[page] = 1.0
    return pages


class TestObserversSeeTheSameStream:
    def test_run_release_publishes_one_record_per_page_in_order(self):
        alloc = make_allocator()
        pages = cached_run(alloc, "four", "r0", 6)
        shared = alloc.acquire_cached("four", 2, "r1")  # second reference
        plain = alloc.allocate_pages("four", "r0", 2)
        seen = alloc.observer = RecordingObserver()
        ids = pages + plain
        alloc.release_pages("four", ids, cacheable=True)
        # The shared page only dropped a reference: no record for it.
        assert seen.records == [
            PageReleased("four", page_id, cached=page_id not in plain)
            for page_id in ids if page_id != shared
        ]
        group = alloc.groups["four"]
        assert group.state[shared] is USED and group.ref_count[shared] == 1

    def test_one_pages_allocated_record_per_call_with_every_step(self):
        alloc = make_allocator(num_large=2)
        seen = alloc.observer = RecordingObserver()
        pages = alloc.allocate_pages("four", "r0", 6)
        assert seen.recent(PagesAllocated) == [PagesAllocated(
            "four", "r0", tuple(pages), (2, 1, 1, 1, 2, 1)
        )]
        # Carve records precede the allocation record they fed.
        assert [type(e) for e in seen.records] == [
            LargePageCarved, LargePageCarved, PagesAllocated
        ]

    def test_failed_run_acquire_counts_lookups_like_the_loop(self):
        alloc = make_allocator()
        pages = cached_run(alloc, "two", "r0", 3)
        alloc.release_pages("two", pages, cacheable=True)
        index = alloc.groups["two"].cache_index
        got = alloc.acquire_cached_run("two", [0, 1, 99, 2], "r1")
        # Two hits, the miss that stopped the run, and nothing past it.
        assert got == pages[:2]
        assert (index.hits, index.misses) == (2, 1)
        assert alloc.groups["two"].state[pages[2]] is EVICTABLE

    def test_refused_allocate_mutates_nothing(self):
        alloc = make_allocator(num_large=3)
        cached = cached_run(alloc, "one", "r0", 2)
        alloc.release_pages("one", cached, cacheable=True)
        pinned = alloc.allocate_pages("one", "r1", 1)
        seen = alloc.observer = RecordingObserver()
        before, version = snapshot(alloc), alloc.version
        assert alloc.groups_that_fit([("one", 3)], "r2") == 0
        assert alloc.allocate_pages("one", "r2", 3) is None
        # No eviction, carve, release or report: the two cached pages
        # stay cached and the pool is as it was.
        assert seen.records == []
        assert snapshot(alloc) == before and alloc.version == version
        assert len(alloc.groups["one"].cache_index) == 2
        assert alloc.groups["one"].state[pinned[0]] is USED
        # Two pages do fit, and the check said so.
        assert alloc.groups_that_fit([("one", 2)], "r2") == 1
        assert alloc.allocate_pages("one", "r2", 2) is not None
        assert alloc.num_large_evictions == 2
        alloc.check_invariants()


# ----------------------------------------------------------------------
# Check, then commit: groups_that_fit is exact and a refusal is free
# ----------------------------------------------------------------------


def unchecked(owner, allocator_of=lambda alloc: alloc):
    """A deep copy of ``owner`` (an allocator or a manager) whose capacity
    check always says yes: the five-step loop alone decides, and a run
    that runs out of pages trips the loop's step-5 assertion."""
    trial = copy.deepcopy(owner)
    allocator_of(trial).groups_that_fit = lambda demand, request_id: len(demand)
    return trial


def unchecked_fit(alloc, demand, rid):
    """How many leading allocations of ``demand`` the unchecked loop makes."""
    trial = unchecked(alloc)
    for fitted, (gid, n) in enumerate(demand):
        try:
            trial.allocate_pages(gid, rid, n)
        except AssertionError:
            return fitted
    return len(demand)


QUOTAS = st.lists(
    st.tuples(st.sampled_from(GROUPS), st.one_of(st.none(), st.integers(0, 6))), max_size=3
)


def set_quotas(alloc, quotas):
    for gid, quota in quotas:
        alloc.set_quota(gid, quota)


class TestCheckThenCommit:
    @settings(max_examples=400, deadline=None)
    @given(
        warm=st.lists(
            st.tuples(st.sampled_from(GROUPS), st.integers(1, 8), st.integers(0, 23)),
            max_size=6,
        ),
        spare=st.lists(st.tuples(st.sampled_from(GROUPS), st.sampled_from(REQUESTS)), max_size=4),
        ops=st.lists(OPS, max_size=20),
        caching=st.booleans(),
        request_aware=st.booleans(),
        quotas=QUOTAS,
        demand=st.lists(
            st.tuples(st.sampled_from(GROUPS), st.integers(0, 14)),
            min_size=1, max_size=3, unique_by=lambda entry: entry[0],
        ).filter(lambda d: len(d) > 1 or d[0][1] % 3 == 0),
        rid=st.sampled_from(REQUESTS),
    )
    def test_groups_that_fit_is_exact_and_a_refusal_mutates_nothing(
        self, warm, spare, ops, caching, request_aware, quotas, demand, rid
    ):
        """``warm`` fills the pool with cached runs (fully-evictable large
        pages of every group, interleaved in LRU order), so quota gates
        close while the large evictor still holds pages; ``spare`` carves
        a page per entry, leaving the rest of its large page in another
        request's bucket, which step 4 reaches only after steps 2/3."""
        driver = Driver("run", num_large=6, caching=caching, request_aware=request_aware)
        for gid, n, hash_base in warm:
            if driver.apply(("allocate", gid, "w", n)) is not None:
                driver.apply(("release", gid, len(driver.held[gid]), True, hash_base))
        for gid, owner in spare:
            driver.apply(("allocate", gid, owner, 1))
        for op in ops:
            driver.apply(op)
        alloc = driver.alloc
        set_quotas(alloc, quotas)
        before = snapshot(alloc)
        fitted = alloc.groups_that_fit(demand, rid)
        assert snapshot(alloc) == before  # the check is read-only
        assert fitted == unchecked_fit(alloc, demand, rid)
        for gid, n in demand[:fitted]:
            assert alloc.allocate_pages(gid, rid, n) is not None
        if fitted < len(demand):
            gid, n = demand[fitted]
            before, version = snapshot(alloc), alloc.version
            records = len(alloc.observer.records)
            assert alloc.allocate_pages(gid, rid, n) is None
            assert snapshot(alloc) == before and alloc.version == version
            assert len(alloc.observer.records) == records
        alloc.check_invariants()

    @settings(max_examples=80, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(st.integers(0, 3), st.sampled_from(["grow", "grow", "release"]),
                      st.integers(1, 24)),
            min_size=1, max_size=40,
        ),
        caching=st.booleans(),
        quotas=QUOTAS,
    )
    def test_a_refused_allocate_up_to_mutates_nothing_on_a_shared_pool(
        self, ops, caching, quotas
    ):
        """Two managers over one pool ("one" + "two", and "four"); four
        requests, two per view.  ``allocate_up_to`` refuses exactly when the
        unchecked loop would run out of pages, and a refusal leaves the
        pool as it was."""
        from repro.core.kv_manager import JengaKVCacheManager
        from repro.core.sequence import SequenceSpec

        alloc = make_allocator(num_large=6, caching=caching)
        set_quotas(alloc, quotas)
        views = [
            JengaKVCacheManager(
                {g: alloc.groups[g].spec for g in gids}, 0,
                enable_prefix_caching=caching, shared_allocator=alloc,
            )
            for gids in (("one", "two"), ("four",))
        ]
        seqs = [SequenceSpec.text_only(f"r{i}", list(range(i % 2, 40))) for i in range(4)]
        pos = [0] * 4
        for i, seq in enumerate(seqs):
            views[i % 2].begin_request(seq)
        clock = 0.0
        for i, kind, delta in ops:
            mgr, seq = views[i % 2], seqs[i]
            clock += 1.0
            if kind == "release":
                mgr.release(seq)
                pos[i] = mgr.begin_request(seq)
                continue
            target = min(len(seq), pos[i] + delta)
            try:
                expected = unchecked(mgr, lambda m: m.allocator).allocate_up_to(seq, target)
            except AssertionError:
                expected = False
            before, version = snapshot(alloc), alloc.version
            assert mgr.allocate_up_to(seq, target) == expected
            if expected:
                mgr.commit(seq, target, now=clock)
                pos[i] = target
            else:
                assert snapshot(alloc) == before and alloc.version == version
            alloc.check_invariants()

    #: Hand-built states where an earlier group changes what a later one
    #: sees; each entry is (ops, quotas, demand by r1, expected answer).
    EDGES = {
        # "four" takes its page by carving the last free large page (the
        # three spare "four" pages sit in r0's bucket, not r1's): none left.
        "carves_before_others_buckets": (
            [("allocate", "four", "r0", 1), ("allocate", "one", "r3", 4)],
            [], [("four", 1), ("one", 1)], 1,
        ),
        # "two" is at quota: it takes r0's spare page (step 4) and carves
        # nothing, so all five free large pages are left for "one".
        "a_closed_gate_carves_nothing": (
            [("allocate", "two", "r0", 1)],
            [("two", 1)], [("two", 1), ("one", 5)], 2,
        ),
        # "one" is at quota and reuses its own cached pages in place (step
        # 5): their large pages leave the large evictor, so "two" can reach
        # only the four free large pages (8 pages), not 6 (12 pages).
        "step_5_shrinks_the_large_evictor": (
            [("allocate", "one", "r0", 2), ("release", "one", 2, True, 0)],
            [("one", 2)], [("one", 2), ("two", 10)], 1,
        ),
        # "one" may carve one more large page; its first step-3 victim is
        # its own (least recently used) cached page, which is net zero, so
        # the second carve takes "two"'s cached page.
        "an_own_victim_keeps_the_gate_open": (
            [("allocate", "one", "r0", 1), ("release", "one", 1, True, 0),
             ("allocate", "two", "r2", 2), ("release", "two", 2, True, 5),
             ("allocate", "four", "r3", 16)],
            [("one", 2)], [("one", 2), ("four", 0)], 2,
        ),
        # "four" stays over its quota of 1 (both its large pages were USED
        # when it was set); its cached large page is the least recently
        # used, so "one"'s carve takes it, and with it all of "four"'s
        # evictable pages.
        "an_over_quota_group_loses_its_cache_first": (
            [("allocate", "four", "r3", 8), ("quota", "four", 1),
             ("release", "four", 4, True, 0),
             ("allocate", "two", "r2", 2), ("release", "two", 2, True, 9),
             ("allocate", "one", "r0", 3)],
            [], [("one", 1), ("four", 4)], 1,
        ),
    }

    @pytest.mark.parametrize("name", sorted(EDGES))
    def test_groups_that_fit_on_hand_built_edges(self, name):
        ops, quotas, demand, expected = self.EDGES[name]
        driver = Driver("run", num_large=6)
        for op in ops:
            driver.apply(op)
        alloc = driver.alloc
        set_quotas(alloc, quotas)
        assert alloc.groups_that_fit(demand, "r1") == expected
        assert expected == unchecked_fit(alloc, demand, "r1")
