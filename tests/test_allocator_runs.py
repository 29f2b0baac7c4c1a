"""Run forms of the allocator: batching invariance, a golden, tallies.

Every page transition of :class:`TwoLevelAllocator` has one run form
(``allocate_pages``, ``release_pages``, ``acquire_cached_run``); the
per-page names are delegates.  These tests pin down that a run is exactly
its pages taken one at a time:

* a hypothesis property drives two allocators through the same random
  op sequence, one issuing runs and one issuing runs of one, and compares
  everything observable after every op;
* one scripted sequence is digested and compared with a recorded value
  (see ``GOLDEN``), so "same page, same step, same victim" is pinned
  against more than itself -- with page ids renamed to the carve order
  an older implementation numbered them in (:class:`CarveOrder`);
* hand-built examples (``PHASES``) in which one run crosses every step
  its group can reach, and a step-3 carve takes its victim's own id;
* the pool's tallies (pages per §5.4 step, victims per owning group,
  aligned victims, cached and freed releases) and the cache-index
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

from .test_admission_cache import admission_inputs

T = frozenset({TEXT})
GROUPS = ("one", "two", "four")  # small pages per large page: 1, 2, 4
REQUESTS = ("r0", "r1", "r2", "r3")


def group_specs():
    return {
        g: GroupSpec(g, FULL_ATTENTION, 1, per_token_bytes=bytes_, tokens_per_page=4,
                     accepted_tags=T)
        for g, bytes_ in (("one", 256), ("two", 128), ("four", 64))
    }


def tallies(alloc):
    """The pool's tallies, as a comparable value: pages per §5.4 step
    (index 0: the ablation's first fit), victims per owning group, victims
    chosen with a non-zero prefix length (§5.1's aligned tiebreak), and
    last references dropped into the cache or freed."""
    return (tuple(alloc.step_pages), tuple(sorted(alloc.victims.items())),
            alloc.aligned_victims, alloc.cached_releases, alloc.freed_releases)


def steps_taken(alloc):
    """The §5.4 steps that have served a page so far."""
    return {step for step, pages in enumerate(tallies(alloc)[0]) if pages}


def make_allocator(num_large=12, caching=True, request_aware=True):
    specs = group_specs()
    return TwoLevelAllocator(
        1024 * num_large, specs, {g: make_policy(s) for g, s in specs.items()},
        enable_prefix_caching=caching, request_aware=request_aware,
    )


class CarveOrder:
    """Small pages named as an older allocator numbered them: each group
    counts 0, 1, 2, ... over the slots it carves, in slot order, and a
    page keeps its name until its large page is carved again.  An
    order-preserving bijection onto the live page ids, so every pop order
    reads the same under both names.

    Carves are found in the groups' per-large-page carve counts after
    each allocation (:meth:`allocated`)."""

    def __init__(self, alloc):
        assert [alloc.groups[g].small_per_large for g in GROUPS] == [1, 2, 4]
        self.alloc = alloc
        self.carves = {gid: list(group.carve) for gid, group in alloc.groups.items()}
        self.num_carved = dict.fromkeys(alloc.groups, 0)  # small pages carved so far
        self.names = {}  # (group, page id) -> carve-order name

    def __call__(self, group_id, page_id):
        return self.names[group_id, page_id]

    def allocated(self, group_id, page_ids):
        """Name the large pages carved by the allocation that took
        ``page_ids``: a run takes each carve's first slot before it carves
        again, so the carves come in the order ``page_ids`` reaches them."""
        group = self.alloc.groups[group_id]
        spl = group.small_per_large
        seen = self.carves[group_id]
        for large_id in dict.fromkeys(page_id // spl for page_id in page_ids):
            if seen[large_id] != group.carve[large_id]:
                seen[large_id] += 1
                first = self.num_carved[group_id]
                self.num_carved[group_id] = first + spl
                for slot, page_id in enumerate(group.slots(large_id)):
                    self.names[group_id, page_id] = first + slot
        assert all(self.carves[gid] == g.carve for gid, g in self.alloc.groups.items())


def snapshot(alloc, name=lambda group_id, page_id: page_id):
    """Everything observable about the pool, as a comparable value, with
    small pages under ``name`` (their ids by default)."""
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
            group.used_filled_tokens, group.num_evictions,
            group.cache_index.hits, group.cache_index.misses,
            alloc.fully_evictable_large_pages(group_id),
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
        self.name = CarveOrder(self.alloc)
        self.held = {g: [] for g in GROUPS}  # references held, in order
        self.clock = 0.0

    def snapshot(self):
        return snapshot(self.alloc, self.name)

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
        return [self.name(gid, page_id) for page_id in page_ids]

    def allocate(self, gid, rid, n):
        """``(page names, pages served by each step)`` of the run, ``None``
        if it was refused."""
        alloc = self.alloc
        before = tallies(alloc)[0]
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
        self.name.allocated(gid, pages)
        after = tallies(alloc)[0]
        return self.names(gid, pages), tuple(b - a for a, b in zip(before, after))

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
        name = self.name
        evictable = [p for p, state in enumerate(group.state) if state is EVICTABLE]
        if not evictable:
            return None
        page = min(evictable, key=lambda p: name(gid, p))
        group.last_access[page] = self.clock
        self.alloc.touch_evictable(gid, page)
        return name(gid, page)

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
            assert run.snapshot() == single.snapshot(), op
            assert tallies(run.alloc) == tallies(single.alloc), op
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
        kind = rng.choices(["allocate", "release", "acquire", "touch"], [8, 8, 4, 1])[0]
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
        else:
            ops.append((kind, gid))
    return ops


def scripted_digest(dialect, **kwargs):
    driver = Driver(dialect, **kwargs)
    results = [driver.apply(op) for op in scripted_ops()]
    driver.alloc.check_invariants()
    payload = repr((results, driver.snapshot(), tallies(driver.alloc)))
    return hashlib.sha256(payload.encode()).hexdigest()[:16], steps_taken(driver.alloc), results


#: Re-recorded on 26d8f13, the last allocator that reported each page to
#: an observer (ROADMAP item 19), when the payload's event stream became
#: the pool's tallies (counted there from the reports, so the allocator
#: that keeps them itself must match unedited) and ``Driver.allocate``'s
#: per-page steps became the pages each step served.  The carve-order
#: names, now read from the groups' carve counts, were checked equal to
#: the reported ones on this script under all three dialects and configs.
#: Before that, re-recorded on a48a89f, the last allocator with soft
#: quotas, when the script's op mix dropped its ``quota`` op and
#: :func:`snapshot` stopped reading quotas and owned-page counts (the owner
#: map already gives the latter): the values pin the five steps without
#: quotas, so the allocator that no longer has them must match them
#: unedited.  The values before
#: (mix with quotas) had been pinned against 578b5bf driven with
#: ``scripted_digest("run", **config)``, with every ``allocate_pages`` that
#: returns ``None`` undone by restoring a deep copy of the allocator taken
#: before it -- so a refusal is exactly "as if never called", and every
#: successful call still takes the same pages in the same steps.
GOLDEN = {
    (True, True): "c30c5d4c0045115b",
    (False, True): "7ee9d4dbc9ed4b03",
    (True, False): "a6a83b2d84590a40",
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
# One run crosses the §5.4 steps in order
# ----------------------------------------------------------------------


#: Setups in which one allocation by r1 crosses every step that can serve
#: its group, each entry ``(ops, num_large, group, n, pages each step
#: serves, the same in the request_aware=False ablation)``.
#: Each ``release`` stamps its pages with ties in last access and
#: distinct prefix lengths, so victims are chosen by both keys.
PHASES = {
    # "four" (4:1): r1's bucket (step 1), two free large pages (step 2),
    # four fully-evictable large pages of all three groups (step 3), r2's
    # bucket (step 4), then the three cached pages beside a USED one
    # (step 5).  Every carve's spare slots go straight to the run (step 1).
    # In the ablation r2's page came from r1's bucket, so one more large
    # page is free.
    "four": (
        [("allocate", "four", "w", 4), ("allocate", "four", "r3", 4),
         ("release", "four", 7, True, 0),
         ("allocate", "four", "r1", 1), ("allocate", "four", "r2", 1),
         ("allocate", "one", "w", 2), ("release", "one", 2, True, 7),
         ("allocate", "two", "w", 2), ("release", "two", 2, True, 9)],
        9, "four", 33, (0, 3 + 6 * 3, 2, 4, 3, 3), (2 + 7 * 3, 0, 3, 4, 0, 3),
    ),
    # "one" (1:1): a one-slot large page is never pooled, and its cached
    # page makes it fully evictable, so only steps 2 and 3 can serve.
    "one": (
        [("allocate", "one", "w", 3), ("release", "one", 3, True, 0),
         ("allocate", "two", "w", 2), ("release", "two", 2, True, 3),
         ("allocate", "four", "w", 4), ("release", "four", 4, True, 5),
         ("allocate", "four", "r2", 1)],
        9, "one", 8, (0, 0, 3, 5, 0, 0), (0, 0, 3, 5, 0, 0),
    ),
}


class TestPhaseBoundaries:
    @pytest.mark.parametrize("request_aware", [True, False])
    @pytest.mark.parametrize("name", sorted(PHASES))
    def test_one_run_across_the_steps_is_its_pages_one_at_a_time(self, name, request_aware):
        ops, num_large, gid, n, *served = PHASES[name]
        kwargs = dict(num_large=num_large, request_aware=request_aware)
        run, single = Driver("run", **kwargs), Driver("single", **kwargs)
        for op in ops:
            assert run.apply(op) == single.apply(op), op
        assert run.alloc.groups_that_fit([(gid, n)], "r1") == 1
        assert run.alloc.groups_that_fit([(gid, n + 1)], "r1") == 0
        taken = run.apply(("allocate", gid, "r1", n))
        assert taken == single.apply(("allocate", gid, "r1", n))
        # The ablation's first fit (step 0) takes every bucket first.
        assert taken[1] == served[not request_aware]
        assert run.snapshot() == single.snapshot()
        assert tallies(run.alloc) == tallies(single.alloc)
        for alloc in (run.alloc, single.alloc):
            assert alloc.lcm.num_free == 0 and len(alloc.large_evictor) == 0
            alloc.check_invariants()
            assert alloc.stats() == alloc.stats_slow()

    @pytest.mark.parametrize("name", sorted(PHASES))
    def test_a_step_three_carve_takes_its_victims_id(self, name):
        """The carves take the free large pages first, then each victim's
        own id in eviction order; the run leaves no large page free."""
        ops, num_large, gid, n, served, _ = PHASES[name]
        driver = Driver("run", num_large=num_large)
        for op in ops:
            driver.apply(op)
        alloc = driver.alloc
        group = alloc.groups[gid]
        spl = group.small_per_large
        free = [i for i in range(alloc.lcm.num_pages) if alloc.lcm.owner_of(i) is None]
        victims = list(alloc.large_evictor.iter_in_order())
        assert (len(free), len(victims)) == served[2:4]
        bucket = {p // spl for p, state in enumerate(group.state)
                  if state is EMPTY and group.request_id[p] == "r1"}
        driver.apply(("allocate", gid, "r1", n))
        carved = list(dict.fromkeys(p // spl for p in driver.held[gid][-n:]))
        assert carved[len(bucket):len(bucket) + len(free) + len(victims)] == free + victims
        assert all(alloc.lcm.owner_of(large_id) == gid for large_id in victims)
        assert alloc.lcm.num_free == 0

    def test_a_step_three_carve_ending_the_run_pools_its_spare_slots(self):
        driver = Driver("run", num_large=2)
        for op in [("allocate", "one", "w", 1), ("release", "one", 1, True, 0),
                   ("allocate", "two", "w", 1)]:
            driver.apply(op)
        alloc = driver.alloc
        (victim,) = alloc.large_evictor.iter_in_order()
        pages, served = driver.apply(("allocate", "four", "r1", 2))
        assert served == (0, 1, 0, 1, 0, 0)
        group = alloc.groups["four"]
        assert [p // 4 for p in driver.held["four"]] == [victim, victim]
        assert group.free_pool.bucket_size("r1") == 2
        assert alloc.lcm.num_free == 0 and alloc.lcm.owner_of(victim) == "four"
        assert alloc.victims == {"one": 1, "two": 0, "four": 0}
        alloc.check_invariants()


# ----------------------------------------------------------------------
# The tallies the telemetry reads count page by page
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
        *_, cached, freed = tallies(alloc)
        alloc.release_pages("four", pages + plain, cacheable=True)
        # The shared page only dropped a reference: not a release.
        assert tallies(alloc)[3:] == (cached + 5, freed + 2)
        group = alloc.groups["four"]
        assert group.state[shared] is USED and group.ref_count[shared] == 1

    def test_one_pages_allocated_record_per_call_with_every_step(self):
        alloc = make_allocator(num_large=2)
        assert alloc.allocate_pages("four", "r0", 6) is not None
        # Two carves (step 2), each followed by the carve's own pages
        # (step 1): steps 2, 1, 1, 1, 2, 1.
        assert tallies(alloc)[0] == (0, 4, 2, 0, 0, 0)

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
        before, version, counted = snapshot(alloc), alloc.version, tallies(alloc)
        assert alloc.groups_that_fit([("one", 3)], "r2") == 0
        assert alloc.allocate_pages("one", "r2", 3) is None
        # No eviction, carve, release or tally: the two cached pages
        # stay cached and the pool is as it was.
        assert tallies(alloc) == counted
        assert snapshot(alloc) == before and alloc.version == version
        assert len(alloc.groups["one"].cache_index) == 2
        assert alloc.groups["one"].state[pinned[0]] is USED
        # Two pages do fit, and the check said so.
        assert alloc.groups_that_fit([("one", 2)], "r2") == 1
        assert alloc.allocate_pages("one", "r2", 2) is not None
        assert alloc.num_large_evictions == 2
        # Both by step 3, of "one"'s own cached pages, stamped with no
        # prefix length (balanced, not aligned).
        assert tallies(alloc) == (
            (0, 0, 3, 2, 0, 0), (("four", 0), ("one", 2), ("two", 0)), 0, 2, 0
        )
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
        demand=st.lists(
            st.tuples(st.sampled_from(GROUPS), st.integers(0, 14)),
            min_size=1, max_size=3, unique_by=lambda entry: entry[0],
        ).filter(lambda d: len(d) > 1 or d[0][1] % 3 == 0),
        rid=st.sampled_from(REQUESTS),
    )
    def test_groups_that_fit_is_exact_and_a_refusal_mutates_nothing(
        self, warm, spare, ops, caching, request_aware, demand, rid
    ):
        """``warm`` fills the pool with cached runs (fully-evictable large
        pages of every group, interleaved in LRU order), so carves evict
        them (step 3); ``spare`` carves a page per entry, leaving the rest
        of its large page in another request's bucket, which step 4
        reaches only after steps 2/3."""
        driver = Driver("run", num_large=6, caching=caching, request_aware=request_aware)
        for gid, n, hash_base in warm:
            if driver.apply(("allocate", gid, "w", n)) is not None:
                driver.apply(("release", gid, len(driver.held[gid]), True, hash_base))
        for gid, owner in spare:
            driver.apply(("allocate", gid, owner, 1))
        for op in ops:
            driver.apply(op)
        alloc = driver.alloc
        before = snapshot(alloc)
        fitted = alloc.groups_that_fit(demand, rid)
        assert snapshot(alloc) == before  # the check is read-only
        assert fitted == unchecked_fit(alloc, demand, rid)
        for gid, n in demand[:fitted]:
            assert alloc.allocate_pages(gid, rid, n) is not None
        if fitted < len(demand):
            gid, n = demand[fitted]
            before, version, counted = snapshot(alloc), alloc.version, tallies(alloc)
            assert alloc.allocate_pages(gid, rid, n) is None
            assert snapshot(alloc) == before and alloc.version == version
            assert tallies(alloc) == counted
        alloc.check_invariants()

    @settings(max_examples=80, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(st.integers(0, 3), st.sampled_from(["grow", "grow", "release"]),
                      st.integers(1, 24)),
            min_size=1, max_size=40,
        ),
        caching=st.booleans(),
    )
    def test_a_refused_allocate_up_to_mutates_nothing(self, ops, caching):
        """One manager over groups "one", "two" and "four"; four requests.
        ``allocate_up_to`` refuses exactly when the unchecked loop would
        run out of pages, and a refusal leaves the pool as it was."""
        from repro.core.kv_manager import JengaKVCacheManager
        from repro.core.sequence import SequenceSpec

        mgr = JengaKVCacheManager(group_specs(), 1024 * 6, enable_prefix_caching=caching)
        alloc = mgr.allocator
        seqs = [SequenceSpec.text_only(f"r{i}", list(range(i % 2, 40))) for i in range(4)]
        pos = [0] * 4
        for seq in seqs:
            mgr.begin_request(seq)
        clock = 0.0
        for i, kind, delta in ops:
            seq = seqs[i]
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
    #: sees; each entry is (ops, demand by r1, expected answer).
    EDGES = {
        # "four" takes its page by carving the last free large page (the
        # three spare "four" pages sit in r0's bucket, not r1's): none left.
        "carves_before_others_buckets": (
            [("allocate", "four", "r0", 1), ("allocate", "one", "r3", 4)],
            [("four", 1), ("one", 1)], 1,
        ),
        # "four" wants four carves but three large pages are free: it
        # takes all three and finishes from its own free and cached pages
        # (steps 4/5).  "two" then fits from its own alone: q's free page
        # and the cached page beside it.
        "first_overdraws_the_shared_carves": (
            [("allocate", "two", "q", 1), ("allocate", "two", "u", 2),
             ("release", "two", 1, True, 0),
             ("allocate", "four", "p", 2), ("release", "four", 1, True, 3)],
            [("four", 15), ("two", 2)], 2,
        ),
    }

    @pytest.mark.parametrize("name", sorted(EDGES))
    def test_groups_that_fit_on_hand_built_edges(self, name):
        ops, demand, expected = self.EDGES[name]
        driver = Driver("run", num_large=6)
        for op in ops:
            driver.apply(op)
        alloc = driver.alloc
        assert alloc.groups_that_fit(demand, "r1") == expected
        assert expected == unchecked_fit(alloc, demand, "r1")

    def test_a_group_that_overdraws_the_shared_carves_leaves_the_next_its_own(self):
        ops, demand, _ = self.EDGES["first_overdraws_the_shared_carves"]
        driver = Driver("run", num_large=6)
        for op in ops:
            driver.apply(op)
        alloc = driver.alloc
        assert alloc.lcm.num_free == 3 and len(alloc.large_evictor) == 0
        (four, n_four), (two, n_two) = demand
        assert -(-n_four // 4) > alloc.lcm.num_free
        _, served = driver.apply(("allocate", four, "r1", n_four))
        assert served == (0, 9, 3, 0, 2, 1)
        _, served = driver.apply(("allocate", two, "r1", n_two))
        assert served == (0, 0, 0, 0, 1, 1)
        alloc.check_invariants()


# ----------------------------------------------------------------------
# The fit is a function of counts: re-keying an evictable page moves none
# ----------------------------------------------------------------------


def two_size_allocator(ratio, num_large=6):
    """Two groups whose pages are ``ratio`` : 1 in size: "big" fills a
    large page, "small" carves ``ratio`` pages from one -- 4 : 1 is
    llama3.2-vision's cross vs self attention, 84 : 1 jamba's Mamba vs
    attention."""
    specs = {
        g: GroupSpec(g, FULL_ATTENTION, 1, per_token_bytes=bytes_, tokens_per_page=4,
                     accepted_tags=T)
        for g, bytes_ in (("small", 16), ("big", 16 * ratio))
    }
    alloc = TwoLevelAllocator(
        64 * ratio * num_large, specs, {g: make_policy(s) for g, s in specs.items()}
    )
    assert alloc.groups["small"].small_per_large == ratio
    return alloc


class TestReKeyingKeepsTheFit:
    @settings(max_examples=150, deadline=None)
    @given(
        ratio=st.sampled_from([4, 84]),
        ops=st.lists(
            st.tuples(st.sampled_from(["allocate", "release"]), st.sampled_from(["small", "big"]),
                      st.sampled_from(REQUESTS), st.integers(0, 1000)),
            max_size=30,
        ),
        demand=st.lists(
            st.tuples(st.sampled_from(["small", "big"]), st.integers(0, 1000)),
            min_size=1, max_size=2, unique_by=lambda entry: entry[0],
        ),
        rid=st.sampled_from(REQUESTS),
        rng=st.randoms(use_true_random=False),
    )
    def test_re_keying_an_evictable_page_never_changes_groups_that_fit(
        self, ratio, ops, demand, rid, rng
    ):
        """Cached pages get stamps from a small range (ties, so aligned
        eviction's prefix-length tiebreak matters); then evictable pages of
        either group are re-keyed at random.  The check's answer, and the
        number of allocations the five steps themselves make, stay put."""
        alloc = two_size_allocator(ratio)
        groups = alloc.groups
        held = {gid: [] for gid in groups}
        next_hash = 0
        for kind, gid, owner, k in ops:
            group = groups[gid]
            if kind == "allocate":
                held[gid].extend(
                    alloc.allocate_pages(gid, owner, k % (2 * group.small_per_large + 2)) or ()
                )
                continue
            count = k % (len(held[gid]) + 1)
            ids, held[gid] = held[gid][:count], held[gid][count:]
            for page_id in ids:
                next_hash += 1
                alloc.register_block_hash(gid, page_id, next_hash)
                group.last_access[page_id] = float(rng.randrange(4))
                group.prefix_length[page_id] = float(rng.randrange(8))
            alloc.release_pages(gid, ids, cacheable=k % 4 != 0)
        demand = [(gid, n % (6 * groups[gid].small_per_large + 2)) for gid, n in demand]
        fitted = alloc.groups_that_fit(demand, rid)
        assert fitted == unchecked_fit(alloc, demand, rid)
        evictable = [(gid, page_id) for gid, group in groups.items()
                     for page_id, state in enumerate(group.state) if state is EVICTABLE]
        for _ in range(min(6, len(evictable))):
            gid, page_id = rng.choice(evictable)
            groups[gid].last_access[page_id] = float(rng.randrange(-2, 6))
            groups[gid].prefix_length[page_id] = float(rng.randrange(8))
            alloc.touch_evictable(gid, page_id)
            alloc.check_invariants()
            assert alloc.groups_that_fit(demand, rid) == fitted
            assert unchecked_fit(alloc, demand, rid) == fitted
