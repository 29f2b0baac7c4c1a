"""Property-based tests (hypothesis) on allocator and policy invariants."""

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.evictor import COMPACT_RATIO, LRUEvictor
from repro.core.kv_manager import JengaKVCacheManager
from repro.core.layer_policy import (
    CROSS_ATTENTION,
    DROPPED_TOKEN,
    FULL_ATTENTION,
    MAMBA,
    GroupSpec,
    SLIDING_WINDOW,
    SlidingWindowPolicy,
    make_policy,
)
from repro.core.math_utils import compatible_page_bytes, gcd_of, lcm_of
from repro.core.pages import EMPTY, EVICTABLE, USED
from repro.core.prefix_cache import chain_hashes
from repro.core.sequence import IMAGE, TEXT, SequenceSpec
from repro.core.two_level import TwoLevelAllocator
from repro.models.zoo import get_model

from .oracle import reference_hit

sizes = st.lists(st.integers(min_value=1, max_value=4096), min_size=1, max_size=5)


class TestMathProperties:
    @given(sizes)
    def test_lcm_divisible_by_all(self, ss):
        lcm = lcm_of(ss)
        assert all(lcm % s == 0 for s in ss)

    @given(sizes)
    def test_gcd_divides_all(self, ss):
        gcd = gcd_of(ss)
        assert all(s % gcd == 0 for s in ss)

    @given(sizes)
    def test_lcm_at_least_max_gcd_at_most_min(self, ss):
        assert lcm_of(ss) >= max(ss)
        assert gcd_of(ss) <= min(ss)

    @given(sizes)
    def test_strategies_ordering(self, ss):
        assert (
            compatible_page_bytes(ss, "gcd")
            <= compatible_page_bytes(ss, "max")
            <= compatible_page_bytes(ss, "lcm")
        )


class TestEvictorProperties:
    @given(
        st.lists(
            st.tuples(st.integers(0, 20), st.floats(0, 100), st.floats(0, 100)),
            max_size=60,
        )
    )
    def test_eviction_order_sorted(self, ops):
        ev = LRUEvictor()
        last_add = {}  # item -> (last_access, -prefix_length, index of its last add)
        for index, (item, t, p) in enumerate(ops):
            ev.add(item, t, p)
            last_add[item] = (t, -p, index)
        order = []
        while len(ev):
            order.append(ev.evict())
        assert order == sorted(last_add, key=last_add.__getitem__)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(
        st.tuples(st.just("run"), st.lists(
            st.tuples(st.integers(0, 12), st.sampled_from([0.0, 1.0, 2.0, -1e15]),
                      st.sampled_from([0.0, 3.0, 5.0])),
            max_size=12,
        )),
        st.tuples(st.just("remove"), st.integers(0, 12)),
        st.tuples(st.just("discard"), st.integers(0, 12)),
        st.tuples(st.just("evict"), st.just(None)),
    ), max_size=60))
    def test_add_run_is_successive_adds(self, ops):
        """``add_run`` takes the same victims with the same keys, and walks
        the same order, as ``add`` on each triple; after each run the heap
        holds at most ``COMPACT_RATIO`` entries per live item."""
        runs, singles = LRUEvictor(), LRUEvictor()
        for kind, arg in ops:
            outcomes = []
            for ev in (runs, singles):
                if kind == "run":
                    if ev is runs:
                        ev.add_run(arg)
                    else:
                        for triple in arg:
                            ev.add(*triple)
                    outcomes.append(None)
                elif kind == "evict":
                    outcomes.append(ev.evict_with_key() if len(ev) else None)
                elif kind == "remove":
                    outcomes.append(arg in ev and ev.remove(arg))
                else:
                    outcomes.append(ev.discard(arg))
            assert outcomes[0] == outcomes[1]
            assert list(runs.iter_in_order()) == list(singles.iter_in_order())
            assert [runs.priority_of(i) for i in runs.iter_in_order()] == [
                singles.priority_of(i) for i in singles.iter_in_order()
            ]
            if kind == "run":
                assert len(runs._heap) <= COMPACT_RATIO * len(runs)

    @given(st.lists(st.tuples(st.integers(0, 10), st.floats(0, 9)), min_size=1, max_size=50))
    def test_peek_matches_evict(self, ops):
        ev = LRUEvictor()
        for item, t in ops:
            ev.add(item, t)
        while len(ev):
            assert next(ev.iter_in_order()) == ev.evict()


class TestHashProperties:
    @given(st.lists(st.integers(0, 2**31), min_size=1, max_size=64), st.integers(1, 8))
    def test_prefix_extension_preserves_hashes(self, tokens, tpp):
        boundaries = list(range(tpp, len(tokens) + 1, tpp))
        h1 = chain_hashes(tokens, boundaries)
        h2 = chain_hashes(tokens + [123, 456], boundaries)
        assert h1 == h2

    @given(st.lists(st.integers(0, 100), min_size=2, max_size=32))
    def test_any_token_change_changes_suffix_hashes(self, tokens):
        boundaries = list(range(1, len(tokens) + 1))
        base = chain_hashes(tokens, boundaries)
        mutated = list(tokens)
        mutated[0] = mutated[0] + 1
        other = chain_hashes(mutated, boundaries)
        assert all(a != b for a, b in zip(base, other))


class TestWindowPolicyProperties:
    @given(
        st.integers(1, 64),  # window
        st.integers(1, 8),  # tokens per page
        st.lists(st.booleans(), max_size=32),
    )
    def test_valid_prefixes_respect_window_rule(self, window, tpp, hits):
        policy = SlidingWindowPolicy(
            GroupSpec("w", SLIDING_WINDOW, 1, 8, tokens_per_page=tpp, window=window)
        )
        for p in policy.get_possible_prefix(hits):
            assert p % tpp == 0
            lo_block = max(0, p - window) // tpp
            assert all(hits[j] for j in range(lo_block, p // tpp))

    @given(st.integers(1, 64), st.integers(1, 8), st.integers(0, 200))
    def test_active_pages_cover_exactly_the_window(self, window, tpp, stream):
        policy = SlidingWindowPolicy(
            GroupSpec("w", SLIDING_WINDOW, 1, 8, tokens_per_page=tpp, window=window)
        )
        active = policy.active_page_indices(stream)
        num_pages = policy.num_pages_for(stream)
        assert all(0 <= i < num_pages for i in active)
        if stream:
            # Every token in [stream - window, stream) lies in an active page.
            for t in range(max(0, stream - window), stream):
                assert t // tpp in active


class TestSequenceProperties:
    @given(
        st.lists(st.sampled_from([TEXT, IMAGE]), min_size=1, max_size=64),
        st.integers(0, 70),
    )
    def test_stream_length_monotone_and_bounded(self, tags, prefix):
        seq = SequenceSpec("r", list(range(len(tags))), list(tags))
        for accepted in (frozenset({TEXT}), frozenset({IMAGE}), frozenset({TEXT, IMAGE})):
            n = seq.stream_length(accepted, prefix)
            assert 0 <= n <= min(prefix, len(tags))
            if accepted == frozenset({TEXT, IMAGE}):
                assert n == min(prefix, len(tags))

    @given(st.lists(st.sampled_from([TEXT, IMAGE]), min_size=1, max_size=40))
    def test_global_prefix_roundtrip(self, tags):
        seq = SequenceSpec("r", list(range(len(tags))), list(tags))
        accepted = frozenset({TEXT})
        total = seq.stream_length(accepted)
        for v in range(1, total + 1):
            g = seq.global_prefix_for_stream(accepted, v)
            assert seq.stream_length(accepted, g) == v
            assert g == 0 or seq.stream_length(accepted, g - 1) == v - 1


class TestAllocatorProperties:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["alloc-a", "alloc-b", "free", "cache-release"]),
                st.integers(0, 3),  # request id
            ),
            max_size=80,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_random_ops_keep_invariants(self, ops):
        specs = {
            "a": GroupSpec("a", FULL_ATTENTION, 1, 64, tokens_per_page=4,
                           accepted_tags=frozenset({TEXT})),
            "b": GroupSpec("b", FULL_ATTENTION, 1, 96, tokens_per_page=4,
                           accepted_tags=frozenset({TEXT})),
        }
        policies = {g: make_policy(s) for g, s in specs.items()}
        alloc = TwoLevelAllocator(768 * 3, specs, policies)
        live = []
        counter = 0
        for op, rid in ops:
            if op.startswith("alloc"):
                gid = op[-1]
                page = alloc.allocate_page(gid, f"r{rid}")
                if page is not None:
                    live.append((gid, page))
            elif live:
                gid, page = live.pop(0)
                if alloc.groups[gid].state[page] is not USED:
                    continue
                if op == "cache-release":
                    counter += 1
                    alloc.register_block_hash(gid, page, counter)
                    alloc.groups[gid].last_access[page] = float(counter)
                    alloc.release_page(gid, page, cacheable=True)
                else:
                    alloc.release_page(gid, page, cacheable=False)
            alloc.check_invariants()
            fast, slow = alloc.stats(), alloc.stats_slow()
            assert fast.used_bytes_by_group == slow.used_bytes_by_group
            assert fast.internal_frag_bytes == slow.internal_frag_bytes

    @given(st.integers(2, 12), st.integers(1, 40))
    @settings(max_examples=30, deadline=None)
    def test_conservation_of_memory(self, num_large, n_allocs):
        specs = {
            "a": GroupSpec("a", FULL_ATTENTION, 1, 64, tokens_per_page=4,
                           accepted_tags=frozenset({TEXT})),
        }
        alloc = TwoLevelAllocator(
            256 * 3 * num_large, specs, {"a": make_policy(specs["a"])}
        )
        got = 0
        for i in range(n_allocs):
            if alloc.allocate_page("a", f"r{i % 3}") is not None:
                got += 1
        stats = alloc.stats()
        total_accounted = (
            stats.used_bytes + stats.evictable_bytes + stats.internal_frag_bytes
            + stats.free_bytes + stats.slack_bytes
        )
        assert total_accounted == stats.total_bytes
        assert got == min(n_allocs, 3 * num_large)


class TestAllocatorCrossValidation:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(
                    ["alloc-a", "alloc-b", "free", "cache-release",
                     "acquire", "touch"]
                ),
                st.integers(0, 3),    # request id
                st.integers(0, 200),  # tie-breaker / time jitter
            ),
            max_size=120,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_fast_stats_match_slow_recount_exactly(self, ops):
        """Satellite check for the running-counter rework: after *every*
        operation -- including cache hits that revive evictable pages and
        touches that re-key the incremental large-page priority -- the
        O(groups) ``stats()`` must equal the O(pages) ``stats_slow()``
        field-for-field, ``num_free`` must equal a recount of EMPTY
        pages, and live extents must never overlap."""
        specs = {
            "a": GroupSpec("a", FULL_ATTENTION, 1, 64, tokens_per_page=4,
                           accepted_tags=frozenset({TEXT})),
            "b": GroupSpec("b", FULL_ATTENTION, 1, 96, tokens_per_page=4,
                           accepted_tags=frozenset({TEXT})),
        }
        policies = {g: make_policy(s) for g, s in specs.items()}
        alloc = TwoLevelAllocator(768 * 3, specs, policies)
        live = []
        known_hashes = []
        counter = 0
        for op, rid, jitter in ops:
            if op.startswith("alloc"):
                gid = op[-1]
                page = alloc.allocate_page(gid, f"r{rid}")
                if page is not None:
                    alloc.groups[gid].last_access[page] = float(jitter)
                    live.append((gid, page))
            elif op == "acquire" and known_hashes:
                gid, h = known_hashes[jitter % len(known_hashes)]
                page = alloc.acquire_cached(gid, h, f"r{rid}")
                if page is not None:  # revived or ref-shared
                    alloc.groups[gid].last_access[page] = float(jitter)
                    live.append((gid, page))
            elif op == "touch":
                for gid, group in alloc.groups.items():
                    if EVICTABLE in group.state:
                        page = group.state.index(EVICTABLE)
                        group.last_access[page] = float(jitter)
                        alloc.touch_evictable(gid, page)
            elif live:
                gid, page = live.pop(0)
                group = alloc.groups[gid]
                if group.state[page] is not USED:
                    continue
                if op == "cache-release" and group.block_hash[page] is None:
                    counter += 1
                    alloc.register_block_hash(gid, page, counter)
                    known_hashes.append((gid, counter))
                alloc.release_page(gid, page, cacheable=(op == "cache-release"))
            alloc.check_invariants()
            alloc.check_no_physical_overlap()
            fast, slow = alloc.stats(), alloc.stats_slow()
            assert fast == slow
            for gid, group in alloc.groups.items():
                assert group.num_free == group.state.count(EMPTY)


class TestManagerProperties:
    @given(
        st.lists(st.integers(1, 60), min_size=1, max_size=6),
        st.integers(2, 16),
    )
    @settings(max_examples=40, deadline=None)
    def test_serial_requests_never_leak(self, lengths, window):
        specs = {
            "full": GroupSpec("full", FULL_ATTENTION, 1, 16, tokens_per_page=4,
                              accepted_tags=frozenset({TEXT})),
            "win": GroupSpec("win", SLIDING_WINDOW, 1, 16, tokens_per_page=4,
                             window=window, accepted_tags=frozenset({TEXT})),
        }
        mgr = JengaKVCacheManager(specs, 64 * 1024, enable_prefix_caching=False)
        for i, n in enumerate(lengths):
            seq = SequenceSpec.text_only(f"r{i}", list(range(n)))
            mgr.begin_request(seq)
            assert mgr.allocate_up_to(seq, n)
            mgr.commit(seq, n, now=float(i))
            mgr.release(seq)
            assert mgr.stats().used_bytes == 0
            mgr.allocator.check_invariants()

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["start", "start", "finish", "preempt"]),
                st.integers(0, 2),   # prefix family / running-request pick
                st.integers(0, 40),  # shared-prefix tokens taken
                st.lists(st.integers(0, 3), max_size=8),  # own suffix
            ),
            min_size=4,
            max_size=30,
        ),
        st.integers(4, 16),
    )
    @settings(max_examples=60, deadline=None)
    def test_prefix_hits_hold_exactly_their_blocks_under_eviction(self, ops, window):
        """Caching on, concurrent requests over shared-prefix families, and
        a pool too small for their cache: every hit holds, in every group,
        exactly the cached pages ``hit_blocks_to_hold`` names, and every
        page's reference count is the number of requests holding it."""
        specs = {
            "full": GroupSpec("full", FULL_ATTENTION, 1, 16, tokens_per_page=4,
                              accepted_tags=frozenset({TEXT})),
            "win": GroupSpec("win", SLIDING_WINDOW, 1, 32, tokens_per_page=4,
                             window=window, accepted_tags=frozenset({TEXT})),
        }
        mgr = JengaKVCacheManager(specs, 128 * 24)
        alloc = mgr.allocator
        families = [[100 * f + t for t in range(40)] for f in range(3)]
        running = {}

        def check_refcounts():
            for gid, group in alloc.groups.items():
                holders = {}
                for rid in running:
                    binding = mgr._bindings[rid][gid]
                    for idx in binding.held:
                        page_id = binding.page_table[idx]
                        holders[page_id] = holders.get(page_id, 0) + 1
                for page_id, refs in enumerate(group.ref_count):
                    assert refs == holders.get(page_id, 0)

        for step, (op, pick, shared, suffix) in enumerate(ops):
            if op == "start":
                tokens = families[pick][:shared] + suffix
                if not tokens:
                    continue
                seq = SequenceSpec.text_only(f"r{step}", tokens)
                hit = mgr.begin_request(seq)
                assert 0 <= hit < len(seq)
                alloc.check_invariants()
                for gid, policy in mgr.policies.items():
                    cached = seq.stream_length(specs[gid].accepted_tags, hit)
                    blocks = policy.hit_blocks_to_hold(cached)
                    hashes = chain_hashes(
                        seq.stream_tokens(specs[gid].accepted_tags),
                        policy.cacheable_boundaries(cached),
                    )
                    binding = mgr._bindings[seq.request_id][gid]
                    want = {policy.page_index_of_block(b): hashes[b] for b in blocks}
                    assert binding.held == set(want)
                    assert {
                        idx for idx, p in enumerate(binding.page_table) if p is not None
                    } == set(want)
                    for idx, block_hash in want.items():
                        group, page = alloc.groups[gid], binding.page_table[idx]
                        assert group.state[page] is USED
                        assert group.block_hash[page] == block_hash
                running[seq.request_id] = seq
                if mgr.allocate_up_to(seq, len(seq)):
                    mgr.commit(seq, len(seq), now=float(step), phase="prefill")
                else:
                    mgr.release(running.pop(seq.request_id), cacheable=False)
            elif running:
                rid = sorted(running)[pick % len(running)]
                mgr.release(running.pop(rid), cacheable=(op == "finish"))
            alloc.check_invariants()
            check_refcounts()
        for seq in list(running.values()):
            mgr.release(seq)
        running.clear()
        check_refcounts()
        assert mgr.stats().used_bytes == 0


#: Hit flags biased toward cached, so runs are long enough to meet a window.
mostly_hit = st.sampled_from([True, True, True, False])


class TestLookupOracle:
    """The lookup's per-group ``largest_prefix_at_most`` fixed point gives
    the hit the paper's rule gives: ``get_possible_prefix`` over every
    block, intersected by ``tests/oracle.py``'s ``longest_common_prefix``."""

    @given(
        # The window's jump has the most cases, so it is drawn most.
        st.sampled_from([FULL_ATTENTION, CROSS_ATTENTION, MAMBA, DROPPED_TOKEN]
                        + [SLIDING_WINDOW] * 4),
        st.integers(1, 8),  # tokens per page
        st.integers(1, 40),  # window / budget / checkpoint interval
        st.integers(0, 160),  # stream tokens hashed
        st.data(),
    )
    @settings(max_examples=400, deadline=None)
    def test_policy_answer_is_the_largest_valid_prefix(self, kind, tpp, span, stream, data):
        spec = GroupSpec("g", kind, 1, 8, tokens_per_page=tpp, window=span,
                         budget=span, state_bytes=64, checkpoint_interval=span)
        policy = make_policy(spec)
        cap = data.draw(st.integers(0, stream), label="cap")
        n = len(policy.cacheable_boundaries(stream))
        is_hit = data.draw(st.lists(mostly_hit, min_size=n, max_size=n), label="is_hit")
        probe = {b: b for b, hit in enumerate(is_hit) if hit}.get
        blocks = len(policy.cacheable_boundaries(cap))
        want = max(policy.get_possible_prefix(is_hit[:blocks]), default=0)
        assert policy.largest_prefix_at_most(cap, range(n), probe) == want

    @pytest.mark.parametrize("model", ["gemma2-9b", "llama3.2-vision-11b", "jamba-52b"])
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_manager_hit_matches_reference(self, model, data):
        """Random resident block sets per group and random prompt lengths
        (the cap) over three geometries: gemma2-9b with its window cut
        below the stream, so the window policy's jump runs;
        llama3.2-vision-11b, whose cross attention sees only the image
        stream (stream != global); and jamba-52b's Mamba checkpoints."""
        specs = get_model(model).kv_groups()
        if model == "gemma2-9b":
            window = data.draw(st.integers(1, 64), label="window")
            specs = {g: replace(s, window=window) if s.kind == SLIDING_WINDOW else s
                     for g, s in specs.items()}
            segments = [(TEXT, data.draw(st.integers(1, 200), label="text"))]
        elif model == "jamba-52b":
            segments = [(TEXT, data.draw(st.integers(1, 2200), label="text"))]
        else:
            segments = [(TEXT, data.draw(st.integers(0, 80), label="text")),
                        (IMAGE, data.draw(st.integers(1, 160), label="image")),
                        (TEXT, data.draw(st.integers(1, 120), label="text"))]
        ids = iter(range(10**6))
        full = SequenceSpec.multimodal(
            "full", [(tag, [next(ids) for _ in range(n)]) for tag, n in segments]
        )
        large = lcm_of([s.page_bytes for s in specs.values()])
        mgr = JengaKVCacheManager(specs, 64 * large)
        alloc = mgr.allocator
        for group_id in mgr._lookup_order:
            policy = mgr.policies[group_id]
            stream = full.stream_tokens(specs[group_id].accepted_tags)
            hashes = chain_hashes(stream, policy.cacheable_boundaries(len(stream)))
            evicted = data.draw(st.one_of(st.just(0), st.integers(0, len(hashes))),
                                label=f"{group_id} evicted head")
            holes = data.draw(st.one_of(st.just(set()), st.sets(
                st.integers(0, max(len(hashes) - 1, 0)), max_size=3)), label=f"{group_id} holes")
            resident = [h for b, h in enumerate(hashes) if b >= evicted and b not in holes]
            if resident:
                pages = alloc.allocate_pages(group_id, "warm", len(resident))
                for page_id, block_hash in zip(pages, resident):
                    alloc.register_block_hash(group_id, page_id, block_hash)
                alloc.release_pages(group_id, pages, True)
        length = data.draw(st.integers(1, len(full)), label="prompt length")
        seq = SequenceSpec("r", token_ids=full.token_ids[:length], tags=full.tags[:length])
        want = reference_hit(mgr, seq)
        assert mgr.begin_request(seq) == want
        alloc.check_invariants()


class TestPhysicalSafetyProperties:
    @given(
        st.lists(
            st.tuples(st.sampled_from(["a", "b", "free"]), st.integers(0, 3)),
            max_size=60,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_live_pages_never_overlap(self, ops):
        """Section 4.2's memory-safety claim: every small page occupies an
        exclusive contiguous byte range, across all layer types, through
        arbitrary churn."""
        specs = {
            "a": GroupSpec("a", FULL_ATTENTION, 1, 64, tokens_per_page=4,
                           accepted_tags=frozenset({TEXT})),
            "b": GroupSpec("b", FULL_ATTENTION, 1, 96, tokens_per_page=4,
                           accepted_tags=frozenset({TEXT})),
        }
        policies = {g: make_policy(s) for g, s in specs.items()}
        alloc = TwoLevelAllocator(768 * 4, specs, policies)
        live = []
        for op, rid in ops:
            if op == "free":
                if live:
                    gid, page = live.pop(0)
                    if alloc.groups[gid].state[page] is USED:
                        alloc.release_page(gid, page, cacheable=False)
            else:
                page = alloc.allocate_page(op, f"r{rid}")
                if page is not None:
                    live.append((op, page))
            alloc.check_no_physical_overlap()


class TestHashChainMemo:
    """The memoized incremental chain must equal from-scratch hashing."""

    SCHEDULES = [("uniform", 2), ("uniform", 4), ("exponential", 2)]

    @staticmethod
    def _boundaries(schedule, stream_len):
        kind, param = schedule
        if kind == "uniform":
            return list(range(param, stream_len + 1, param))
        out, pos = [], param
        while pos <= stream_len:
            out.append(pos)
            pos *= 2
        return out

    @given(
        initial=st.lists(st.integers(0, 7), max_size=10),
        ops=st.lists(
            st.one_of(
                st.tuples(
                    st.just("append"),
                    st.lists(st.integers(0, 7), min_size=1, max_size=6),
                ),
                # A fork replays a shorter prefix with a fresh
                # continuation: truncate models the divergence point.
                st.tuples(st.just("fork"), st.integers(0, 24)),
                st.tuples(st.just("query"), st.sampled_from(SCHEDULES)),
                # Capped query: the lookup path passes only the
                # boundaries below its hit cap, never the full schedule.
                st.tuples(st.just("cap"), st.sampled_from(SCHEDULES)),
            ),
            max_size=40,
        ),
        cap=st.integers(0, 12),
    )
    @settings(max_examples=60)
    def test_incremental_chain_matches_from_scratch(self, initial, ops, cap):
        tags = frozenset({TEXT})
        seq = SequenceSpec.text_only("r", list(initial))
        for op, arg in ops:
            if op == "append":
                seq.extend(arg)
                continue
            if op == "fork":
                seq.truncate(min(arg, len(seq)))
                seq.append(99)  # diverging continuation
                continue
            stream = seq.stream_tokens(tags)
            boundaries = self._boundaries(arg, len(stream))
            if op == "cap":
                boundaries = boundaries[:cap]
            got = seq.hash_chain(tags, arg, stream, boundaries)
            assert list(got) == chain_hashes(stream, boundaries)
        stream = seq.stream_tokens(tags)
        for schedule in self.SCHEDULES:
            boundaries = self._boundaries(schedule, len(stream))
            got = seq.hash_chain(tags, schedule, stream, boundaries)
            assert list(got) == chain_hashes(stream, boundaries)

    @given(st.lists(st.integers(0, 7), min_size=4, max_size=24))
    def test_chain_survives_decode_growth(self, tokens):
        """Token-by-token growth (the decode path) extends in place."""
        tags = frozenset({TEXT})
        seq = SequenceSpec.text_only("r", tokens[:4])
        schedule = ("uniform", 2)
        for tok in tokens[4:]:
            seq.append(tok)
            stream = seq.stream_tokens(tags)
            boundaries = list(range(2, len(stream) + 1, 2))
            got = seq.hash_chain(tags, schedule, stream, boundaries)
            assert list(got) == chain_hashes(stream, boundaries)
