"""Property-based tests (hypothesis) on allocator and policy invariants."""

import math

from hypothesis import given, settings, strategies as st

from repro.core.evictor import LRUEvictor
from repro.core.kv_manager import JengaKVCacheManager
from repro.core.layer_policy import (
    FULL_ATTENTION,
    GroupSpec,
    SLIDING_WINDOW,
    SlidingWindowPolicy,
    make_policy,
)
from repro.core.math_utils import compatible_page_bytes, gcd_of, lcm_of
from repro.core.prefix_cache import chain_hashes, longest_common_prefix
from repro.core.sequence import IMAGE, TEXT, SequenceSpec
from repro.core.two_level import TwoLevelAllocator

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
        for item, t, p in ops:
            ev.add(item, t, p)
        order = []
        while len(ev):
            item = ev.evict()
            order.append(ev._priority.get(item) or item)
        # Draining twice as many items as inserted never happens, and the
        # evictor empties completely.
        assert len(ev) == 0

    @given(st.lists(st.tuples(st.integers(0, 10), st.floats(0, 9)), min_size=1, max_size=50))
    def test_peek_matches_evict(self, ops):
        ev = LRUEvictor()
        for item, t in ops:
            ev.add(item, t)
        while len(ev):
            assert ev.peek() == ev.evict()


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
                if not page.is_used:
                    continue
                if op == "cache-release":
                    counter += 1
                    alloc.register_block_hash(gid, page, counter)
                    page.last_access = float(counter)
                    alloc.release_page(gid, page.page_id, cacheable=True)
                else:
                    alloc.release_page(gid, page.page_id, cacheable=False)
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
                    page.last_access = float(jitter)
                    live.append((gid, page))
            elif op == "acquire" and known_hashes:
                gid, h = known_hashes[jitter % len(known_hashes)]
                page = alloc.acquire_cached(gid, h, f"r{rid}")
                if page is not None:  # revived or ref-shared
                    page.last_access = float(jitter)
                    live.append((gid, page))
            elif op == "touch":
                for gid, group in alloc.groups.items():
                    for page in group.pages.values():
                        if page.is_evictable:
                            page.last_access = float(jitter)
                            alloc.touch_evictable(gid, page)
                            break
            elif live:
                gid, page = live.pop(0)
                if not page.is_used:
                    continue
                if op == "cache-release" and page.block_hash is None:
                    counter += 1
                    alloc.register_block_hash(gid, page, counter)
                    known_hashes.append((gid, counter))
                alloc.release_page(
                    gid, page.page_id, cacheable=(op == "cache-release")
                )
            alloc.check_invariants()
            alloc.check_no_physical_overlap()
            fast, slow = alloc.stats(), alloc.stats_slow()
            assert fast == slow
            for gid, group in alloc.groups.items():
                empties = sum(1 for p in group.pages.values() if p.is_empty)
                assert group.num_free == empties


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
                    if page.is_used:
                        alloc.release_page(gid, page.page_id, cacheable=False)
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
