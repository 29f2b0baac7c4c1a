"""Tests for per-layer-type caching policies (paper Section 5.3)."""

import pytest

from repro.core.layer_policy import (
    CROSS_ATTENTION,
    CrossAttentionPolicy,
    DROPPED_TOKEN,
    DroppedTokenPolicy,
    FULL_ATTENTION,
    FullAttentionPolicy,
    GroupSpec,
    MAMBA,
    MambaPolicy,
    SLIDING_WINDOW,
    SlidingWindowPolicy,
    VISION_EMBEDDING,
    VisionEmbeddingPolicy,
    make_policy,
)
from repro.core.sequence import IMAGE, TEXT, SequenceSpec


def spec(kind, **kw):
    defaults = dict(
        group_id="g", kind=kind, num_layers=2, per_token_bytes=64, tokens_per_page=4
    )
    defaults.update(kw)
    return GroupSpec(**defaults)


def pages(n):
    """A request's page table over ``n`` pages, in reverse id order, and
    the group's fresh per-page ``last_access`` and ``prefix_length``."""
    return list(range(n - 1, -1, -1)), [-1.0] * n, [0.0] * n


def by_slot(table, values):
    """``values`` (indexed by page id) read along the page table."""
    return [None if page_id is None else values[page_id] for page_id in table]


class TestGroupSpec:
    def test_page_bytes_attention(self):
        assert spec(FULL_ATTENTION).page_bytes == 256

    def test_page_bytes_mamba(self):
        s = spec(MAMBA, per_token_bytes=0, state_bytes=12345)
        assert s.page_bytes == 12345

    def test_window_required(self):
        with pytest.raises(ValueError):
            spec(SLIDING_WINDOW)

    def test_mamba_needs_state(self):
        with pytest.raises(ValueError):
            spec(MAMBA, per_token_bytes=0)

    def test_budget_required_for_dropped(self):
        with pytest.raises(ValueError):
            spec(DROPPED_TOKEN)

    def test_bytes_for_tokens(self):
        assert spec(FULL_ATTENTION).bytes_for_tokens(10) == 640
        s = spec(MAMBA, per_token_bytes=0, state_bytes=999)
        assert s.bytes_for_tokens(10) == 999


class TestFullAttention:
    def test_num_pages(self):
        p = FullAttentionPolicy(spec(FULL_ATTENTION))
        assert p.num_pages_for(0) == 0
        assert p.num_pages_for(1) == 1
        assert p.num_pages_for(4) == 1
        assert p.num_pages_for(5) == 2

    def test_all_pages_active(self):
        p = FullAttentionPolicy(spec(FULL_ATTENTION))
        assert set(p.active_page_indices(10)) == {0, 1, 2}

    def test_possible_prefix_stops_at_miss(self):
        p = FullAttentionPolicy(spec(FULL_ATTENTION))
        assert p.get_possible_prefix([True, True, False, True]) == [4, 8]
        assert p.get_possible_prefix([False, True]) == []
        assert p.get_possible_prefix([]) == []

    def test_resident_tokens(self):
        p = FullAttentionPolicy(spec(FULL_ATTENTION))
        assert p.resident_tokens(100) == 100

    def test_update_last_access_touches_all(self):
        p = FullAttentionPolicy(spec(FULL_ATTENTION))
        table, last, _ = pages(3)
        p.update_last_access(last, table, 12, now=7.0)
        assert last == [7.0] * 3

    def test_set_prefix_length_is_depth(self):
        p = FullAttentionPolicy(spec(FULL_ATTENTION))
        table, _, prefix = pages(3)
        p.set_prefix_length(prefix, table, SequenceSpec.text_only("r", list(range(12))))
        assert by_slot(table, prefix) == [4.0, 8.0, 12.0]


class TestSlidingWindow:
    def make(self, window=8):
        return SlidingWindowPolicy(spec(SLIDING_WINDOW, window=window))

    def test_active_pages_cover_window(self):
        p = self.make(window=8)
        # 20 tokens, window 8: next token reads [12, 20) -> pages 3, 4.
        assert set(p.active_page_indices(20)) == {3, 4}

    def test_active_pages_short_stream(self):
        p = self.make(window=8)
        assert set(p.active_page_indices(6)) == {0, 1}
        assert set(p.active_page_indices(0)) == set()

    def test_resident_tokens_capped(self):
        p = self.make(window=8)
        assert p.resident_tokens(100) == 8
        assert p.resident_tokens(5) == 5

    def test_paper_hit_example(self):
        # Section 3.3: [t1(evicted), t2, t3] with window 2 is a valid
        # 3-token prefix because t1 lies outside the window.
        p = SlidingWindowPolicy(
            GroupSpec("g", SLIDING_WINDOW, 1, 64, tokens_per_page=1, window=2)
        )
        assert 3 in p.get_possible_prefix([False, True, True])

    def test_hit_needs_window_blocks(self):
        p = self.make(window=8)
        # Prefix 12 needs blocks covering [4, 12) = blocks 1 and 2.
        hits = [False, True, True]
        assert p.get_possible_prefix(hits) == [12]

    def test_figure11_example(self):
        # Figure 11: request of 10 tokens, window 2, per-token pages;
        # cached: ABCD and FGHI(J) -> valid prefixes 4, 9, 10 when E is
        # missing (prefix 5 and 6 invalid).
        p = SlidingWindowPolicy(
            GroupSpec("g", SLIDING_WINDOW, 1, 64, tokens_per_page=1, window=2)
        )
        is_hit = [True, True, True, True, False, True, True, True, True, True]
        got = p.get_possible_prefix(is_hit)
        assert 4 in got and 9 in got and 10 in got
        assert 5 not in got and 6 not in got

    def test_update_last_access_only_window(self):
        p = self.make(window=8)
        table, last, _ = pages(5)
        p.update_last_access(last, table, 20, now=3.0)
        assert by_slot(table, last) == [-1.0, -1.0, -1.0, 3.0, 3.0]


class TestDroppedToken:
    def test_behaves_like_budget_window(self):
        p = DroppedTokenPolicy(spec(DROPPED_TOKEN, budget=8))
        assert p.resident_tokens(100) == 8
        assert set(p.active_page_indices(20)) == {3, 4}

    def test_no_prefix_caching(self):
        p = DroppedTokenPolicy(spec(DROPPED_TOKEN, budget=8))
        assert p.cacheable_boundaries(100) == []
        assert p.get_possible_prefix([]) == []


class TestMamba:
    def make(self, interval=8, checkpoints=True):
        return MambaPolicy(
            spec(MAMBA, per_token_bytes=0, state_bytes=1024, checkpoint_interval=interval),
            enable_checkpoints=checkpoints,
        )

    def test_one_page_without_checkpoints(self):
        p = self.make(checkpoints=False)
        assert p.num_pages_for(0) == 0
        assert p.num_pages_for(1000) == 1

    def test_pages_with_checkpoints(self):
        p = self.make(interval=8)
        assert p.num_pages_for(7) == 1
        assert p.num_pages_for(8) == 2
        assert p.num_pages_for(17) == 3

    def test_only_working_state_active(self):
        p = self.make()
        assert set(p.active_page_indices(100)) == {0}

    def test_checkpoint_boundaries(self):
        p = self.make(interval=8)
        assert p.cacheable_boundaries(25) == [8, 16, 24]
        assert p.page_index_of_block(0) == 1

    def test_possible_prefix_any_cached_checkpoint(self):
        p = self.make(interval=8)
        # Unlike attention, checkpoint 2 alone is a valid hit.
        assert p.get_possible_prefix([False, True, False]) == [16]
        assert p.get_possible_prefix([True, True]) == [8, 16]

    def test_update_last_access_only_latest(self):
        p = self.make(interval=8)
        table, last, _ = pages(4)  # working + 3 checkpoints
        p.update_last_access(last, table, 24, now=5.0)
        stamps = by_slot(table, last)
        assert stamps[0] == 5.0  # working state
        assert stamps[3] == 5.0  # newest checkpoint
        assert stamps[1] == -1.0
        assert stamps[2] == -1.0


class TestVisionEmbedding:
    def make(self):
        return VisionEmbeddingPolicy(
            spec(VISION_EMBEDDING, accepted_tags=frozenset({IMAGE})), seed=1
        )

    def seq_two_images(self):
        return SequenceSpec.multimodal(
            "r",
            [(TEXT, [1]), (IMAGE, list(range(10, 18))), (IMAGE, list(range(20, 28)))],
        )

    def test_same_image_same_prefix_value(self):
        p = self.make()
        seq = self.seq_two_images()
        table, _, prefix = pages(4)  # 16 image tokens / 4 per page
        p.set_prefix_length(prefix, table, seq)
        got = by_slot(table, prefix)
        # Pages 0-1 are image 0; pages 2-3 are image 1.
        assert got[0] == got[1]
        assert got[2] == got[3]
        assert got[0] != got[2]

    def test_draw_is_stable(self):
        p = self.make()
        seq = self.seq_two_images()
        table, _, prefix = pages(4)
        p.set_prefix_length(prefix, table, seq)
        first = list(prefix)
        p.set_prefix_length(prefix, table, seq)
        assert prefix == first

    def test_consumption_frees_leading_pages(self):
        p = self.make()
        assert p.release_frontier(16, consumed=9) == 2  # pages 2, 3 stay
        assert p.release_frontier(16) == 0
        assert set(p.active_page_indices(16)) == {0, 1, 2, 3}


class TestFactory:
    @pytest.mark.parametrize(
        "kind,cls",
        [
            (FULL_ATTENTION, FullAttentionPolicy),
            (CROSS_ATTENTION, CrossAttentionPolicy),
        ],
    )
    def test_make_policy_attention(self, kind, cls):
        assert isinstance(make_policy(spec(kind)), cls)

    def test_make_policy_window(self):
        p = make_policy(spec(SLIDING_WINDOW, window=4))
        assert isinstance(p, SlidingWindowPolicy)

    def test_make_policy_mamba_respects_caching_flag(self):
        s = spec(MAMBA, per_token_bytes=0, state_bytes=64)
        p = make_policy(s, enable_prefix_caching=False)
        assert isinstance(p, MambaPolicy)
        assert p.num_pages_for(10_000) == 1

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_policy(spec("warp_attention"))


class TestCheckpointSchedules:
    def make(self, interval=8):
        return MambaPolicy(
            GroupSpec("m", MAMBA, 1, 0, state_bytes=1024, checkpoint_interval=interval)
        )

    def test_fixed_boundaries(self):
        p = self.make()
        assert p.cacheable_boundaries(33) == [8, 16, 24, 32]
        assert p.boundary_of_block(2) == 24
        assert p.boundary_schedule() == ("fixed", 8)

    def test_boundaries_append_monotonically(self):
        # Growing the stream must only append boundaries (page-table
        # layout requirement), each at its block's snapshot depth.
        p = self.make()
        prev = []
        for n in range(0, 200, 7):
            cur = p.cacheable_boundaries(n)
            assert cur[: len(prev)] == prev
            assert cur == [p.boundary_of_block(b) for b in range(len(cur))]
            prev = cur


# One spec per layer kind, window/budget 8 and checkpoint interval 8 over
# 4-token pages, for the hooks the KV manager drives every kind through.
ALL_KINDS = {
    FULL_ATTENTION: spec(FULL_ATTENTION),
    CROSS_ATTENTION: spec(CROSS_ATTENTION, accepted_tags=frozenset({IMAGE})),
    SLIDING_WINDOW: spec(SLIDING_WINDOW, window=8),
    DROPPED_TOKEN: spec(DROPPED_TOKEN, budget=8, checkpoint_interval=16),
    MAMBA: spec(MAMBA, per_token_bytes=0, state_bytes=1024, checkpoint_interval=8),
    VISION_EMBEDDING: spec(VISION_EMBEDDING, accepted_tags=frozenset({IMAGE})),
}


def expected_active(kind, stream_len):
    """Slots the *next* token's layer computation reads, written out per
    kind rather than through the policy."""
    num_pages = -(-stream_len // 4)
    if kind == MAMBA:
        return {0} if stream_len else set()
    if kind in (SLIDING_WINDOW, DROPPED_TOKEN):
        return set(range(max(0, stream_len - 8) // 4, num_pages))
    return set(range(num_pages))


def expected_prefix_length(kind, idx, draws):
    if kind == MAMBA:
        return 1e12 if idx == 0 else idx * 8.0  # checkpoint idx-1 at idx*8
    if kind == VISION_EMBEDDING:
        return draws[idx // 2]  # two 4-token pages per 8-token image
    return (idx + 1) * 4.0


class TestManagerHooks:
    @pytest.mark.parametrize("kind", sorted(ALL_KINDS))
    def test_release_frontier_is_first_active_slot(self, kind):
        policy = make_policy(ALL_KINDS[kind])
        for n in range(41):
            active = expected_active(kind, n)
            assert set(policy.active_page_indices(n)) == active
            assert policy.release_frontier(n) == min(active, default=0)

    @pytest.mark.parametrize("kind", sorted(ALL_KINDS))
    def test_per_slot_prefix_length_matches_bulk(self, kind):
        policy = make_policy(ALL_KINDS[kind], seed=3)
        seq = SequenceSpec.multimodal(
            "r", [(TEXT, [1]), (IMAGE, list(range(10, 18))), (IMAGE, list(range(20, 28)))]
        )
        table, _, prefix = pages(4)
        table[1] = None  # a released slot keeps its hole in the bulk form
        policy.set_prefix_length(prefix, table, seq)
        got = by_slot(table, prefix)
        draws = {}
        if kind == VISION_EMBEDDING:
            draws = {0: got[0], 1: got[2]}
            assert draws[0] != draws[1]
        for idx, value in enumerate(got):
            if value is not None:
                assert value == policy.prefix_length_of(idx, seq)
                assert value == expected_prefix_length(kind, idx, draws)
        assert policy.prefix_length_of(1, seq) == expected_prefix_length(kind, 1, draws)

    def test_dropped_token_keeps_every_spec_field(self):
        p = DroppedTokenPolicy(ALL_KINDS[DROPPED_TOKEN])
        assert p.spec.window == 8
        assert p.spec.checkpoint_interval == 16

    def test_window_peak_is_window_plus_chunk(self):
        p = make_policy(ALL_KINDS[SLIDING_WINDOW])
        assert p.peak_pages(stream_total=100, chunk_tokens=16) == 6  # 8 + 16 tokens
        assert p.peak_pages(stream_total=10, chunk_tokens=16) == 3  # capped by the stream
        assert make_policy(ALL_KINDS[FULL_ATTENTION]).peak_pages(100, 16) == 0

    def test_hit_blocks_to_hold(self):
        assert list(make_policy(ALL_KINDS[FULL_ATTENTION]).hit_blocks_to_hold(16)) == [0, 1, 2, 3]
        assert list(make_policy(ALL_KINDS[SLIDING_WINDOW]).hit_blocks_to_hold(16)) == [2, 3]
        # A Mamba hit copies its checkpoint; a dropped-token group has none.
        assert list(make_policy(ALL_KINDS[MAMBA]).hit_blocks_to_hold(16)) == []
        assert list(make_policy(ALL_KINDS[DROPPED_TOKEN]).hit_blocks_to_hold(16)) == []
