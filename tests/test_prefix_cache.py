"""Tests for content hashing, the block index, and the reference model-wide
hit (``tests/oracle.py``'s ``longest_common_prefix``)."""

import pytest

from repro.core.prefix_cache import CachedBlockIndex, chain_hashes
from repro.core.sequence import IMAGE, TEXT, SequenceSpec

from .oracle import longest_common_prefix

ALL = frozenset({TEXT, IMAGE})
T = frozenset({TEXT})
I = frozenset({IMAGE})


class TestChainHashes:
    def test_equal_prefixes_hash_equal(self):
        a = chain_hashes([1, 2, 3, 4], [2, 4])
        b = chain_hashes([1, 2, 3, 4, 9, 9], [2, 4])
        assert a == b

    def test_divergent_prefix_differs(self):
        a = chain_hashes([1, 2, 3, 4], [2, 4])
        b = chain_hashes([1, 2, 9, 4], [2, 4])
        assert a[0] == b[0]
        assert a[1] != b[1]

    def test_chaining_captures_ancestry(self):
        # Same block content after different first blocks must differ.
        a = chain_hashes([1, 2, 7, 8], [2, 4])
        b = chain_hashes([3, 4, 7, 8], [2, 4])
        assert a[1] != b[1]

    def test_empty_boundaries(self):
        assert chain_hashes([1, 2, 3], []) == []

    def test_non_increasing_raises(self):
        with pytest.raises(ValueError):
            chain_hashes([1, 2, 3], [2, 2])

    def test_boundary_beyond_stream_raises(self):
        with pytest.raises(ValueError):
            chain_hashes([1, 2], [3])


class TestCachedBlockIndex:
    def test_insert_lookup_remove(self):
        idx = CachedBlockIndex()
        assert idx.lookup(42) is None
        idx.insert(42, 7)
        assert idx.lookup(42) == 7
        idx.remove(42)
        assert idx.probe(42) is None

    def test_duplicate_insert_displaces(self):
        idx = CachedBlockIndex()
        idx.insert(42, 7)
        displaced = idx.insert(42, 9)
        assert displaced == 7
        assert idx.probe(42) == 9

    def test_reinsert_same_page_no_displacement(self):
        idx = CachedBlockIndex()
        idx.insert(42, 7)
        assert idx.insert(42, 7) is None

    def test_guarded_remove(self):
        idx = CachedBlockIndex()
        idx.insert(42, 9)
        idx.remove(42, page_id=7)  # stale remove must not clobber
        assert idx.probe(42) == 9
        idx.remove(42, page_id=9)
        assert idx.probe(42) is None

    def test_hit_rate_counters(self):
        # Acquire-time lookups count; tests/test_allocator_runs.py's GOLDEN
        # snapshot reads these.
        idx = CachedBlockIndex()
        idx.insert(1, 1)
        idx.lookup(1)
        idx.lookup(2)
        assert idx.hits == 1 and idx.misses == 1

    def test_probe_does_not_count_as_lookup(self):
        idx = CachedBlockIndex()
        idx.insert(1, 1)
        assert idx.probe(1) == 1
        assert idx.probe(5) is None
        assert idx.hits == 0 and idx.misses == 0


class TestLongestCommonPrefix:
    def test_single_full_attention_group(self):
        seq = SequenceSpec.text_only("r", list(range(20)))
        lcp = longest_common_prefix(seq, {"g": [4, 8, 12]}, {"g": T})
        assert lcp == 12

    def test_cap_applies(self):
        seq = SequenceSpec.text_only("r", list(range(12)))
        lcp = longest_common_prefix(seq, {"g": [4, 8, 12]}, {"g": T}, max_global=11)
        assert lcp == 8

    def test_intersection_of_groups(self):
        seq = SequenceSpec.text_only("r", list(range(32)))
        valid = {"full": [4, 8, 12, 16], "win": [8, 16, 24]}
        tags = {"full": T, "win": T}
        assert longest_common_prefix(seq, valid, tags) == 16

    def test_no_common_prefix(self):
        seq = SequenceSpec.text_only("r", list(range(8)))
        valid = {"full": [4], "win": [8]}
        tags = {"full": T, "win": T}
        assert longest_common_prefix(seq, valid, tags) == 0

    def test_mamba_style_sparse_prefixes(self):
        seq = SequenceSpec.text_only("r", list(range(40)))
        valid = {"attn": [8, 16, 24, 32], "mamba": [16, 32]}
        tags = {"attn": T, "mamba": T}
        assert longest_common_prefix(seq, valid, tags) == 32

    def test_multimodal_streams(self):
        # [text x4][image x8][text x4]: the cross-attention group only
        # constrains image tokens, so a global prefix inside the trailing
        # text extends freely once all 8 image tokens are valid.
        seq = SequenceSpec.multimodal(
            "r",
            [(TEXT, [1, 2, 3, 4]), (IMAGE, list(range(10, 18))), (TEXT, [5, 6, 7, 8])],
        )
        valid = {"self": [4, 8, 12, 16], "cross": [8]}
        tags = {"self": T, "cross": I}
        # Global 16 -> text stream 8 (valid), image stream 8 (valid).
        # Global 15 is the max_global cap (len-1).
        lcp = longest_common_prefix(seq, valid, tags, max_global=len(seq) - 1)
        # Global 15 has text-stream 7 (invalid); the largest valid is 12
        # (text 4? no: global 12 -> text 4, image 8 -> both valid).
        assert lcp == 12

    def test_empty_prefix_always_valid(self):
        seq = SequenceSpec.text_only("r", [1, 2, 3])
        assert longest_common_prefix(seq, {"g": []}, {"g": T}) == 0

    def test_group_with_no_stream_tokens(self):
        # Pure-text request served by a model with a cross-attention group:
        # the image group never constrains.
        seq = SequenceSpec.text_only("r", list(range(8)))
        valid = {"self": [4, 8], "cross": []}
        tags = {"self": T, "cross": I}
        assert longest_common_prefix(seq, valid, tags, max_global=8) == 8
