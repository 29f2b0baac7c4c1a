"""Tests for token sequences with image spans and their stream views."""

import pytest

from repro.core.sequence import IMAGE, TEXT, SequenceSpec

ALL = frozenset({TEXT, IMAGE})
T = frozenset({TEXT})
I = frozenset({IMAGE})


def vlm_seq():
    # [text x3][image x4][text x2]
    return SequenceSpec.multimodal(
        "r",
        [(TEXT, [1, 2, 3]), (IMAGE, [10, 11, 12, 13]), (TEXT, [4, 5])],
    )


class TestConstruction:
    def test_text_only(self):
        seq = SequenceSpec.text_only("r", [1, 2, 3])
        assert len(seq) == 3
        assert seq.stream_length(T) == 3
        assert seq.stream_length(I) == 0

    def test_multimodal_spans(self):
        seq = vlm_seq()
        assert seq.image_spans == [(3, 7)]
        assert seq.stream_length(I) == 4
        assert seq.stream_length(T) == 5

    def test_adjacent_spans_are_two_images(self):
        seq = SequenceSpec.multimodal("r", [(IMAGE, [1, 2]), (IMAGE, [3]), (TEXT, [4])])
        assert seq.image_spans == [(0, 2), (2, 3)]
        assert seq.stream_tokens(I) == [1, 2, 3]
        assert seq.stream_tokens(T) == [4]


class TestSpanValidation:
    """Every rejected span shape raises at construction."""

    def test_empty_span_raises(self):
        with pytest.raises(ValueError):
            SequenceSpec("r", token_ids=[1, 2, 3], image_spans=[(1, 1)])

    def test_reversed_span_raises(self):
        with pytest.raises(ValueError):
            SequenceSpec("r", token_ids=[1, 2, 3], image_spans=[(2, 1)])

    def test_negative_start_raises(self):
        with pytest.raises(ValueError):
            SequenceSpec("r", token_ids=[1, 2, 3], image_spans=[(-1, 2)])

    def test_out_of_order_spans_raise(self):
        with pytest.raises(ValueError):
            SequenceSpec("r", token_ids=[1, 2, 3, 4], image_spans=[(2, 3), (0, 1)])

    def test_overlapping_spans_raise(self):
        with pytest.raises(ValueError):
            SequenceSpec("r", token_ids=[1, 2, 3, 4], image_spans=[(0, 2), (1, 3)])

    def test_span_past_the_end_raises(self):
        with pytest.raises(ValueError):
            SequenceSpec("r", token_ids=[1, 2, 3], image_spans=[(1, 4)])

    def test_empty_image_segment_raises(self):
        with pytest.raises(ValueError):
            SequenceSpec.multimodal("r", [(TEXT, [1, 2]), (IMAGE, []), (TEXT, [3])])

    def test_unknown_segment_tag_raises(self):
        with pytest.raises(ValueError):
            SequenceSpec.multimodal("r", [(TEXT, [1, 2]), ("audio", [3])])


class TestStreams:
    def test_stream_tokens_filters_by_tag(self):
        seq = vlm_seq()
        assert seq.stream_tokens(T) == [1, 2, 3, 4, 5]
        assert seq.stream_tokens(I) == [10, 11, 12, 13]
        assert seq.stream_tokens(ALL) == [1, 2, 3, 10, 11, 12, 13, 4, 5]

    def test_stream_length_with_prefix(self):
        seq = vlm_seq()
        assert seq.stream_length(T, 5) == 3  # first 5 globals: 3 text
        assert seq.stream_length(I, 5) == 2
        assert seq.stream_length(ALL, 5) == 5
        assert seq.stream_length(T) == 5

    def test_stream_length_clamps(self):
        seq = vlm_seq()
        assert seq.stream_length(T, 999) == 5

    def test_global_prefix_for_stream(self):
        seq = vlm_seq()
        # 2 image tokens are first contained in the global prefix of 5.
        assert seq.global_prefix_for_stream(I, 2) == 5
        assert seq.global_prefix_for_stream(T, 4) == 8
        assert seq.global_prefix_for_stream(T, 0) == 0
        assert seq.global_prefix_for_stream(ALL, 6) == 6

    def test_global_prefix_beyond_stream_raises(self):
        seq = vlm_seq()
        with pytest.raises(ValueError):
            seq.global_prefix_for_stream(I, 5)

    def test_image_spans_hold_the_image_tokens(self):
        seq = vlm_seq()
        (start, end), = seq.image_spans
        assert start <= 3 < end and start <= 6 < end
        assert not start <= 0 < end and not start <= 8 < end
        assert seq.token_ids[start:end] == seq.stream_tokens(I)


class TestMutation:
    def test_append_updates_counts(self):
        seq = vlm_seq()
        before = seq.stream_length(T)
        seq.append(99)
        assert seq.stream_length(T) == before + 1
        assert seq.stream_tokens(T)[-1] == 99

    def test_append_after_counts_materialized(self):
        seq = vlm_seq()
        # Materialize the per-tag caches first.
        assert seq.stream_length(T, 5) == 3
        seq.append(99)
        assert seq.stream_length(T, len(seq)) == 6
        assert seq.stream_length(I, len(seq)) == 4

    def test_extend(self):
        seq = SequenceSpec.text_only("r", [1])
        seq.extend([2, 3, 4])
        assert seq.token_ids == [1, 2, 3, 4]

    def test_truncate(self):
        seq = vlm_seq()
        seq.truncate(5)
        assert len(seq) == 5
        assert seq.image_spans == [(3, 5)]
        assert seq.stream_length(I) == 2

    def test_truncate_drops_span_entirely(self):
        seq = vlm_seq()
        seq.truncate(3)
        assert seq.image_spans == []

    def test_incremental_matches_rebuild(self):
        seq = vlm_seq()
        seq.stream_length(T, 4)  # materialize caches
        for i in range(10):
            seq.append(100 + i)
        fresh = SequenceSpec.multimodal(
            "x",
            [(TEXT, [1, 2, 3]), (IMAGE, [10, 11, 12, 13]), (TEXT, [4, 5] + list(range(100, 110)))],
        )
        assert fresh.token_ids == seq.token_ids
        for p in range(len(seq) + 1):
            assert seq.stream_length(T, p) == fresh.stream_length(T, p)
            assert seq.stream_length(I, p) == fresh.stream_length(I, p)
