"""Tests for the synthetic workload generators."""

import statistics

import pytest

from repro.core.sequence import IMAGE, TEXT
from repro.models import get_model
from repro.workloads import (
    arxiv_qa,
    arxiv_qa_long,
    long_document_qa,
    lognormal_lengths,
    ministral_dynamic_trace,
    ministral_static_trace,
    mmlu_pro,
    mmmu_pro,
    poisson_arrivals,
    sharegpt,
    token_block,
)


class TestTokenBlock:
    def test_deterministic(self):
        assert token_block(1, "a", 0, 16) == token_block(1, "a", 0, 16)

    def test_prefix_stability(self):
        # Longer draws of the same block share the prefix? They are
        # independent draws; shared prefixes instead come from reusing the
        # same (tag, index) -- verify different indices differ.
        assert token_block(1, "a", 0, 16) != token_block(1, "a", 1, 16)

    def test_seed_changes_content(self):
        assert token_block(1, "a", 0, 16) != token_block(2, "a", 0, 16)


class TestMmluPro:
    def test_max_length_respected(self):
        for r in mmlu_pro(200, seed=1):
            assert r.prompt_len <= 3076 + 16  # fewshot + min question slack

    def test_subject_prefix_sharing(self):
        rs = mmlu_pro(100, seed=1, num_subjects=2, fewshot_tokens=64)
        prefixes = {tuple(r.seq.token_ids[:64]) for r in rs}
        assert len(prefixes) == 2

    def test_deterministic(self):
        a = mmlu_pro(10, seed=5)
        b = mmlu_pro(10, seed=5)
        assert [r.seq.token_ids for r in a] == [r.seq.token_ids for r in b]


class TestMmmuPro:
    def test_statistics_match_paper(self):
        model = get_model("llama3.2-vision-11b")
        rs = mmmu_pro(200, model, seed=3)
        image_tokens = [r.seq.stream_length(frozenset({IMAGE})) for r in rs]
        text_tokens = [r.seq.stream_length(frozenset({TEXT})) for r in rs]
        # Section 3.2: 6193 image and 43 text tokens on average.
        assert statistics.mean(image_tokens) == pytest.approx(6193, rel=0.15)
        assert statistics.mean(text_tokens) == pytest.approx(43, rel=0.5)

    def test_image_spans_align_with_encoder_geometry(self):
        model = get_model("llava-onevision-7b")
        per_image = model.vision.tokens_per_image
        for r in mmmu_pro(20, model, seed=1):
            for s, e in r.seq.image_spans:
                assert e - s == per_image

    def test_requires_multimodal_model(self):
        with pytest.raises(ValueError):
            mmmu_pro(1, get_model("llama3-8b"))


class TestArxivQA:
    def test_shared_article_prefix(self):
        rs = arxiv_qa(2, 3, seed=0, article_tokens=100)
        a0 = [r for r in rs if r.request_id.startswith("arxiv-a0")]
        assert len(a0) == 3
        first = a0[0].seq.token_ids[:100]
        assert all(r.seq.token_ids[:100] == first for r in a0)

    def test_interleaved_order(self):
        rs = arxiv_qa(3, 2, interleave=True)
        ids = [r.request_id for r in rs[:3]]
        assert ids == ["arxiv-a0-q0", "arxiv-a1-q0", "arxiv-a2-q0"]

    def test_long_variant_length(self):
        rs = arxiv_qa_long(50, seed=2)
        mean = statistics.mean(r.prompt_len for r in rs)
        assert mean == pytest.approx(92408, rel=0.15)


class TestOtherWorkloads:
    def test_sharegpt_mean(self):
        rs = sharegpt(500, seed=4)
        mean = statistics.mean(r.prompt_len for r in rs)
        assert mean == pytest.approx(1085, rel=0.3)

    def test_long_document_qa_bounds(self):
        rs = long_document_qa(20, seed=0)
        assert len(rs) == 20
        for r in rs:
            assert 55_000 <= r.prompt_len <= 110_000
            assert 50 <= r.max_output_tokens <= 100

    def test_static_trace_stationary(self):
        rs = ministral_static_trace(24, seed=0)
        first = statistics.mean(r.prompt_len for r in rs[:12])
        second = statistics.mean(r.prompt_len for r in rs[12:])
        assert first == pytest.approx(second, rel=0.25)

    def test_dynamic_trace_ramps(self):
        rs = ministral_dynamic_trace(36, seed=0)
        first = statistics.mean(r.prompt_len for r in rs[:12])
        last = statistics.mean(r.prompt_len for r in rs[-12:])
        assert last > 2 * first


class TestArrivals:
    def test_poisson_monotone(self):
        rs = long_document_qa(10)
        poisson_arrivals(rs, rate=2.0, seed=1)
        times = [r.arrival_time for r in rs]
        assert times == sorted(times)
        assert times[0] > 0

    def test_rate_controls_density(self):
        fast = poisson_arrivals(long_document_qa(100), rate=10.0, seed=1)
        slow = poisson_arrivals(long_document_qa(100), rate=1.0, seed=1)
        assert fast[-1].arrival_time < slow[-1].arrival_time

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            poisson_arrivals([], rate=0.0)


class TestHelpers:
    def test_lognormal_mean(self):
        import random

        values = lognormal_lengths(random.Random(0), 5000, 1000, 0.5, 1, 10**9)
        assert statistics.mean(values) == pytest.approx(1000, rel=0.1)

    def test_lognormal_validates(self):
        import random

        with pytest.raises(ValueError):
            lognormal_lengths(random.Random(0), 1, -5, 0.5, 1, 10)
