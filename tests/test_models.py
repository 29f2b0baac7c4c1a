"""Tests for the model zoo and group derivation."""

import pytest

from repro.core.layer_policy import (
    CROSS_ATTENTION,
    FULL_ATTENTION,
    MAMBA,
    SLIDING_WINDOW,
    VISION_EMBEDDING,
)
from repro.core.math_utils import lcm_blowup
from repro.core.sequence import IMAGE, TEXT
from repro.models import get_model, list_models
from repro.models.config import LayerSpec, ModelSpec


class TestZooBasics:
    def test_all_models_build(self):
        for name in list_models():
            model = get_model(name)
            groups = model.kv_groups()
            assert groups, name
            assert model.weight_bytes > 0

    def test_unknown_model(self):
        with pytest.raises(KeyError):
            get_model("gpt-17")

    def test_fp8_suffix(self):
        a = get_model("llama3-8b", quantized=True)
        b = get_model("llama3-8b-fp8")
        assert a.weight_dtype_bytes == b.weight_dtype_bytes == 1
        assert a.weight_bytes == get_model("llama3-8b").weight_bytes // 2


class TestPaperNumbers:
    def test_llama8b_kv_per_token(self):
        # Section 2: ~1.2 GB for ten thousand tokens.
        model = get_model("llama3-8b")
        per_token = model.kv_bytes_per_token_alllayers()
        assert per_token == 32 * 4096
        assert 1.1e9 < per_token * 10_000 < 1.4e9

    def test_mllama_layer_split(self):
        # Section 3.2: 32 self-attention + 8 cross-attention layers.
        model = get_model("llama3.2-vision-11b")
        kinds = [l.kind for l in model.layers]
        assert kinds.count(FULL_ATTENTION) == 32
        assert kinds.count(CROSS_ATTENTION) == 8
        groups = model.kv_groups()
        assert groups["self_attn"].accepted_tags == frozenset({TEXT})
        assert groups["cross_attn"].accepted_tags == frozenset({IMAGE})

    def test_mllama_waste_ratio(self):
        # Section 3.2: with T text and I image tokens, PagedAttention
        # stores (T+I) x 40 x E vs the ideal T x 32 x E + I x 8 x E;
        # MMMU-pro's averages (T=43, I=6193) give 79.6% waste.
        model = get_model("llama3.2-vision-11b")
        e = 4096
        t, i = 43, 6193
        paged = (t + i) * 40 * e
        ideal = t * 32 * e + i * 8 * e
        waste = 1 - ideal / paged
        assert waste == pytest.approx(0.796, abs=0.005)

    def test_ministral_waste_bound(self):
        # Section 3.2: Ministral wastes up to 56.25% -- 27/36 sliding
        # layers at lengths far beyond the 32768 window.
        model = get_model("ministral-8b")
        kinds = [l.kind for l in model.layers]
        assert kinds.count(SLIDING_WINDOW) == 27
        assert kinds.count(FULL_ATTENTION) == 9
        length = 131072
        window = 32768
        waste = (27 / 36) * (1 - window / length)
        assert waste == pytest.approx(0.5625)

    def test_gemma2_waste_bound(self):
        # Section 3.2: Gemma-2 wastes up to 25% (half the layers sliding).
        model = get_model("gemma2-27b")
        kinds = [l.kind for l in model.layers]
        assert kinds.count(SLIDING_WINDOW) == kinds.count(FULL_ATTENTION)

    def test_jamba_lcm_blowup_is_84(self):
        # Section 4.4: the largest LCM across vLLM models is Jamba's, 84x
        # the small page, equivalently 1344 tokens per attention page.
        model = get_model("jamba-52b")
        groups = model.kv_groups(tokens_per_page=16)
        sizes = [g.page_bytes for g in groups.values()]
        assert lcm_blowup(sizes) == 84
        attn = groups["self_attn"]
        mamba = groups["mamba"]
        assert mamba.state_bytes // attn.per_token_bytes == 1344
        # The §4.4 bench's figure: attention tokens a MAX page would hold
        # if it were filled with tokens instead of padding.
        assert max(sizes) // attn.per_token_bytes == 1344

    def test_characterai_kv_sharing(self):
        model = get_model("characterai-8b")
        shared = sum(1 for l in model.layers if l.shares_kv_with_previous)
        assert shared > 0
        # Shared layers contribute no bytes.
        assert all(
            l.per_token_bytes() == 0 for l in model.layers if l.shares_kv_with_previous
        )

    def test_paligemma2_three_memory_types(self):
        model = get_model("paligemma2-10b")
        groups = model.kv_groups()
        kinds = {g.kind for g in groups.values()}
        assert kinds == {FULL_ATTENTION, SLIDING_WINDOW, VISION_EMBEDDING}


class TestGrouping:
    def test_group_prefix_namespacing(self):
        model = get_model("llama3-8b")
        groups = model.kv_groups(group_prefix="draft/")
        assert set(groups) == {"draft/self_attn"}
        assert groups["draft/self_attn"].group_id == "draft/self_attn"

    def test_pyramid_budget_tiers(self):
        model = get_model("pyramidkv-8b")
        groups = model.kv_groups()
        assert len(groups) == 4
        budgets = sorted(g.budget for g in groups.values())
        assert budgets == [512, 1024, 2048, 4096]

    def test_tokens_per_page_propagates(self):
        model = get_model("gemma2-9b")
        for g in model.kv_groups(tokens_per_page=32).values():
            if g.kind != MAMBA:
                assert g.tokens_per_page == 32

    def test_vision_group_optional(self):
        model = get_model("llava-onevision-7b")
        with_cache = model.kv_groups(include_vision_cache=True)
        without = model.kv_groups(include_vision_cache=False)
        assert "vision_embed" in with_cache
        assert "vision_embed" not in without

    def test_flops_per_token(self):
        model = get_model("llama3-8b")
        assert model.flops_per_token() == pytest.approx(1.6e10)

    def test_vision_flops(self):
        model = get_model("llava-onevision-7b")
        assert model.vision_flops_per_image() > 0
        assert get_model("llama3-8b").vision_flops_per_image() == 0.0


class TestLayerSpec:
    def test_per_token_bytes(self):
        layer = LayerSpec(FULL_ATTENTION, kv_heads=8, head_dim=128)
        assert layer.per_token_bytes(2) == 4096
        assert layer.per_token_bytes(1) == 2048

    def test_shared_layer_is_free(self):
        layer = LayerSpec(
            SLIDING_WINDOW, kv_heads=8, head_dim=128, window=4,
            shares_kv_with_previous=True,
        )
        assert layer.per_token_bytes() == 0
