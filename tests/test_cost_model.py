"""Tests for the analytic roofline cost model."""

import copy

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.layer_policy import DROPPED_TOKEN, FULL_ATTENTION, MAMBA, SLIDING_WINDOW
from repro.engine import Request, SpecDecodeEngine, make_spec_manager
from repro.engine.cost_model import CostModel, StepWork, _sum_min_range
from repro.models import GIB, get_model, list_models
from repro.models.config import LayerSpec, ModelSpec
from repro.platforms import H100, L4
from repro.workloads import token_block


def model():
    return get_model("llama3-8b")


class TestSumMinRange:
    def test_unlimited_is_arithmetic_series(self):
        assert _sum_min_range(0, 5, None) == 0 + 1 + 2 + 3 + 4

    def test_fully_capped(self):
        assert _sum_min_range(10, 15, 4) == 4 * 5

    def test_straddles_cap(self):
        assert _sum_min_range(2, 8, 5) == 2 + 3 + 4 + 5 + 5 + 5

    def test_empty_range(self):
        assert _sum_min_range(5, 5, None) == 0

    def test_matches_bruteforce(self):
        for p0, p1, lim in ((0, 20, 7), (3, 9, None), (8, 30, 8), (0, 1, 1)):
            expect = sum(min(t, lim) if lim else t for t in range(p0, p1))
            assert _sum_min_range(p0, p1, lim) == expect


class TestStepTime:
    def test_empty_step_is_overhead(self):
        cost = CostModel(model(), H100)
        assert cost.step_time(StepWork()) > 0

    def test_decode_batching_amortizes(self):
        """Larger decode batches yield more tokens/sec -- the property all
        of Jenga's throughput gains rest on."""
        cost = CostModel(model(), H100)

        def tput(batch):
            ctx, read = cost.attention_read_range(2048, 2049)
            work = StepWork(
                decode_tokens=batch,
                attn_context_tokens=ctx * batch,
                kv_read_bytes=read * batch,
                kv_write_bytes=cost.write_bytes_per_token() * batch,
            )
            return batch / cost.step_time(work)

        assert tput(8) > 2 * tput(1)
        assert tput(64) > tput(8)

    def test_longer_context_costs_more(self):
        cost = CostModel(model(), H100)

        def t(ctx_len):
            ctx, read = cost.attention_read_range(ctx_len, ctx_len + 1)
            return cost.step_time(
                StepWork(decode_tokens=1, attn_context_tokens=ctx, kv_read_bytes=read)
            )

        assert t(100_000) > t(1_000)

    def test_l4_slower_than_h100(self):
        work = StepWork(prefill_tokens=4096, attn_context_tokens=4096 * 100.0)
        assert CostModel(model(), L4).step_time(work) > CostModel(model(), H100).step_time(work)

    def test_kernel_slowdown_scales_attention(self):
        m = model()
        ctx, read = CostModel(m, H100).attention_read_range(8192, 8193)
        work = StepWork(decode_tokens=1, attn_context_tokens=ctx, kv_read_bytes=read)
        fast = CostModel(m, H100).step_time(work)
        slow = CostModel(m, H100, kernel_slowdown=2.0).step_time(work)
        assert slow > fast

    def test_slowdown_below_one_rejected(self):
        with pytest.raises(ValueError):
            CostModel(model(), H100, kernel_slowdown=0.5)

    def test_merge(self):
        a = StepWork(prefill_tokens=5, decode_tokens=2, images_encoded=1)
        b = StepWork(prefill_tokens=3, speculative_extra_tokens=4)
        c = a.merge(b)
        assert c.prefill_tokens == 8
        assert c.total_tokens == 8 + 2 + 4
        assert c.images_encoded == 1


class TestAttentionReads:
    def test_window_caps_reads(self):
        ministral = get_model("ministral-8b")
        llama_like = get_model("llama3-8b")
        cm_win = CostModel(ministral, H100)
        cm_full = CostModel(llama_like, H100)
        ctx_w, read_w = cm_win.attention_read_range(100_000, 100_001)
        ctx_f, read_f = cm_full.attention_read_range(100_000, 100_001)
        # Ministral has 36 layers vs 32 but 27 of them cap at 32768.
        assert read_w < read_f * 36 / 32

    def test_mamba_reads_state(self):
        jamba = get_model("jamba-52b")
        cm = CostModel(jamba, H100)
        _, read = cm.attention_read_range(10, 11)
        assert read >= jamba.mamba_state_bytes()

    def test_compute_is_additive_memory_subadditive(self):
        cm = CostModel(model(), H100)
        ctx_a, read_a = cm.attention_read_range(0, 10)
        ctx_b, read_b = cm.attention_read_range(10, 20)
        ctx_ab, read_ab = cm.attention_read_range(0, 20)
        # Attention FLOPs are per-token (quadratic overall) -> additive.
        assert ctx_a + ctx_b == pytest.approx(ctx_ab)
        # KV streaming happens once per pass -> one big pass reads no more
        # than two smaller ones.
        assert read_ab <= read_a + read_b

    def test_write_bytes(self):
        cm = CostModel(model(), H100)
        assert cm.write_bytes_per_token() == 32 * 4096

    def test_encoder_time(self):
        vlm = get_model("llava-onevision-7b")
        cm = CostModel(vlm, H100)
        assert cm.encoder_time(0) == 0.0
        assert cm.encoder_time(2) == pytest.approx(2 * cm.encoder_time(1))


class PerLayerCostModel(CostModel):
    """The literal per-layer pricing ``CostModel`` had before it folded its
    layers into classes -- one term per layer, in layer order.  Kept as the
    reference the folded model must equal bit for bit."""

    def attention_read_range(self, p0, p1):
        if p1 <= p0:
            return 0.0, 0.0
        ctx = 0.0
        bytes_read = 0.0
        kvb = self.model.kv_dtype_bytes
        for layer in self.model.layers:
            if layer.kind == "mamba":
                bytes_read += float(layer.state_bytes or 0)
                continue
            limit = None
            if layer.window:
                limit = layer.window
            if layer.budget:
                limit = layer.budget if limit is None else min(limit, layer.budget)
            if limit is None:
                ctx += (p0 + p1 - 1) * (p1 - p0) / 2.0
            elif p0 >= limit:
                ctx += float(limit) * (p1 - p0)
            else:
                mid = min(p1, limit)
                ctx += (p0 + mid - 1) * (mid - p0) / 2.0 + float(limit) * max(0, p1 - limit)
            span = p1 if limit is None else min(p1, limit)
            bytes_read += span * (2 * layer.kv_heads * layer.head_dim * kvb)
        return ctx, bytes_read

    def write_bytes_per_token(self):
        kvb = self.model.kv_dtype_bytes
        return float(
            sum(l.per_token_bytes(kvb) for l in self.model.layers if l.kind != "mamba")
        )


def odd_model():
    """Layer mixes no zoo model has: window *and* budget on one layer (either
    one binding), a full-attention layer sharing KV, unequal head geometry
    under one limit, a Mamba layer without a state size."""
    return ModelSpec(
        name="odd",
        params_b=1.0,
        hidden_size=1024,
        layers=(
            LayerSpec(SLIDING_WINDOW, kv_heads=4, head_dim=64, window=1024, budget=300),
            LayerSpec(DROPPED_TOKEN, kv_heads=2, head_dim=128, window=300, budget=7000),
            LayerSpec(FULL_ATTENTION, kv_heads=8, head_dim=64),
            LayerSpec(FULL_ATTENTION, kv_heads=8, head_dim=64, shares_kv_with_previous=True),
            LayerSpec(MAMBA, state_bytes=12_345),
            LayerSpec(MAMBA),
            LayerSpec(SLIDING_WINDOW, kv_heads=1, head_dim=32, window=1024),
        ),
    )


def mamba_only_model():
    return ModelSpec(
        name="mamba-only", params_b=1.0, hidden_size=1024,
        layers=tuple(LayerSpec(MAMBA, state_bytes=4096 * (i + 1)) for i in range(6)),
    )


ALL_MODELS = [get_model(name, quantized=q) for name in list_models() for q in (False, True)]
ALL_MODELS += [odd_model(), odd_model().quantized(), mamba_only_model()]
PAIRS = [(CostModel(m, H100), PerLayerCostModel(m, H100)) for m in ALL_MODELS]


class TestFoldedEqualsPerLayer:
    """Pricing per layer class is a regrouping of integer terms, so ``==``."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 200_000), st.integers(0, 200_000))
    # Empty and one-token ranges; ranges straddling the gemma2 window
    # (4096), the ministral window (32768), the character.ai window (1024)
    # and every pyramidkv budget tier (4096 / 2048 / 1024 / 512); the
    # ``odd`` model's 300 / 1024 limits.
    @example(0, 0)
    @example(4096, 4096)
    @example(0, 1)
    @example(200_000, 200_000)
    @example(0, 200_000)
    @example(4000, 4200)
    @example(32_000, 33_000)
    @example(1000, 1100)
    @example(500, 5000)
    @example(2047, 2049)
    @example(511, 513)
    @example(250, 1030)
    @example(4096, 4097)
    def test_attention_read_range_is_bit_identical(self, a, b):
        p0, p1 = min(a, b), max(a, b)
        for folded, reference in PAIRS:
            assert folded.attention_read_range(p0, p1) == reference.attention_read_range(p0, p1)

    def test_write_bytes_is_bit_identical(self):
        for folded, reference in PAIRS:
            assert folded.write_bytes_per_token() == reference.write_bytes_per_token()

    def test_kv_sharing_layers_are_read_but_not_written(self):
        cm = CostModel(get_model("characterai-8b"), H100)
        _, read = cm.attention_read_range(0, 1)
        assert read == 32 * 4096  # every layer reads one token ...
        assert cm.write_bytes_per_token() < 32 * 4096  # ... a third of them store it

    def test_mamba_only_reads_state_and_writes_nothing(self):
        m = mamba_only_model()
        cm = CostModel(m, H100)
        assert cm.attention_read_range(10, 20) == (0.0, float(m.mamba_state_bytes()))
        assert cm.attention_read_range(10, 10) == (0.0, 0.0)
        assert cm.write_bytes_per_token() == 0.0

    def test_every_zoo_model_folds_to_at_most_four_classes(self):
        sizes = {name: len(CostModel(get_model(name), H100)._classes) for name in list_models()}
        assert max(sizes.values()) <= 4
        assert sizes["gemma2-9b"] == 2
        assert sizes["llama3.2-vision-11b"] == 1
        assert sizes["jamba-52b"] == 1
        assert sizes["pyramidkv-70b"] == 4

    def test_construction_leaves_the_model_spec_alone(self):
        for name in list_models():
            spec = get_model(name)
            before = copy.deepcopy(spec)
            CostModel(spec, H100).attention_read_range(0, 5000)
            assert spec == before

    def test_spec_decode_steps_take_the_same_time(self):
        """The draft and target cost models get the fold for free; swapping
        the per-layer reference in must not move one step's duration.
        ``engine.cost`` prices the target's pass, ``draft_cost`` the draft's."""

        def durations(reference):
            draft, target = get_model("gemma2-2b"), get_model("gemma2-9b")
            manager = make_spec_manager("jenga", draft, target, 4 * GIB)
            engine = SpecDecodeEngine(draft, target, H100, manager, seed=7)
            if reference:
                engine.cost = PerLayerCostModel(target, H100)
                engine.draft_cost = PerLayerCostModel(draft, H100)
            # Prompts straddle both models' 4096-token window.
            engine.add_requests(
                [Request.text(f"s{i}", token_block(0, "fold", i, 4500), 48) for i in range(3)]
            )
            assert len(engine.run(max_steps=5000).requests) == 3
            return [step.duration for step in engine.steps]

        folded = durations(reference=False)
        assert len(folded) > 20
        assert folded == durations(reference=True)
