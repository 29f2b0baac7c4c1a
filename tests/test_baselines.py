"""Tests for the baseline memory managers."""

import pytest

from repro.baselines import (
    DualManager,
    GCDPageManager,
    MaxPageManager,
    PagedAttentionManager,
    make_manager,
    manual_spec_managers,
    max_page_specs,
    unified_group_specs,
)
from repro.core.kv_manager import JengaKVCacheManager, ideal_resident_bytes
from repro.core.sequence import IMAGE, TEXT, SequenceSpec
from repro.models import GIB, get_model, list_models


def run_request(mgr, seq, now=1.0):
    hit = mgr.begin_request(seq)
    assert mgr.allocate_up_to(seq, len(seq))
    mgr.commit(seq, len(seq), now=now)
    return hit


class TestUnifiedSpecs:
    def test_single_group_covers_all_layers(self):
        model = get_model("llama3.2-vision-11b")
        groups = unified_group_specs(model)
        assert set(groups) == {"unified"}
        spec = groups["unified"]
        assert spec.per_token_bytes == 40 * 4096
        assert spec.accepted_tags == frozenset({TEXT, IMAGE})

    def test_mamba_layers_excluded_from_unified_kv(self):
        model = get_model("jamba-52b")
        spec = unified_group_specs(model)["unified"]
        assert spec.per_token_bytes == 4 * 4096


class TestPagedAttentionManager:
    def test_mllama_waste_vs_ideal(self):
        """Section 3.2: ~79.6% of the baseline's resident KV is waste on an
        MMMU-pro-shaped request."""
        model = get_model("llama3.2-vision-11b")
        mgr = PagedAttentionManager(model, 2 * GIB, enable_prefix_caching=False)
        seq = SequenceSpec.multimodal(
            "r",
            [(IMAGE, list(range(6193))), (TEXT, list(range(43)))],
        )
        run_request(mgr, seq)
        used = mgr.stats().used_bytes
        ideal = ideal_resident_bytes(model.kv_groups(), seq, len(seq))
        waste = 1 - ideal / used
        assert waste == pytest.approx(0.796, abs=0.01)

    def test_window_model_keeps_everything(self):
        model = get_model("ministral-8b")
        mgr = PagedAttentionManager(model, 40 * GIB, enable_prefix_caching=False)
        n = 65536
        seq = SequenceSpec.text_only("r", list(range(n)))
        run_request(mgr, seq)
        used = mgr.stats().used_bytes
        # All 36 layers x all tokens stay resident.
        assert used >= n * 36 * 4096
        ideal = ideal_resident_bytes(model.kv_groups(), seq, n)
        assert 1 - ideal / used == pytest.approx((27 / 36) * (1 - 32768 / n), abs=0.01)

    def test_mamba_static_pool(self):
        model = get_model("jamba-52b")
        mgr = PagedAttentionManager(model, 20 * GIB, max_num_seqs=64)
        assert mgr._mamba_slots == 64
        seq = SequenceSpec.text_only("r", list(range(100)))
        run_request(mgr, seq)
        stats = mgr.stats()
        assert stats.used_bytes_by_group["mamba_pool"] == model.mamba_state_bytes()
        # Idle slots are waste.
        assert stats.internal_frag_bytes >= 63 * model.mamba_state_bytes()
        mgr.release(seq)
        assert "r" not in mgr._mamba_holders

    def test_mamba_slot_exhaustion_blocks(self):
        model = get_model("jamba-52b")
        mgr = PagedAttentionManager(model, 20 * GIB, max_num_seqs=1)
        s1 = SequenceSpec.text_only("r1", list(range(10)))
        run_request(mgr, s1)
        s2 = SequenceSpec.text_only("r2", list(range(10)))
        mgr.begin_request(s2)
        assert not mgr.can_admit(s2)
        assert not mgr.allocate_up_to(s2, 10)
        mgr.release(s1)
        assert mgr.allocate_up_to(s2, 10)

    def test_no_horizon_without_a_mamba_slot(self):
        """A request the static pool has no slot for must reach
        ``allocate_up_to`` (which claims one) on its next decode."""
        model = get_model("jamba-52b")
        mgr = PagedAttentionManager(model, 20 * GIB, max_num_seqs=1)
        s1 = SequenceSpec.text_only("r1", list(range(10)))
        run_request(mgr, s1)
        assert mgr.commit(s1, 10, now=2.0) == 16  # the end of the page
        s2 = SequenceSpec.text_only("r2", list(range(10)))
        mgr.begin_request(s2)
        assert mgr.commit(s2, 10, now=2.0) == 0

    def test_prefix_caching_forced_off_for_hybrids(self):
        for name in ("ministral-8b", "jamba-52b", "pyramidkv-8b", "llama3.2-vision-11b"):
            mgr = PagedAttentionManager(get_model(name), 10 * GIB)
            assert not mgr.enable_prefix_caching, name

    def test_prefix_caching_on_for_pure_full_attention(self):
        mgr = PagedAttentionManager(get_model("llama3-8b"), 10 * GIB)
        assert mgr.enable_prefix_caching

    def test_unsupported_override_for_fig17(self):
        mgr = PagedAttentionManager(
            get_model("ministral-8b"), 10 * GIB, allow_unsupported_prefix_caching=True
        )
        assert mgr.enable_prefix_caching

    def test_no_vision_cache(self):
        mgr = PagedAttentionManager(get_model("llava-onevision-7b"), 10 * GIB)
        assert not mgr.has_vision_cache


def zoo_groups(name):
    return get_model(name).kv_groups()


def pair_groups(target, draft, quantized):
    # Figure 19's layout: one manager over both models' groups.
    groups = get_model(target, quantized=quantized).kv_groups(group_prefix="target/")
    groups.update(get_model(draft, quantized=quantized).kv_groups(group_prefix="draft/"))
    return groups


# Figure 19's (target, draft, quantized) pairs.
FIG19_PAIRS = [
    ("llama3-70b", "llama3.2-1b", True),
    ("gemma2-27b", "gemma2-2b", False),
    ("ministral-8b", "ministral-draft-1b", False),
    ("characterai-70b", "llama3.2-1b", True),
]
GROUP_SETS = [pytest.param(zoo_groups, (name,), id=name) for name in list_models()] + [
    pytest.param(pair_groups, pair, id=f"{pair[1]}->{pair[0]}") for pair in FIG19_PAIRS
]


class TestMaxPage:
    @pytest.mark.parametrize("build,args", GROUP_SETS)
    def test_pad_mode_uniform_page(self, build, args):
        # Padding leaves one page size, so the LCM large page is the
        # largest unpadded page: MAX never needs a page size of its own.
        groups = build(*args)
        specs = max_page_specs(groups)
        max_page = max(g.page_bytes for g in groups.values())
        assert {g.page_bytes for g in specs.values()} == {max_page}
        mgr = MaxPageManager(groups, 4 * GIB, enable_prefix_caching=False)
        assert mgr.allocator.lcm.large_page_bytes == max_page
        # GCD is Jenga's layout plus a kernel penalty.
        gcd = GCDPageManager(groups, 4 * GIB, enable_prefix_caching=False)
        jenga = JengaKVCacheManager(groups, 4 * GIB, enable_prefix_caching=False)
        assert gcd.allocator.lcm.large_page_bytes == jenga.allocator.lcm.large_page_bytes
        assert gcd.kernel_slowdown == 2.0

    def test_pad_mode_wastes_memory_for_small_groups(self):
        model = get_model("llama3.2-vision-11b")
        orig = model.kv_groups()
        padded = max_page_specs(orig)
        assert padded["cross_attn"].per_token_bytes > orig["cross_attn"].per_token_bytes

    def test_manager_runs(self):
        model = get_model("llama3.2-vision-11b")
        mgr = MaxPageManager(model.kv_groups(), 4 * GIB, enable_prefix_caching=False)
        seq = SequenceSpec.multimodal(
            "r", [(IMAGE, list(range(100))), (TEXT, list(range(40)))]
        )
        run_request(mgr, seq)
        used = mgr.stats().used_bytes
        jenga = JengaKVCacheManager(model.kv_groups(), 4 * GIB, enable_prefix_caching=False)
        seq2 = SequenceSpec.multimodal(
            "r", [(IMAGE, list(range(100))), (TEXT, list(range(40)))]
        )
        run_request(jenga, seq2)
        assert used > jenga.stats().used_bytes


class TestGCD:
    def test_kernel_slowdown(self):
        model = get_model("llama3.2-vision-11b")
        mgr = GCDPageManager(model.kv_groups(), 4 * GIB)
        assert mgr.kernel_slowdown == 2.0
        jenga = JengaKVCacheManager(model.kv_groups(), 4 * GIB)
        assert jenga.kernel_slowdown == 1.0


class TestDualManager:
    def make(self):
        return manual_spec_managers(
            get_model("llama3.2-1b"), get_model("llama3-8b"), 8 * GIB,
            enable_prefix_caching=False,
        )

    def test_split_proportional_to_kv_sizes(self):
        dual = self.make()
        draft_total = dual.managers[0].stats().total_bytes
        target_total = dual.managers[1].stats().total_bytes
        # Draft: 16 layers x 2048 B; target: 32 layers x 4096 B -> 1:4.
        assert target_total / draft_total == pytest.approx(4.0, rel=0.01)

    def test_lifecycle_through_both(self):
        dual = self.make()
        seq = SequenceSpec.text_only("r", list(range(64)))
        assert dual.begin_request(seq) == 0
        assert dual.allocate_up_to(seq, 64)
        dual.commit(seq, 64, now=1.0)
        stats = dual.stats()
        assert any(k.startswith("m0/") for k in stats.used_bytes_by_group)
        assert any(k.startswith("m1/") for k in stats.used_bytes_by_group)
        dual.release(seq)
        assert dual.stats().used_bytes == 0

    def test_horizon_is_the_lower_side(self):
        class Side:
            def __init__(self, horizon):
                self.horizon = horizon

            def commit(self, seq, computed_global, now, phase="decode"):
                return self.horizon

        seq = SequenceSpec.text_only("r", [1])
        assert DualManager([Side(9), Side(5)]).commit(seq, 1, now=0.0) == 5
        assert DualManager([Side(0), Side(5)]).commit(seq, 1, now=0.0) == 0

    def test_failure_on_one_side_fails(self):
        draft = get_model("llama3.2-1b")
        target = get_model("llama3-8b")
        dual = manual_spec_managers(draft, target, 64 * 1024 * 1024, enable_prefix_caching=False)
        seq = SequenceSpec.text_only("r", list(range(100_000)))
        dual.begin_request(seq)
        assert not dual.allocate_up_to(seq, 100_000)

    def test_empty_managers_rejected(self):
        with pytest.raises(ValueError):
            DualManager([])


class TestFactory:
    def test_all_systems(self):
        model = get_model("gemma2-9b")
        for system in ("jenga", "vllm", "sglang", "tgi", "max", "gcd"):
            mgr = make_manager(system, model, 4 * GIB)
            assert hasattr(mgr, "allocate_up_to")

    def test_unknown_system(self):
        with pytest.raises(KeyError):
            make_manager("triton", get_model("llama3-8b"), GIB)
