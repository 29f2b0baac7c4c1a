"""Tests for multi-model serving from one shared pool (Section 6.1)."""

import pytest

from repro.engine.multi_model import MultiModelEngine, build_shared_managers
from repro.engine.request import Request
from repro.models import GIB, get_model
from repro.platforms import H100
from repro.workloads import token_block


def two_models():
    return {"big": get_model("llama3-8b"), "small": get_model("llama3.2-1b")}


def reqs(tag, n, prompt=256, output=16, arrival=0.0):
    return [
        Request.text(f"{tag}-{i}", token_block(0, tag, i, prompt), output,
                     arrival_time=arrival)
        for i in range(n)
    ]


class TestSharedManagers:
    def test_namespaced_groups(self):
        managers = build_shared_managers(two_models(), GIB)
        assert set(managers["big"].specs) == {"big/self_attn"}
        assert set(managers["small"].specs) == {"small/self_attn"}
        # Both views share one allocator (and thus one page pool).
        assert managers["big"].allocator is managers["small"].allocator

    def test_lcm_spans_both_models(self):
        managers = build_shared_managers(two_models(), GIB)
        alloc = managers["big"].allocator
        # 8B pages: 16 x 128 KiB = 2 MiB; 1B pages: 16 x 32 KiB = 512 KiB.
        assert alloc.lcm.large_page_bytes == 2 * 2**20

    def test_subset_mismatch_rejected(self):
        from repro.core.kv_manager import JengaKVCacheManager

        managers = build_shared_managers(two_models(), GIB)
        with pytest.raises(ValueError):
            JengaKVCacheManager(
                get_model("gemma2-9b").kv_groups(), GIB,
                shared_allocator=managers["big"].allocator,
            )


class TestForeignUsedBytes:
    """``foreign_used_bytes``: zero for a private pool, co-tenant USED
    bytes for a shared-pool view (the engine's permanent-failure gate)."""

    def test_private_pool_reports_zero(self):
        from repro.core.kv_manager import JengaKVCacheManager
        from repro.core.layer_policy import FULL_ATTENTION, GroupSpec
        from repro.core.sequence import TEXT, SequenceSpec

        mgr = JengaKVCacheManager(
            {"full": GroupSpec("full", FULL_ATTENTION, 1, 64, tokens_per_page=4,
                               accepted_tags=frozenset({TEXT}))},
            768 * 4,
        )
        seq = SequenceSpec.text_only("r1", list(range(12)))
        mgr.begin_request(seq)
        assert mgr.allocate_up_to(seq, len(seq))
        assert mgr.foreign_used_bytes() == 0

    def test_shared_view_counts_cotenant_used_bytes(self):
        from repro.core.sequence import SequenceSpec

        model = get_model("llama3-8b")
        managers = build_shared_managers({"a": model, "b": model}, 512 * 1024 * 1024)
        seq = SequenceSpec.text_only("r1", list(range(64)))
        managers["a"].begin_request(seq)
        assert managers["a"].allocate_up_to(seq, len(seq))
        assert managers["a"].foreign_used_bytes() == 0  # b holds nothing
        assert managers["b"].foreign_used_bytes() > 0   # a's USED bytes
        managers["a"].release(seq, cacheable=True)      # evictable != used
        assert managers["b"].foreign_used_bytes() == 0


class TestMultiModelEngine:
    def test_both_deployments_complete(self):
        engine = MultiModelEngine(two_models(), H100, GIB)
        engine.add_requests("big", reqs("b", 8))
        engine.add_requests("small", reqs("s", 8))
        metrics = engine.run()
        assert len(metrics["big"].requests) == 8
        assert len(metrics["small"].requests) == 8

    def test_serial_gpu_clock(self):
        engine = MultiModelEngine(two_models(), H100, GIB)
        engine.add_requests("big", reqs("b", 4))
        engine.add_requests("small", reqs("s", 4))
        metrics = engine.run()
        # Total busy time across deployments cannot exceed the shared
        # makespan (the GPU is serial).
        busy = sum(sum(s.duration for s in m.steps) for m in metrics.values())
        assert busy <= engine.clock * 1.001

    def test_idle_model_lends_memory(self):
        """The headline of shared mode: with one deployment idle, the busy
        one can use (nearly) the whole pool; a static split strands the
        idle model's half."""
        models = {"a": get_model("llama3-8b"), "b": get_model("llama3-8b")}
        kv = 512 * 2**20
        concurrency = {}
        for shared in (True, False):
            engine = MultiModelEngine(models, H100, kv, shared=shared,
                                      enable_prefix_caching=False)
            # Only "a" receives traffic; each request needs ~64 MiB.
            engine.add_requests("a", reqs("a", 12, prompt=500, output=24))
            metrics = engine.run(max_steps=20000)
            assert len(metrics["a"].requests) == 12, shared
            concurrency[shared] = max(s.num_running for s in metrics["a"].steps)
        # Static mode strands b's half of the pool; shared mode lends it.
        assert concurrency[True] >= concurrency[False] + 2

    def test_static_split_is_proportional(self):
        engine = MultiModelEngine(two_models(), H100, GIB, shared=False)
        big = engine.engines["big"].manager.allocator.lcm.total_bytes
        small = engine.engines["small"].manager.allocator.lcm.total_bytes
        assert big / small == pytest.approx(4.0, rel=0.05)

    def test_unknown_deployment(self):
        engine = MultiModelEngine(two_models(), H100, GIB)
        with pytest.raises(KeyError):
            engine.add_request("medium", reqs("m", 1)[0])

    def test_empty_models_rejected(self):
        with pytest.raises(ValueError):
            MultiModelEngine({}, H100, GIB)

    def test_staggered_arrivals(self):
        engine = MultiModelEngine(two_models(), H100, GIB)
        engine.add_requests("big", reqs("b", 2, arrival=0.0))
        engine.add_requests("small", reqs("s", 2, arrival=50.0))
        metrics = engine.run()
        assert all(r.first_token_time >= 50.0 for r in metrics["small"].requests)
        assert len(metrics["big"].requests) == 2

    def test_memory_report_namespaced(self):
        engine = MultiModelEngine(two_models(), H100, GIB)
        engine.add_requests("big", reqs("b", 2, output=64))
        engine.step()
        report = engine.memory_report()
        assert report["big"] > 0
        assert report["small"] == 0

    def test_prefix_caches_coexist(self):
        engine = MultiModelEngine(two_models(), H100, GIB)
        prompt = token_block(0, "share", 0, 512)
        engine.add_request("big", Request.text("b1", prompt + [1], 4, arrival_time=0.0))
        engine.add_request("big", Request.text("b2", prompt + [2], 4, arrival_time=30.0))
        engine.add_request("small", Request.text("s1", prompt + [1], 4, arrival_time=0.0))
        metrics = engine.run()
        by_id = {r.request_id: r for r in metrics["big"].requests}
        assert by_id["b2"].cached_prompt_tokens > 0
        # The small model shares token content but NOT cache entries (its
        # groups are distinct), so its request computed from scratch.
        s1 = metrics["small"].requests[0]
        assert s1.cached_prompt_tokens == 0


class TestPageSizePlumbing:
    def test_tokens_per_page_reaches_both_modes(self):
        # Shared vs. static must compare identical page sizes: the knob
        # plumbs to every group spec in both constructions.
        for shared in (True, False):
            engine = MultiModelEngine(
                two_models(), H100, GIB, shared=shared, tokens_per_page=32
            )
            for eng in engine.engines.values():
                specs = eng.manager.specs
                assert specs, "manager has no group specs"
                assert all(s.tokens_per_page == 32 for s in specs.values()), (
                    f"shared={shared} dropped tokens_per_page"
                )

    def test_default_page_size_matches_across_modes(self):
        shared = MultiModelEngine(two_models(), H100, GIB, shared=True)
        static = MultiModelEngine(two_models(), H100, GIB, shared=False)
        for name in shared.engines:
            shared_tpp = {
                g.split("/", 1)[1]: s.tokens_per_page
                for g, s in shared.engines[name].manager.specs.items()
            }
            static_tpp = {
                g: s.tokens_per_page
                for g, s in static.engines[name].manager.specs.items()
            }
            assert shared_tpp == static_tpp


class TestMemorySnapshotNamespacing:
    def test_engine_snapshots_exclude_co_tenants(self):
        # Figure-16 snapshots: each engine's used_by_group must cover only
        # its own namespace, not the whole shared pool.
        from repro.engine.scheduler import SchedulerConfig

        engine = MultiModelEngine(
            two_models(), H100, GIB, config=SchedulerConfig(record_memory=True)
        )
        engine.add_requests("big", reqs("b", 2, output=32))
        engine.add_requests("small", reqs("s", 2, output=32))
        for _ in range(12):
            engine.step()
        saw_groups = False
        for name, eng in engine.engines.items():
            for record in eng.steps:
                if record.memory is None:
                    continue
                used = record.memory.used_by_group
                saw_groups = saw_groups or bool(used)
                assert all(g.startswith(f"{name}/") for g in used), (
                    f"{name} snapshot charged for co-tenant groups: {sorted(used)}"
                )
        assert saw_groups, "no step recorded any used groups"
