"""Tests for the Jenga KV-cache manager (request lifecycle, hits, waste)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.kv_manager import JengaKVCacheManager, ideal_resident_bytes
from repro.core.layer_policy import (
    CROSS_ATTENTION,
    DROPPED_TOKEN,
    FULL_ATTENTION,
    GroupSpec,
    MAMBA,
    SLIDING_WINDOW,
    VISION_EMBEDDING,
    make_policy,
)
from repro.core.sequence import IMAGE, TEXT, SequenceSpec

T = frozenset({TEXT})
I = frozenset({IMAGE})


def text_specs(tpp=4, window=8):
    return {
        "full": GroupSpec("full", FULL_ATTENTION, 2, 64, tokens_per_page=tpp, accepted_tags=T),
        "win": GroupSpec("win", SLIDING_WINDOW, 2, 64, tokens_per_page=tpp, window=window, accepted_tags=T),
    }


def make_manager(total=64 * 4 * 64, caching=True, specs=None):
    return JengaKVCacheManager(specs or text_specs(), total, enable_prefix_caching=caching)


def run_request(mgr, seq, now=1.0, chunk=None):
    """Prefill the whole sequence (phase="prefill", as the engine does
    while a request is still computing its prompt)."""
    hit = mgr.begin_request(seq)
    pos = hit
    chunk = chunk or len(seq)
    while pos < len(seq):
        target = min(len(seq), pos + chunk)
        assert mgr.allocate_up_to(seq, target)
        mgr.commit(seq, target, now=now, phase="prefill")
        pos = target
        now += 1.0
    return hit


class TestLifecycle:
    def test_basic_alloc_commit_release(self):
        mgr = make_manager()
        seq = SequenceSpec.text_only("r1", list(range(20)))
        assert run_request(mgr, seq) == 0
        stats = mgr.stats()
        assert stats.used_bytes_by_group["full"] == 5 * 256
        assert stats.used_bytes_by_group["win"] == 2 * 256  # window 8 = 2 pages
        mgr.release(seq)
        assert mgr.stats().used_bytes == 0
        mgr.allocator.check_invariants()

    def test_double_begin_raises(self):
        mgr = make_manager()
        seq = SequenceSpec.text_only("r1", [1, 2, 3])
        mgr.begin_request(seq)
        with pytest.raises(ValueError):
            mgr.begin_request(seq)

    def test_commit_requires_registration(self):
        mgr = make_manager()
        seq = SequenceSpec.text_only("ghost", [1])
        with pytest.raises(KeyError):
            mgr.commit(seq, 1, now=0.0)

    def test_release_unknown_is_noop(self):
        mgr = make_manager()
        mgr.release(SequenceSpec.text_only("ghost", [1]))

    def test_decode_growth(self):
        mgr = make_manager()
        seq = SequenceSpec.text_only("r1", list(range(8)))
        run_request(mgr, seq)
        for i in range(10):
            seq.append(100 + i)
            assert mgr.allocate_up_to(seq, len(seq))
            mgr.commit(seq, len(seq), now=10.0 + i)
        # 18 tokens: full group holds ceil(18/4)=5 pages.
        assert mgr.stats().used_bytes_by_group["full"] == 5 * 256
        mgr.allocator.check_invariants()

    def test_out_of_window_pages_demoted_during_run(self):
        mgr = make_manager()
        seq = SequenceSpec.text_only("r1", list(range(40)))
        run_request(mgr, seq)
        stats = mgr.stats()
        # Window 8 -> 2 used pages; the 8 earlier pages drop to the
        # evict-first cache class (biased stamps).
        assert stats.used_bytes_by_group["win"] == 2 * 256
        assert stats.evictable_bytes_by_group["win"] == 8 * 256
        win = mgr.allocator.groups["win"]
        biased = [p for p in win.pages.values() if p.is_evictable]
        assert all(p.last_access < -1e12 for p in biased)

    def test_release_without_caching_frees_everything(self):
        mgr = make_manager(caching=False)
        seq = SequenceSpec.text_only("r1", list(range(40)))
        run_request(mgr, seq)
        # Out-of-window pages free outright when caching is off.
        assert mgr.stats().evictable_bytes == 0
        mgr.release(seq)
        stats = mgr.stats()
        assert stats.used_bytes == 0 and stats.evictable_bytes == 0


class TestPrefixHits:
    def test_full_prefix_hit(self):
        mgr = make_manager()
        seq1 = SequenceSpec.text_only("r1", list(range(40)))
        run_request(mgr, seq1, now=1.0)
        mgr.release(seq1)
        seq2 = SequenceSpec.text_only("r2", list(range(40)) + [99, 98, 97])
        hit = mgr.begin_request(seq2)
        assert hit == 40
        assert mgr.allocate_up_to(seq2, len(seq2))
        mgr.commit(seq2, len(seq2), now=5.0)
        mgr.release(seq2)
        mgr.allocator.check_invariants()

    def test_hit_capped_below_full_sequence(self):
        mgr = make_manager()
        seq1 = SequenceSpec.text_only("r1", list(range(40)))
        run_request(mgr, seq1)
        mgr.release(seq1)
        seq2 = SequenceSpec.text_only("r2", list(range(40)))
        assert mgr.begin_request(seq2) < 40

    def test_no_hit_when_disabled(self):
        mgr = make_manager(caching=False)
        seq1 = SequenceSpec.text_only("r1", list(range(40)))
        run_request(mgr, seq1)
        mgr.release(seq1)
        seq2 = SequenceSpec.text_only("r2", list(range(40)) + [1])
        assert mgr.begin_request(seq2) == 0

    def test_divergent_content_no_hit(self):
        mgr = make_manager()
        seq1 = SequenceSpec.text_only("r1", list(range(40)))
        run_request(mgr, seq1)
        mgr.release(seq1)
        seq2 = SequenceSpec.text_only("r2", [999] + list(range(39)) + [1])
        assert mgr.begin_request(seq2) == 0

    def test_window_rule_constrains_model_hit(self):
        # Evict the trailing window blocks of the window group and verify
        # the model-wide hit shrinks accordingly.
        mgr = make_manager()
        seq1 = SequenceSpec.text_only("r1", list(range(40)))
        run_request(mgr, seq1, now=1.0)
        mgr.release(seq1)
        win = mgr.allocator.groups["win"]
        # Evict every window-group page (in-window ones carry latest
        # stamps; evict all to be sure).
        while len(win.evictor):
            page = win.pages[win.evictor.evict()]
            win.evictor.add(page.page_id, page.last_access)  # restore key
            break
        # Simpler: drop the whole window cache through the public path.
        for page_id in list(win.evictor.items_in_order()):
            page = win.pages[page_id]
            win.evictor.remove(page_id)
            win.cache_index.remove(page.block_hash, page_id)
            page.block_hash = None
            page.reset()
        seq2 = SequenceSpec.text_only("r2", list(range(40)) + [1])
        # Full group alone cannot grant a hit: window layers lost their
        # trailing blocks.
        assert mgr.begin_request(seq2) == 0

    def test_hit_rate_accounting(self):
        mgr = make_manager()
        seq1 = SequenceSpec.text_only("r1", list(range(40)))
        run_request(mgr, seq1)
        mgr.release(seq1)
        seq2 = SequenceSpec.text_only("r2", list(range(40)) + [7])
        run_request(mgr, seq2)
        assert mgr.prefix_hit_rate == pytest.approx(40 / 81)

    def test_preempted_request_rehits_its_own_cache(self):
        # Full-attention groups re-hit a preempted request's whole cache.
        # (Window groups cannot: only their trailing window stays cached,
        # and the hit cap of len-1 forces a shorter -- uncacheable --
        # prefix, so window models recompute after preemption, matching
        # the upstream implementation.)
        specs = {
            "full": GroupSpec("full", FULL_ATTENTION, 2, 64, tokens_per_page=4,
                              accepted_tags=T),
        }
        mgr = make_manager(specs=specs)
        seq = SequenceSpec.text_only("r1", list(range(40)))
        run_request(mgr, seq, now=1.0)
        mgr.release(seq, cacheable=True)  # preemption keeps cache
        hit = mgr.begin_request(seq)
        assert hit == 36


class TestMambaManager:
    def specs(self):
        return {
            "attn": GroupSpec("attn", FULL_ATTENTION, 1, 64, tokens_per_page=4, accepted_tags=T),
            "mamba": GroupSpec(
                "mamba", MAMBA, 3, 0, accepted_tags=T, state_bytes=768, checkpoint_interval=8
            ),
        }

    def test_mamba_checkpoints_cached(self):
        mgr = JengaKVCacheManager(self.specs(), 768 * 64)
        seq = SequenceSpec.text_only("r1", list(range(20)))
        run_request(mgr, seq, now=1.0)
        group = mgr.allocator.groups["mamba"]
        # Checkpoints at 8 and 16 went straight to evictable cache.
        assert group.n_evictable == 2
        assert group.n_used == 1  # working state
        mgr.release(seq)
        assert group.n_used == 0
        mgr.allocator.check_invariants()

    def test_mamba_hit_at_checkpoint(self):
        mgr = JengaKVCacheManager(self.specs(), 768 * 64)
        seq1 = SequenceSpec.text_only("r1", list(range(20)))
        run_request(mgr, seq1)
        mgr.release(seq1)
        seq2 = SequenceSpec.text_only("r2", list(range(20)) + [55])
        hit = mgr.begin_request(seq2)
        assert hit == 16  # largest multiple of the checkpoint interval
        assert mgr.allocate_up_to(seq2, len(seq2))
        mgr.commit(seq2, len(seq2), now=9.0)
        # A fresh working state was allocated despite the hit.
        assert mgr.allocator.groups["mamba"].n_used == 1

    def test_mamba_without_caching_single_state(self):
        mgr = JengaKVCacheManager(self.specs(), 768 * 64, enable_prefix_caching=False)
        seq = SequenceSpec.text_only("r1", list(range(64)))
        run_request(mgr, seq)
        assert mgr.allocator.groups["mamba"].n_used == 1
        assert mgr.allocator.groups["mamba"].n_evictable == 0


class TestVisionManager:
    def specs(self):
        return {
            "self": GroupSpec("self", FULL_ATTENTION, 2, 64, tokens_per_page=4),
            "vis": GroupSpec("vis", VISION_EMBEDDING, 1, 32, tokens_per_page=4, accepted_tags=I),
        }

    def seq(self):
        return SequenceSpec.multimodal(
            "v1", [(TEXT, [1, 2]), (IMAGE, list(range(10, 26))), (TEXT, [3, 4])]
        )

    def test_allocate_vision_covers_all_images(self):
        mgr = JengaKVCacheManager(self.specs(), 768 * 64)
        seq = self.seq()
        mgr.begin_request(seq)
        assert mgr.allocate_vision(seq)
        assert mgr.allocator.groups["vis"].n_used == 4  # 16 image tokens / 4

    def test_consume_vision_frees_pages(self):
        mgr = JengaKVCacheManager(self.specs(), 768 * 64)
        seq = self.seq()
        mgr.begin_request(seq)
        mgr.allocate_vision(seq)
        assert mgr.allocate_up_to(seq, 10)
        mgr.commit(seq, 10, now=1.0)
        mgr.consume_vision(seq, 10)  # 8 image tokens consumed -> 2 pages
        assert mgr.allocator.groups["vis"].n_used == 2
        mgr.release(seq)
        mgr.allocator.check_invariants()

    def test_has_vision_cache(self):
        mgr = JengaKVCacheManager(self.specs(), 768 * 64)
        assert mgr.has_vision_cache
        mgr2 = make_manager()
        assert not mgr2.has_vision_cache


class TestCapacityProbes:
    def test_allocation_failure_rolls_back(self):
        mgr = make_manager(total=768 * 2)  # tiny pool
        seq = SequenceSpec.text_only("big", list(range(400)))
        mgr.begin_request(seq)
        used_before = mgr.stats().used_bytes
        assert not mgr.allocate_up_to(seq, 400)
        assert mgr.stats().used_bytes == used_before
        mgr.allocator.check_invariants()

    def test_can_admit_small_vs_large(self):
        mgr = make_manager(total=768 * 4)
        small = SequenceSpec.text_only("s", list(range(8)))
        huge = SequenceSpec.text_only("h", list(range(10_000)))
        assert mgr.can_admit(small)
        assert not mgr.can_admit(huge)

    def test_can_admit_window_ignores_out_of_window(self):
        # A long prompt on a window-dominated model admits even though the
        # full prompt would not fit as full-attention KV.
        specs = {
            "win": GroupSpec("win", SLIDING_WINDOW, 2, 64, tokens_per_page=4, window=8, accepted_tags=T),
        }
        mgr = JengaKVCacheManager(specs, 256 * 40)
        seq = SequenceSpec.text_only("r", list(range(600)))
        assert mgr.can_admit(seq, chunk_tokens=32)

    def test_resident_pages_needed(self):
        # The write set of a 20-token prefill is 5 pages per group
        # (TestPagesToWrite); admission counts only what stays resident.
        mgr = make_manager()
        seq = SequenceSpec.text_only("r", list(range(20)))
        mgr.begin_request(seq)
        assert mgr.resident_pages_needed(seq, 20) == {"full": 5, "win": 2}

    def test_ideal_resident_bytes(self):
        specs = text_specs()
        seq = SequenceSpec.text_only("r", list(range(40)))
        ideal = ideal_resident_bytes(specs, seq, 40)
        # full: 40 tokens x 64 B; win: 8 tokens x 64 B.
        assert ideal == 40 * 64 + 8 * 64


class TestPagesToWrite:
    def test_attention_blocks(self):
        policy = make_policy(text_specs()["full"])
        assert policy.pages_to_write(0, 10) == [0, 1, 2]
        assert policy.pages_to_write(10, 12) == [2]
        assert policy.pages_to_write(12, 13) == [3]
        assert policy.pages_to_write(5, 5) == []
        # A window group writes every block too; release is commit's job.
        assert make_policy(text_specs()["win"]).pages_to_write(0, 20) == [0, 1, 2, 3, 4]

    def test_mamba_writes(self):
        spec = GroupSpec("m", MAMBA, 1, 0, state_bytes=64, checkpoint_interval=8, accepted_tags=T)
        policy = make_policy(spec)
        assert policy.pages_to_write(0, 5) == [0]
        assert policy.pages_to_write(5, 20, held={0}) == [1, 2]
        assert policy.pages_to_write(20, 21, held={0}) == []
        # After a prefix hit nothing is held: the hit copies a checkpoint
        # into a fresh working state, so slot 0 joins the write set.
        assert policy.pages_to_write(16, 20) == [0]


def needs_allocation_by_walking(mgr, seq, target_global):
    """The iterator form: walk every group's write set on every call.
    ``needs_allocation`` remembers a walk that found nothing missing
    (``GroupBinding.backed_upto``) and must still answer exactly this."""
    bindings = mgr._bindings.get(seq.request_id)
    if bindings is None:
        return True
    for group_id, policy in mgr.policies.items():
        binding = bindings[group_id]
        target_stream = seq.stream_length(policy.spec.accepted_tags, target_global)
        if target_stream > binding.stream_len:
            for _ in mgr._missing_slots(policy, binding, target_stream):
                return True
    return False


def probe(mgr, seq, target):
    """``needs_allocation`` at ``target``, checked against the walk there
    and at a few targets around it (each probe may leave a memo behind)."""
    for t in (target, target + 1, max(0, target - 1), target + 5, len(seq) + 3, target):
        assert mgr.needs_allocation(seq, t) == needs_allocation_by_walking(mgr, seq, t)
    return mgr.needs_allocation(seq, target)


class TestNeedsAllocation:
    """``needs_allocation`` is the engine's licence to skip
    ``allocate_up_to``: ``False`` must mean the call is a no-op."""

    def six_kinds(self):
        return {
            "full": GroupSpec("full", FULL_ATTENTION, 2, 64, tokens_per_page=4),
            "win": GroupSpec("win", SLIDING_WINDOW, 2, 64, tokens_per_page=4, window=8),
            "drop": GroupSpec("drop", DROPPED_TOKEN, 2, 64, tokens_per_page=4, budget=8),
            "mamba": GroupSpec("mamba", MAMBA, 3, 0, state_bytes=768, checkpoint_interval=8),
            "cross": GroupSpec("cross", CROSS_ATTENTION, 1, 64, tokens_per_page=4, accepted_tags=I),
            "vis": GroupSpec("vis", VISION_EMBEDDING, 1, 32, tokens_per_page=4, accepted_tags=I),
        }

    def hit_kinds(self):
        # A dropped-token group rules every hit out, so the prefix-hit
        # arm runs the three text kinds that can share one.
        specs = self.six_kinds()
        return {g: specs[g] for g in ("full", "win", "mamba")}

    @staticmethod
    def tables(mgr, seq):
        return {
            g: (list(b.page_table), set(b.held))
            for g, b in mgr._bindings[seq.request_id].items()
        }

    def drive(self, mgr, seq, hit, deltas):
        """Prefill in ``deltas``-sized chunks, then decode one token per
        remaining delta; probe before every growth."""
        allocations = []
        real = mgr.allocator.allocate_pages

        def counted(group_id, request_id, n):
            allocations.append(n)
            return real(group_id, request_id, n)

        mgr.allocator.allocate_pages = counted
        pos, now, skipped = hit, 1.0, 0
        for delta in deltas:
            if pos < len(seq):
                target, phase = min(len(seq), pos + delta), "prefill"
            else:
                seq.append(1000 + delta)
                target, phase = len(seq), "decode"
            before, made = self.tables(mgr, seq), len(allocations)
            if not probe(mgr, seq, target):
                skipped += 1
                assert mgr.allocate_up_to(seq, target)
                assert len(allocations) == made
                assert self.tables(mgr, seq) == before
            else:
                assert mgr.allocate_up_to(seq, target)
                assert not mgr.needs_allocation(seq, target)
            mgr.commit(seq, target, now=now, phase=phase)
            mgr.consume_vision(seq, target)
            pos, now = target, now + 1.0
        mgr.release(seq)
        mgr.allocator.check_invariants()
        return skipped

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 12), st.integers(0, 3), st.integers(0, 12),
        st.lists(st.integers(1, 9), min_size=1, max_size=30),
    )
    def test_false_means_allocate_is_a_noop_all_six_kinds(self, head, images, tail, deltas):
        segments = [(TEXT, list(range(head)))]
        segments += [(IMAGE, list(range(100 * k, 100 * k + 8))) for k in range(1, images + 1)]
        segments += [(TEXT, list(range(50, 50 + tail)))]
        seq = SequenceSpec.multimodal("r", segments)
        mgr = JengaKVCacheManager(self.six_kinds(), 768 * 1024)
        assert mgr.begin_request(seq) == 0
        assert mgr.allocate_vision(seq)
        self.drive(mgr, seq, 0, deltas)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(17, 60), st.lists(st.integers(1, 9), min_size=4, max_size=30))
    def test_false_means_allocate_is_a_noop_after_mamba_prefix_hit(self, prompt, deltas):
        mgr = JengaKVCacheManager(self.hit_kinds(), 768 * 1024)
        first = SequenceSpec.text_only("r1", list(range(prompt)))
        run_request(mgr, first, chunk=8)
        mgr.release(first)
        seq = SequenceSpec.text_only("r2", list(range(prompt)) + [777])
        hit = mgr.begin_request(seq)
        # The deepest checkpoint whose trailing window is still cached.
        assert hit == 8 * (prompt // 8)
        assert not mgr._bindings["r2"]["mamba"].held  # copied, not held
        assert mgr.needs_allocation(seq, hit + 1)  # the fresh working state
        self.drive(mgr, seq, hit, deltas)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(6, 14),
        st.lists(st.tuples(st.integers(0, 2), st.integers(0, 3), st.integers(1, 9)),
                 min_size=5, max_size=60),
    )
    def test_remembered_walk_equals_walking_under_pressure(self, large_pages, ops):
        """Three requests over all six layer kinds share a pool too small
        for them: grow (failures roll earlier groups back), commit, decode,
        preempt and re-admit in any order -- after every operation each
        live request answers as the walk does."""
        mgr = JengaKVCacheManager(self.six_kinds(), large_pages * 768)
        seqs, pos = {}, {}

        def admit(r):
            segments = [(TEXT, list(range(3 + r))), (IMAGE, list(range(100, 108)))]
            segments += [(TEXT, list(range(50, 56)))]
            seqs[r] = SequenceSpec.multimodal(f"r{r}", segments)
            mgr.begin_request(seqs[r])
            mgr.allocate_vision(seqs[r])
            pos[r] = 0

        for r in range(3):
            admit(r)
        now = 1.0
        for r, op, delta in ops:
            seq = seqs[r]
            if op == 0:  # prefill a chunk, or decode one token
                if pos[r] >= len(seq):
                    seq.append(1000 + delta)
                target = min(len(seq), pos[r] + delta)
                if not probe(mgr, seq, target) or mgr.allocate_up_to(seq, target):
                    mgr.commit(seq, target, now=now, phase="prefill")
                    mgr.consume_vision(seq, target)
                    pos[r] = target
            elif op == 1:  # grow without committing (may fail and roll back)
                mgr.allocate_up_to(seq, min(len(seq), pos[r] + delta))
            elif op == 2:  # preempt by recomputation
                mgr.release(seq, cacheable=False)
                admit(r)
            else:  # finish, and a new request takes the slot
                mgr.release(seq)
                admit(r)
            now += 1.0
            for other in seqs.values():
                probe(mgr, other, pos[int(other.request_id[1:])] + delta)
        mgr.allocator.check_invariants()

    def test_a_slot_leaving_the_hold_forgets_the_remembered_walk(self):
        mgr = make_manager()
        seq = SequenceSpec.text_only("r", list(range(7)))
        mgr.begin_request(seq)
        assert mgr.allocate_up_to(seq, 6)
        assert not mgr.needs_allocation(seq, 7)  # slot 1 backs tokens 4-7
        binding = mgr._bindings["r"]["full"]
        assert binding.backed_upto == 8
        mgr._release_slots(
            mgr.allocator.groups["full"], mgr.policies["full"], binding, [1], 1.0, seq, False
        )
        assert mgr.needs_allocation(seq, 7)

    def test_decode_inside_a_block_is_skippable_after_slide_out(self):
        mgr = make_manager()
        seq = SequenceSpec.text_only("r", list(range(21)))
        mgr.begin_request(seq)
        # 21 tokens: the window group has slid out slots 0-2 by commit.
        assert self.drive(mgr, seq, 0, [21, 1, 1, 1, 1, 1, 1, 1, 1]) == 6
        assert mgr.stats().used_bytes == 0


class TestStampingEquivalence:
    def test_release_time_stamps_match_interface_protocol(self):
        """The optimized release-time stamping must leave the same eviction
        metadata as literally calling update_last_access/set_prefix_length
        every step (the paper's Figure 10 protocol)."""
        mgr = make_manager()
        seq = SequenceSpec.text_only("r1", list(range(16)))
        mgr.begin_request(seq)
        times = []
        for step, target in enumerate((8, 12, 16)):
            now = float(step + 1)
            assert mgr.allocate_up_to(seq, target)
            mgr.commit(seq, target, now=now, phase="prefill")
            times.append(now)
        mgr.release(seq)
        # Reference: simulate the interface protocol by hand.
        full_spec = text_specs()["full"]
        win_spec = text_specs()["win"]
        ref_full = {}
        ref_win = {}
        for step, target in enumerate((8, 12, 16)):
            now = float(step + 1)
            for idx in range((target + 3) // 4):
                ref_full[idx] = now  # full attention touches everything
            lo = max(0, target - 8) // 4
            for idx in range(lo, (target + 3) // 4):
                ref_win[idx] = now  # window touches in-window pages
        full_group = mgr.allocator.groups["full"]
        win_group = mgr.allocator.groups["win"]
        for page in full_group.pages.values():
            if page.is_evictable:
                idx = int(page.prefix_length // 4) - 1
                assert page.last_access == ref_full[idx]
        # Window group: pages that slid out of the window sit in the
        # biased (evict-first) class; pages still in the final window carry
        # the final access stamp.
        evictable_win = [p for p in win_group.pages.values() if p.is_evictable]
        assert evictable_win
        final_window_start = (16 - 8) // 4  # block index of the last window
        for page in evictable_win:
            idx = int(page.prefix_length // 4) - 1
            if idx < final_window_start:
                assert page.last_access < -1e12  # evict-first class
            else:
                assert abs(page.last_access - ref_win[idx]) <= 1.0
