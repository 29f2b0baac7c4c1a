"""Cross-stream (multimodal) prefix caching through the full manager.

VLM requests interleave text and image tokens; the self-attention,
cross-attention, and vision-embedding groups each see different streams,
and the model-wide hit is the longest global prefix all of them can serve
(Section 5.2's intersection rule over heterogeneous streams)."""

import pytest

from repro.core.kv_manager import JengaKVCacheManager
from repro.core.layer_policy import (
    CROSS_ATTENTION,
    FULL_ATTENTION,
    GroupSpec,
    VISION_EMBEDDING,
)
from repro.core.pages import EMPTY
from repro.core.sequence import IMAGE, TEXT, SequenceSpec

T = frozenset({TEXT})
I = frozenset({IMAGE})


def mllama_specs(tpp=4):
    """Self-attention over text, cross-attention over images (mllama)."""
    return {
        "self": GroupSpec("self", FULL_ATTENTION, 4, 64, tokens_per_page=tpp,
                          accepted_tags=T),
        "cross": GroupSpec("cross", CROSS_ATTENTION, 1, 64, tokens_per_page=tpp,
                           accepted_tags=I),
    }


def run_request(mgr, seq, now=1.0):
    hit = mgr.begin_request(seq)
    assert mgr.allocate_up_to(seq, len(seq))
    mgr.commit(seq, len(seq), now=now)
    return hit


def vlm_seq(rid, image_tokens, question, extra=()):
    return SequenceSpec.multimodal(
        rid,
        [(IMAGE, list(image_tokens)), (TEXT, list(question) + list(extra))],
    )


class TestMllamaHits:
    def test_same_image_different_question(self):
        """Reusing the same image hits the cross-attention cache even when
        the text question differs -- but the self-attention (text) stream
        diverges at the question, so the global hit ends there."""
        mgr = JengaKVCacheManager(mllama_specs(), 256 * 256)
        img = range(100, 132)  # 32 image tokens
        q1 = range(1, 9)
        s1 = vlm_seq("r1", img, q1)
        run_request(mgr, s1)
        mgr.release(s1)

        q2 = range(50, 58)
        s2 = vlm_seq("r2", img, q2)
        hit = mgr.begin_request(s2)
        # Global prefix 32 = all image tokens (text stream length 0 there,
        # trivially valid; image stream 32, fully cached).
        assert hit == 32

    def test_same_image_same_question_prefix(self):
        mgr = JengaKVCacheManager(mllama_specs(), 256 * 256)
        img = range(100, 132)
        q = range(1, 9)
        s1 = vlm_seq("r1", img, q)
        run_request(mgr, s1)
        mgr.release(s1)
        s2 = vlm_seq("r2", img, q, extra=[77, 78])
        hit = mgr.begin_request(s2)
        # Image (32) + full shared question (8) = 40 global tokens.
        assert hit == 40

    def test_different_image_no_cross_hit(self):
        mgr = JengaKVCacheManager(mllama_specs(), 256 * 256)
        s1 = vlm_seq("r1", range(100, 132), range(1, 9))
        run_request(mgr, s1)
        mgr.release(s1)
        s2 = vlm_seq("r2", range(200, 232), range(1, 9))
        assert mgr.begin_request(s2) == 0

    def test_hit_allocates_nothing_for_cached_blocks(self):
        mgr = JengaKVCacheManager(mllama_specs(), 256 * 256)
        img = range(100, 132)
        s1 = vlm_seq("r1", img, range(1, 9))
        run_request(mgr, s1)
        mgr.release(s1)
        used_before = mgr.stats().used_bytes
        s2 = vlm_seq("r2", img, range(50, 58))
        hit = mgr.begin_request(s2)
        assert hit == 32
        # The cross-attention pages were acquired (shared), not copied.
        cross = mgr.allocator.groups["cross"]
        shared = [p for p in cross.ref_count if p >= 1]
        assert len(shared) == 8  # 32 image tokens / 4 per page


class TestVisionEmbeddingCacheReuse:
    def specs(self):
        return {
            "self": GroupSpec("self", FULL_ATTENTION, 2, 64, tokens_per_page=4),
            "vis": GroupSpec("vis", VISION_EMBEDDING, 1, 32, tokens_per_page=4,
                             accepted_tags=I),
        }

    def test_consumed_embeddings_do_not_grant_hits(self):
        """Embeddings freed on consumption (Section 6.2) are gone; a second
        identical request re-encodes, but its *LLM KV* still hits."""
        mgr = JengaKVCacheManager(self.specs(), 256 * 256)
        seq = SequenceSpec.multimodal(
            "r1", [(IMAGE, list(range(16))), (TEXT, [1, 2, 3, 4])]
        )
        mgr.begin_request(seq)
        assert mgr.allocate_vision(seq)
        assert mgr.allocate_up_to(seq, len(seq))
        mgr.commit(seq, len(seq), now=1.0)
        mgr.consume_vision(seq, len(seq))
        assert mgr.allocator.groups["vis"].n_used == 0
        mgr.release(seq)

        seq2 = SequenceSpec.multimodal(
            "r2", [(IMAGE, list(range(16))), (TEXT, [1, 2, 3, 4, 5])]
        )
        hit = mgr.begin_request(seq2)
        # Self-attention KV of image+text prefix is cached -> deep hit even
        # though the embeddings themselves were freed.
        assert hit == 20


class TestEvictionAcrossStreams:
    def test_evicting_cross_cache_shrinks_hit(self):
        mgr = JengaKVCacheManager(mllama_specs(), 256 * 256)
        img = range(100, 132)
        s1 = vlm_seq("r1", img, range(1, 9))
        run_request(mgr, s1)
        mgr.release(s1)
        # Manually drop the cross-attention cache.
        cross = mgr.allocator.groups["cross"]
        for page_id in list(cross.evictor.iter_in_order()):
            cross.evictor.remove(page_id)
            cross.clear(page_id)  # unindexes the block
            cross.state[page_id] = EMPTY
        s2 = vlm_seq("r2", img, range(1, 9), extra=[9])
        # Self-attention alone cannot carry the hit past the image span.
        assert mgr.begin_request(s2) == 0
