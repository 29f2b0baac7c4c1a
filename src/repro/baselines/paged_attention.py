"""vLLM v0.6.3-style homogeneous PagedAttention memory manager.

Pre-Jenga vLLM treats every model as a stack of identical full-attention
layers (Section 3.2): one page size, KV allocated for *every* token in
*every* layer, sliding-window KV never freed, and no vision-embedding
cache.  For a Llama 3.2 Vision request with ``T`` text and ``I`` image
tokens it therefore stores ``(T + I) * (32 + 8) * E`` bytes where
``T * 32 * E + I * 8 * E`` would do -- the 79.6% waste on MMMU-pro.

Mamba models get a *static* state pool sized for the configured maximum
batch (how vLLM v0.6 handled Jamba): the pool is carved out of KV memory up
front whether or not the slots are in use.

Implementation note: the manager is a :class:`JengaKVCacheManager` over a
single merged full-attention group, which makes the comparison surgical --
scheduler, prefix-cache machinery, and page mechanics are shared; only the
*policy* (homogeneous vs. per-layer-type) differs, exactly as in the
paper's methodology.
"""

from __future__ import annotations

from typing import Dict, Set

from ..core.kv_manager import JengaKVCacheManager
from ..core.layer_policy import FULL_ATTENTION, GroupSpec
from ..core.sequence import IMAGE, TEXT, SequenceSpec
from ..core.two_level import AllocatorStats
from ..models.config import ModelSpec

__all__ = ["PagedAttentionManager", "unified_group_specs"]


def unified_group_specs(model: ModelSpec, tokens_per_page: int = 16) -> Dict[str, GroupSpec]:
    """One homogeneous full-attention group covering all attention layers."""
    per_token = model.kv_bytes_per_token_alllayers()
    if per_token <= 0:
        raise ValueError(f"model {model.name!r} has no attention KV at all")
    return {
        "unified": GroupSpec(
            group_id="unified",
            kind=FULL_ATTENTION,
            num_layers=sum(1 for l in model.layers if l.kind != "mamba"),
            per_token_bytes=per_token,
            tokens_per_page=tokens_per_page,
            accepted_tags=frozenset({TEXT, IMAGE}),
        )
    }


class PagedAttentionManager(JengaKVCacheManager):
    """The vLLM v0.6.3 baseline (same interface as the Jenga manager)."""

    name = "vllm"

    def __init__(
        self,
        model: ModelSpec,
        total_bytes: int,
        tokens_per_page: int = 16,
        enable_prefix_caching: bool = True,
        max_num_seqs: int = 256,
        seed: int = 0,
        allow_unsupported_prefix_caching: bool = False,
    ) -> None:
        self.model = model
        if enable_prefix_caching and not allow_unsupported_prefix_caching:
            # vLLM v0.6.3 only supports automatic prefix caching for pure
            # full-attention decoders: sliding-window, dropped-token,
            # cross-attention, and Mamba layers are all incompatible with
            # its block reuse and force the feature off.  (Figure 17's
            # vLLM arm naively treats every layer as self-attention; pass
            # allow_unsupported_prefix_caching=True to model that.)
            enable_prefix_caching = all(
                layer.kind == FULL_ATTENTION for layer in model.layers
            )
        self._mamba_state_bytes = model.mamba_state_bytes()
        self._mamba_slots = 0
        pool_bytes = 0
        if self._mamba_state_bytes:
            # Static pool for max_num_seqs states, but never more than half
            # of KV memory (vLLM caps the batch to what fits).
            affordable = (total_bytes // 2) // self._mamba_state_bytes
            self._mamba_slots = max(1, min(max_num_seqs, affordable))
            pool_bytes = self._mamba_slots * self._mamba_state_bytes
        kv_bytes = total_bytes - pool_bytes
        if kv_bytes <= 0:
            raise ValueError("no KV memory left after the static Mamba pool")
        if self._mamba_state_bytes:
            # vLLM v0.6.3 cannot prefix-cache recurrent state, and a
            # model-wide hit needs every layer's cache, so prefix caching
            # is off for hybrid Mamba models (Marconi is concurrent work).
            enable_prefix_caching = False
        super().__init__(
            unified_group_specs(model, tokens_per_page),
            kv_bytes,
            enable_prefix_caching=enable_prefix_caching,
            strategy="lcm",
            seed=seed,
        )
        self._mamba_holders: Set[str] = set()
        # Monotone count of slot-occupancy changes.  Slot exhaustion gates
        # can_admit but lives outside the allocator, so admission_version
        # folds this counter into the allocator's version (a sum of
        # monotone counters is equality-safe: equal sums imply equal
        # components).
        self._mamba_churn = 0

    # ------------------------------------------------------------------
    # Static Mamba pool on top of the paged KV cache
    # ------------------------------------------------------------------

    def begin_request(self, seq: SequenceSpec) -> int:
        hit = super().begin_request(seq)
        if (
            self._mamba_slots
            and seq.request_id not in self._mamba_holders
            and len(self._mamba_holders) < self._mamba_slots
        ):
            self._mamba_holders.add(seq.request_id)
            self._mamba_churn += 1
        return hit

    def allocate_up_to(self, seq: SequenceSpec, target_global: int) -> bool:
        if self._mamba_slots and seq.request_id not in self._mamba_holders:
            if len(self._mamba_holders) >= self._mamba_slots:
                return False
            self._mamba_holders.add(seq.request_id)
            self._mamba_churn += 1
        return super().allocate_up_to(seq, target_global)

    def needs_allocation(self, seq: SequenceSpec, target_global: int) -> bool:
        # A request without its Mamba slot must reach allocate_up_to (the
        # slot is claimed there), even when no KV page is missing.
        if self._mamba_slots and seq.request_id not in self._mamba_holders:
            return True
        return super().needs_allocation(seq, target_global)

    def can_admit(
        self, seq: SequenceSpec, watermark_pages: int = 0, chunk_tokens: int = 8192
    ) -> bool:
        if (
            self._mamba_slots
            and seq.request_id not in self._mamba_holders
            and len(self._mamba_holders) >= self._mamba_slots
        ):
            return False
        return super().can_admit(seq, watermark_pages, chunk_tokens)

    def can_admit_uncached(
        self, seq: SequenceSpec, watermark_pages: int = 0, chunk_tokens: int = 8192
    ) -> bool:
        if (
            self._mamba_slots
            and seq.request_id not in self._mamba_holders
            and len(self._mamba_holders) >= self._mamba_slots
        ):
            return False
        return super().can_admit_uncached(seq, watermark_pages, chunk_tokens)

    def admission_version(self) -> int:
        return super().admission_version() + self._mamba_churn

    def release(self, seq: SequenceSpec, cacheable: bool = True) -> None:
        if seq.request_id in self._mamba_holders:
            self._mamba_holders.discard(seq.request_id)
            self._mamba_churn += 1
        super().release(seq, cacheable=cacheable)

    def stats(self) -> AllocatorStats:
        stats = super().stats()
        if not self._mamba_slots:
            return stats
        in_use = len(self._mamba_holders) * self._mamba_state_bytes
        idle = (self._mamba_slots - len(self._mamba_holders)) * self._mamba_state_bytes
        used = dict(stats.used_bytes_by_group)
        used["mamba_pool"] = in_use
        return AllocatorStats(
            total_bytes=stats.total_bytes + self._mamba_slots * self._mamba_state_bytes,
            free_bytes=stats.free_bytes,
            used_bytes_by_group=used,
            evictable_bytes_by_group=stats.evictable_bytes_by_group,
            internal_frag_bytes=stats.internal_frag_bytes + idle,
            partial_fill_bytes=stats.partial_fill_bytes,
            slack_bytes=stats.slack_bytes,
        )

    @property
    def has_vision_cache(self) -> bool:
        """vLLM v0.6.3 has no vision-embedding cache (Figure 18 baseline)."""
        return False
