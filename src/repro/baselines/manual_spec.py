"""SmartSpec-style manual memory split (``vLLM-manual`` in Figure 19).

SmartSpec provisions speculative decoding by *statically* splitting KV
memory between the draft and target models in proportion to their
per-token KV sizes.  For self-attention-only models this is optimal (no
fragmentation), which is why the paper shows Jenga merely matching it on
standard Llama; on heterogeneous models each side still manages its own
memory homogeneously and inherits all PagedAttention waste, and the static
split cannot shift capacity between the models as workloads change.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core.events import Observer
from ..core.sequence import SequenceSpec
from ..core.two_level import AllocatorStats
from ..models.config import ModelSpec
from .paged_attention import PagedAttentionManager

__all__ = ["DualManager", "manual_spec_managers"]


class DualManager:
    """Two independent managers presented behind the single-manager API.

    Every request is registered with both sides; an operation succeeds only
    if it succeeds on both (with rollback on partial failure).  Used for
    ``vLLM-manual``: ``draft`` and ``target`` each get a
    :class:`PagedAttentionManager` over their static share of KV memory.
    """

    name = "vllm-manual"

    def __init__(self, managers: List) -> None:
        if not managers:
            raise ValueError("DualManager needs at least one sub-manager")
        self.observer: Optional[Observer] = None
        self.managers = list(managers)

    def bind_observer(self, observer: Optional[Observer]) -> None:
        """Report to ``observer`` from the composite and every sub-manager."""
        self.observer = observer
        for manager in self.managers:
            manager.bind_observer(observer)

    # -- lifecycle -------------------------------------------------------

    def begin_request(self, seq: SequenceSpec) -> int:
        hits = [m.begin_request(seq) for m in self.managers]
        # The model-wide hit is what *all* sides can serve.
        return min(hits)

    def allocate_up_to(self, seq: SequenceSpec, target_global: int) -> bool:
        # No cross-manager rollback: a side that already grew keeps its
        # pages.  The caller either retries the same target after freeing
        # memory (the grown side then no-ops) or preempts the request
        # (releasing both sides), so the transient over-hold is bounded by
        # one scheduling round -- the same guarantee vLLM's own scheduler
        # relies on.
        ok = True
        for manager in self.managers:
            if not manager.allocate_up_to(seq, target_global):
                ok = False
        return ok

    def needs_allocation(self, seq: SequenceSpec, target_global: int) -> bool:
        # Sides are independent (allocate_up_to has no cross-side
        # rollback), so skipping is safe exactly when every side would
        # no-op.
        return any(m.needs_allocation(seq, target_global) for m in self.managers)

    def allocate_vision(self, seq: SequenceSpec) -> bool:
        return all(m.allocate_vision(seq) for m in self.managers)

    def commit(
        self,
        seq: SequenceSpec,
        computed_global: int,
        now: float,
        phase: str = "decode",
    ) -> None:
        for manager in self.managers:
            manager.commit(seq, computed_global, now, phase)

    def consume_vision(self, seq: SequenceSpec, upto_global: int) -> None:
        for manager in self.managers:
            manager.consume_vision(seq, upto_global)

    def release(self, seq: SequenceSpec, cacheable: bool = True) -> None:
        for manager in self.managers:
            manager.release(seq, cacheable=cacheable)

    # -- probes ----------------------------------------------------------

    def can_admit(
        self, seq: SequenceSpec, watermark_pages: int = 0, chunk_tokens: int = 8192
    ) -> bool:
        return all(
            m.can_admit(seq, watermark_pages, chunk_tokens) for m in self.managers
        )

    def admission_version(self) -> int:
        # Sum of monotone per-side counters: equal sums imply every side
        # is unchanged, so the composite verdict is unchanged.  Any side
        # without a version counter (-1) disables the skip for the composite.
        total = 0
        for manager in self.managers:
            version = manager.admission_version()
            if version < 0:
                return -1
            total += version
        return total

    def stats(self) -> AllocatorStats:
        parts = [m.stats() for m in self.managers]
        used: Dict[str, int] = {}
        evictable: Dict[str, int] = {}
        for i, part in enumerate(parts):
            for gid, b in part.used_bytes_by_group.items():
                used[f"m{i}/{gid}"] = b
            for gid, b in part.evictable_bytes_by_group.items():
                evictable[f"m{i}/{gid}"] = b
        return AllocatorStats(
            total_bytes=sum(p.total_bytes for p in parts),
            free_bytes=sum(p.free_bytes for p in parts),
            used_bytes_by_group=used,
            evictable_bytes_by_group=evictable,
            internal_frag_bytes=sum(p.internal_frag_bytes for p in parts),
            partial_fill_bytes=sum(p.partial_fill_bytes for p in parts),
            slack_bytes=sum(p.slack_bytes for p in parts),
        )

    @property
    def hit_tokens(self) -> int:
        return sum(m.hit_tokens for m in self.managers)

    @property
    def lookup_tokens(self) -> int:
        return sum(m.lookup_tokens for m in self.managers)

    @property
    def prefix_hit_rate(self) -> float:
        # The model-wide hit is what *all* sides can serve.
        return min(m.prefix_hit_rate for m in self.managers)

    @property
    def has_vision_cache(self) -> bool:
        return all(m.has_vision_cache for m in self.managers)

    @property
    def kernel_slowdown(self) -> float:
        return max(m.kernel_slowdown for m in self.managers)


def manual_spec_managers(
    draft: ModelSpec,
    target: ModelSpec,
    total_bytes: int,
    enable_prefix_caching: bool = True,
) -> DualManager:
    """Build the SmartSpec static split for a draft/target pair.

    Memory splits proportionally to each model's all-layer per-token KV
    bytes (plus Mamba state amortized over a nominal context), matching
    SmartSpec's sizing rule.
    """
    nominal_ctx = 4096
    weights = []
    for model in (draft, target):
        per_token = model.kv_bytes_per_token_alllayers()
        per_token += model.mamba_state_bytes() / nominal_ctx
        weights.append(per_token)
    total_weight = sum(weights)
    managers = []
    for model, weight in zip((draft, target), weights):
        share = int(total_bytes * weight / total_weight)
        managers.append(
            PagedAttentionManager(model, share, enable_prefix_caching=enable_prefix_caching)
        )
    return DualManager(managers)
