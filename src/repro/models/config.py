"""Model architecture descriptions.

Jenga's behaviour depends only on architecture *metadata*: how many layers
of which type a model has, how many KV bytes a token costs per layer, the
sliding-window sizes, the Mamba state sizes, and the vision-token geometry.
:class:`ModelSpec` captures exactly that, and :meth:`ModelSpec.kv_groups`
derives the layer-type groups the allocator manages -- the same derivation
the paper describes as "parsing all possible embedding sizes from the model
structure" (Section 7).

All sizes are bytes; per-token KV for an attention layer is
``2 (K and V) * kv_heads * head_dim * kv_dtype_bytes``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..core.layer_policy import (
    CROSS_ATTENTION,
    DROPPED_TOKEN,
    FULL_ATTENTION,
    GroupSpec,
    MAMBA,
    SLIDING_WINDOW,
    VISION_EMBEDDING,
)
from ..core.sequence import IMAGE, TEXT, TokenTag

__all__ = ["LayerSpec", "VisionSpec", "ModelSpec", "GIB"]

GIB = 1024**3


@dataclass(frozen=True)
class LayerSpec:
    """One decoder layer's cache requirements.

    Attributes:
        kind: Layer-type constant from :mod:`repro.core.layer_policy`.
        kv_heads / head_dim: GQA geometry (attention kinds).
        window: Sliding-window size in tokens.
        state_bytes: Recurrent state size (``mamba`` only).
        budget: Retained-token budget (``dropped_token`` / PyramidKV).
        accepted_tags: Token tags the layer caches (``cross_attention``
            layers cache image tokens only; mllama-style self-attention
            caches text tokens only).
        shares_kv_with_previous: Cross-layer KV sharing (Character.ai-style):
            this layer reuses the previous layer's KV and contributes no
            memory of its own.
    """

    kind: str
    kv_heads: int = 0
    head_dim: int = 0
    window: Optional[int] = None
    state_bytes: Optional[int] = None
    budget: Optional[int] = None
    accepted_tags: FrozenSet[TokenTag] = frozenset({TEXT, IMAGE})
    shares_kv_with_previous: bool = False

    def per_token_bytes(self, kv_dtype_bytes: int = 2) -> int:
        """KV bytes one token of this layer's stream costs (0 if shared)."""
        if self.shares_kv_with_previous:
            return 0
        if self.kind == MAMBA:
            return 0
        return 2 * self.kv_heads * self.head_dim * kv_dtype_bytes


@dataclass(frozen=True)
class VisionSpec:
    """Vision-encoder geometry of a multimodal model.

    Attributes:
        params_b: Encoder parameters (linear-layer FLOPs).
        tokens_per_image: Patch tokens one image contributes to the LLM.
        embed_bytes_per_token: Bytes of one cached embedding vector.
        cache_embeddings: Whether Jenga exposes a vision_embedding group
            (mllama feeds the encoder output straight into cross-attention
            KV instead).
        encoder_hidden: Encoder hidden size -- drives the quadratic
            attention FLOPs, which dominate encoder cost at high
            resolution.
        tile_tokens: Attention span of one tile; high-resolution images are
            processed as independent tiles, so attention is quadratic per
            tile, not over the whole image.
    """

    params_b: float
    tokens_per_image: int
    embed_bytes_per_token: int
    cache_embeddings: bool = True  # expose a vision_embedding group
    encoder_hidden: int = 1152
    tile_tokens: int = 729


@dataclass(frozen=True)
class ModelSpec:
    """A model as seen by the memory manager and the cost model.

    Attributes:
        name: Human-readable identifier (zoo key).
        params_b: Decoder parameter count in billions (weights bytes and
            per-token FLOPs both derive from it).
        hidden_size: Model hidden dimension (MLP cost / embedding sizes).
        layers: Per-layer cache specs, in order.
        vision: Vision-encoder description for multimodal models.
        weight_dtype_bytes: 2 for FP16/BF16, 1 for FP8 (Table 1's ``*``).
        kv_dtype_bytes: KV-cache element size.
    """

    name: str
    params_b: float
    hidden_size: int
    layers: Tuple[LayerSpec, ...]
    vision: Optional[VisionSpec] = None
    weight_dtype_bytes: int = 2
    kv_dtype_bytes: int = 2

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @property
    def weight_bytes(self) -> int:
        total = self.params_b * 1e9 * self.weight_dtype_bytes
        if self.vision is not None:
            total += self.vision.params_b * 1e9 * self.weight_dtype_bytes
        return int(total)

    def quantized(self) -> "ModelSpec":
        """FP8 variant of this model (Table 1 entries marked ``*``)."""
        return ModelSpec(
            name=self.name + "-fp8",
            params_b=self.params_b,
            hidden_size=self.hidden_size,
            layers=self.layers,
            vision=self.vision,
            weight_dtype_bytes=1,
            kv_dtype_bytes=self.kv_dtype_bytes,
        )

    def kv_bytes_per_token_alllayers(self) -> int:
        """Per-token KV bytes if *every* layer stored every token.

        This is what a homogeneous PagedAttention allocator reserves
        (Section 3.2's ``(T+I) x (32+8) x E``).  Mamba layers are excluded:
        they have no per-token cache even under the baseline (vLLM v0.6.3
        gave them a separate static pool).
        """
        total = 0
        for layer in self.layers:
            if layer.kind != MAMBA:
                total += layer.per_token_bytes(self.kv_dtype_bytes)
        return total

    def mamba_state_bytes(self) -> int:
        """Total recurrent-state bytes per sequence across Mamba layers."""
        return sum(int(l.state_bytes or 0) for l in self.layers if l.kind == MAMBA)

    # ------------------------------------------------------------------
    # Layer-type grouping (what Jenga allocates over)
    # ------------------------------------------------------------------

    def kv_groups(
        self,
        tokens_per_page: int = 16,
        include_vision_cache: bool = True,
        group_prefix: str = "",
    ) -> Dict[str, GroupSpec]:
        """Derive the layer-type groups for the two-level allocator.

        Layers sharing (kind, window/budget, tags) merge into one group
        whose per-token size sums the member layers (KV-sharing layers
        contribute zero).  ``group_prefix`` namespaces groups when several
        models share one allocator (speculative decoding, Section 6.1).
        """
        buckets: Dict[Tuple, List[LayerSpec]] = {}
        for layer in self.layers:
            key = (layer.kind, layer.window, layer.budget, layer.accepted_tags)
            buckets.setdefault(key, []).append(layer)

        groups: Dict[str, GroupSpec] = {}
        for (kind, window, budget, tags), members in buckets.items():
            if kind == MAMBA:
                state = sum(int(l.state_bytes or 0) for l in members)
                gid = f"{group_prefix}mamba"
                groups[gid] = GroupSpec(
                    group_id=gid,
                    kind=MAMBA,
                    num_layers=len(members),
                    per_token_bytes=0,
                    tokens_per_page=1,
                    accepted_tags=tags,
                    state_bytes=state,
                )
                continue
            per_token = sum(l.per_token_bytes(self.kv_dtype_bytes) for l in members)
            if per_token == 0:
                continue
            gid = group_prefix + self._group_name(kind, window, budget)
            groups[gid] = GroupSpec(
                group_id=gid,
                kind=kind,
                num_layers=len(members),
                per_token_bytes=per_token,
                tokens_per_page=tokens_per_page,
                accepted_tags=tags,
                window=window,
                budget=budget,
            )

        if self.vision is not None and self.vision.cache_embeddings and include_vision_cache:
            gid = group_prefix + "vision_embed"
            groups[gid] = GroupSpec(
                group_id=gid,
                kind=VISION_EMBEDDING,
                num_layers=1,
                per_token_bytes=self.vision.embed_bytes_per_token,
                tokens_per_page=tokens_per_page,
                accepted_tags=frozenset({IMAGE}),
            )
        if not groups:
            raise ValueError(f"model {self.name!r} produced no KV groups")
        return groups

    @staticmethod
    def _group_name(kind: str, window: Optional[int], budget: Optional[int]) -> str:
        if kind == SLIDING_WINDOW:
            return f"sliding_window:{window}"
        if kind == DROPPED_TOKEN:
            return f"dropped:{budget}"
        if kind == CROSS_ATTENTION:
            return "cross_attn"
        return "self_attn"

    # ------------------------------------------------------------------
    # Cost-model inputs
    # ------------------------------------------------------------------

    def flops_per_token(self) -> float:
        """Dense FLOPs to process one token (the standard 2 * params)."""
        return 2.0 * self.params_b * 1e9

    def vision_flops_per_image(self) -> float:
        """FLOPs for one image through the vision encoder.

        Linear layers cost ``2 * params`` per token; per-tile self-attention
        adds ``4 * hidden * tile_tokens`` per token, which dominates for
        high-resolution multi-tile images and is why re-running the encoder
        on every chunked-prefill step (Figure 18's baseline) is expensive.
        """
        if self.vision is None:
            return 0.0
        v = self.vision
        linear = 2.0 * v.params_b * 1e9 * v.tokens_per_image
        num_tiles = max(1.0, v.tokens_per_image / v.tile_tokens)
        attn = num_tiles * 4.0 * v.encoder_hidden * float(v.tile_tokens) ** 2
        return linear + attn
