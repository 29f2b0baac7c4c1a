"""Analytic step-latency model.

The paper's evaluation runs on real GPUs; we replace wall-clock with a
deterministic roofline estimate.  What matters for reproducing the paper's
*shapes* is that the model rewards exactly the behaviours Jenga's allocator
enables:

* decode steps pay a large fixed cost (reading the weights once per step),
  so *larger decode batches* amortize it -- bigger batch, higher
  throughput;
* prefill pays per-token compute, and attention pays for the context each
  token actually reads (window-bounded for sliding-window layers);
* cache hits skip prefill compute outright;
* the vision encoder costs FLOPs per encoded image, so re-encoding per
  chunk (no embedding cache) is expensive;
* the GCD page strategy's kernel-inefficiency penalty (Section 4.4) scales
  the attention time.

Everything is a pure function of the scheduled work, so simulations are
exactly reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..models.config import MAMBA, ModelSpec
from ..platforms.gpu import GPU

__all__ = ["StepWork", "CostModel"]

# Achievable fraction of peak FLOPs / bandwidth for fused transformer
# kernels (roofline efficiency).
_COMPUTE_EFF = 0.55
_BANDWIDTH_EFF = 0.75
# Fixed per-step host overhead (scheduling, kernel launches), seconds.
_STEP_OVERHEAD_S = 0.003


@dataclass
class StepWork:
    """Work scheduled in one engine step, as the cost model sees it.

    Attributes:
        prefill_tokens: New prompt tokens processed (across requests).
        decode_tokens: Sequences doing single-token decode (= batch size).
        attn_context_tokens: Sum over all processed tokens of the context
            tokens their attention actually reads (already window-bounded
            per layer group and weighted by the group's layer fraction).
        kv_read_bytes: KV-cache bytes read by attention this step.
        kv_write_bytes: KV-cache bytes written this step.
        images_encoded: Images pushed through the vision encoder.
        speculative_extra_tokens: Extra target-model tokens verified in a
            speculative-decoding step.
    """

    prefill_tokens: int = 0
    decode_tokens: int = 0
    attn_context_tokens: float = 0.0
    kv_read_bytes: float = 0.0
    kv_write_bytes: float = 0.0
    images_encoded: int = 0
    speculative_extra_tokens: int = 0

    @property
    def total_tokens(self) -> int:
        return self.prefill_tokens + self.decode_tokens + self.speculative_extra_tokens

    def merge(self, other: "StepWork") -> "StepWork":
        return StepWork(
            prefill_tokens=self.prefill_tokens + other.prefill_tokens,
            decode_tokens=self.decode_tokens + other.decode_tokens,
            attn_context_tokens=self.attn_context_tokens + other.attn_context_tokens,
            kv_read_bytes=self.kv_read_bytes + other.kv_read_bytes,
            kv_write_bytes=self.kv_write_bytes + other.kv_write_bytes,
            images_encoded=self.images_encoded + other.images_encoded,
            speculative_extra_tokens=(
                self.speculative_extra_tokens + other.speculative_extra_tokens
            ),
        )


class CostModel:
    """Roofline latency for engine steps of one model on one GPU.

    Args:
        model: Architecture being served.
        gpu: Platform envelope.
        kernel_slowdown: Multiplier on attention time for non-contiguous KV
            layouts (1.0 for LCM/MAX; >1 models the GCD strategy's custom
            kernels, Section 4.4).
    """

    def __init__(self, model: ModelSpec, gpu: GPU, kernel_slowdown: float = 1.0) -> None:
        if kernel_slowdown < 1.0:
            raise ValueError("kernel_slowdown cannot be below 1.0")
        self.model = model
        self.gpu = gpu
        self.kernel_slowdown = kernel_slowdown
        self._flops = gpu.flops * _COMPUTE_EFF
        self._bw = gpu.hbm_bandwidth * _BANDWIDTH_EFF
        # A step is priced per layer *class*, never per layer: attention
        # layers fold by context limit into (limit, read bytes per token,
        # count) -- KV-sharing layers read but store nothing -- and Mamba
        # layers into one state term.  All integers < 2**53, so it is exact.
        kvb = model.kv_dtype_bytes
        folded: Dict[Optional[int], List[int]] = {}
        for layer in model.layers:
            if layer.kind == MAMBA:
                continue
            limit = min(filter(None, (layer.window, layer.budget)), default=None)
            cls = folded.setdefault(limit, [0, 0])
            cls[0] += 2 * layer.kv_heads * layer.head_dim * kvb
            cls[1] += 1
        self._classes = [(limit, per_tok, n) for limit, (per_tok, n) in folded.items()]
        self._state_bytes = float(model.mamba_state_bytes())
        # Every storing layer writes each new token once.
        self._write_bytes = float(model.kv_bytes_per_token_alllayers())

    def step_time(self, work: StepWork) -> float:
        """Seconds one engine step takes."""
        if work.total_tokens == 0 and work.images_encoded == 0:
            return _STEP_OVERHEAD_S

        # Dense (linear-layer) compute: 2 * params FLOPs per token.
        linear_flops = self.model.flops_per_token() * work.total_tokens
        # Attention score/value FLOPs: ~4 * hidden per (token, context-token).
        attn_flops = 4.0 * self.model.hidden_size * work.attn_context_tokens
        encoder_flops = self.model.vision_flops_per_image() * work.images_encoded
        compute_s = (linear_flops + encoder_flops) / self._flops
        attn_compute_s = attn_flops / self._flops

        # Memory: weights stream once per step; KV reads/writes on top.
        weight_s = self.model.weight_bytes / self._bw
        kv_s = (work.kv_read_bytes + work.kv_write_bytes) / self._bw

        attn_s = max(attn_compute_s, kv_s) * self.kernel_slowdown
        return max(compute_s, weight_s) + attn_s + _STEP_OVERHEAD_S

    def encoder_time(self, num_images: int) -> float:
        """Seconds to run the vision encoder on ``num_images`` images."""
        if num_images == 0:
            return 0.0
        return self.model.vision_flops_per_image() * num_images / self._flops

    # ------------------------------------------------------------------
    # Helpers for building StepWork
    # ------------------------------------------------------------------

    def charge(self, work: StepWork, p0: int, p1: int) -> None:
        """Add the attention reads and KV writes of new tokens at positions
        ``[p0, p1)`` to ``work``; the caller counts the tokens themselves."""
        ctx, read = self.attention_read_range(p0, p1)
        work.attn_context_tokens += ctx
        work.kv_read_bytes += read
        work.kv_write_bytes += (p1 - p0) * self.write_bytes_per_token()

    def attention_read_range(self, p0: int, p1: int) -> Tuple[float, float]:
        """(context_token_sum, kv_bytes) the attention of new tokens at
        positions ``[p0, p1)`` reads.

        Each layer reads at most its window/budget of context; Mamba layers
        read their fixed state.  The context sum is layer-summed (so
        ``4 * hidden * attn_context_tokens`` in :meth:`step_time` gives the
        standard per-layer attention FLOPs, summed over layers).  Closed
        form per layer class, so a chunk costs O(#classes) to price rather
        than O(chunk * #layers).  Token at position ``t`` reads
        ``min(t, limit)`` context tokens.
        """
        if p1 <= p0:
            return 0.0, 0.0
        ctx = 0.0
        bytes_read = self._state_bytes
        for limit, per_tok, count in self._classes:
            # Compute: each new token attends to its own capped context.
            ctx += count * _sum_min_range(p0, p1, limit)
            # Memory: fused (FlashAttention-tiled) kernels stream the resident
            # KV once per pass, so traffic is context, not context x tokens.
            bytes_read += (p1 if limit is None else min(p1, limit)) * per_tok
        return ctx, bytes_read

    def write_bytes_per_token(self) -> float:
        return self._write_bytes


def _sum_min_range(p0: int, p1: int, limit) -> float:
    """``sum(min(t, limit) for t in range(p0, p1))`` in closed form."""
    if limit is None or p1 <= limit:
        return (p0 + p1 - 1) * (p1 - p0) / 2.0
    if p0 >= limit:
        return float(limit) * (p1 - p0)
    ramp = (p0 + limit - 1) * (limit - p0) / 2.0
    return ramp + float(limit) * (p1 - limit)
