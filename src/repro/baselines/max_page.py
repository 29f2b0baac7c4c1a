"""Uniform-MAX-page baseline (``vLLM-max`` in Figure 19, MAX in §4.4).

PagedAttention requires a single page size; when layer types (or the draft
and target models of speculative decoding) need different sizes, the
uniform size must be the *maximum* -- every smaller type then wastes the
tail of each of its pages.  We model this by padding every group's
per-token bytes so its page size equals the global maximum; the padding
shows up as ``partial_fill`` waste in the stats, which is exactly the
internal fragmentation the paper attributes to this design.  Where
``tokens_per_page`` divides the maximum page (every zoo model and draft/target
pair), one page size is left, so Jenga's LCM large page is that maximum page.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict

from ..core.kv_manager import JengaKVCacheManager
from ..core.layer_policy import GroupSpec, MAMBA

__all__ = ["max_page_specs", "MaxPageManager"]


def max_page_specs(groups: Dict[str, GroupSpec]) -> Dict[str, GroupSpec]:
    """Rewrite group specs so every group's page is the maximum page size.

    Tokens per page stay; per-token bytes are padded up (memory waste).  A
    Mamba group's state is padded to the maximum page.
    """
    max_page = max(g.page_bytes for g in groups.values())
    out: Dict[str, GroupSpec] = {}
    for gid, g in groups.items():
        if g.kind == MAMBA:
            out[gid] = replace(g, per_token_bytes=0, tokens_per_page=1, state_bytes=max_page)
        else:
            per_token = -(-max_page // g.tokens_per_page)  # ceil division
            out[gid] = replace(g, per_token_bytes=per_token)
    return out


class MaxPageManager(JengaKVCacheManager):
    """Jenga's machinery forced onto a uniform maximum page size."""

    name = "vllm-max"

    def __init__(
        self,
        group_specs: Dict[str, GroupSpec],
        total_bytes: int,
        enable_prefix_caching: bool = True,
        seed: int = 0,
    ) -> None:
        super().__init__(
            max_page_specs(group_specs),
            total_bytes,
            enable_prefix_caching=enable_prefix_caching,
            seed=seed,
        )
