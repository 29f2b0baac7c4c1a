"""Baseline memory managers the paper compares Jenga against.

All baselines satisfy the :class:`~repro.core.protocols.KVCacheManager`
protocol, so experiments swap only the manager (the paper's methodology:
"we use vLLM v0.6.3 and only change the memory management system").

Each system registers a factory in :mod:`repro.core.registry` at import
time; :func:`make_manager` resolves through that registry.
"""

from __future__ import annotations


from ..core.kv_manager import JengaKVCacheManager
from ..core.registry import available_managers, create_manager, register_manager
from ..models.config import ModelSpec
from .gcd_page import GCDPageManager
from .manual_spec import DualManager, manual_spec_managers
from .max_page import MaxPageManager, max_page_specs
from .paged_attention import PagedAttentionManager, unified_group_specs

__all__ = [
    "DualManager",
    "GCDPageManager",
    "MaxPageManager",
    "PagedAttentionManager",
    "make_manager",
    "manual_spec_managers",
    "max_page_specs",
    "unified_group_specs",
]


@register_manager("jenga")
def _make_jenga(
    model: ModelSpec,
    kv_bytes: int,
    tokens_per_page: int = 16,
    enable_prefix_caching: bool = True,
    max_num_seqs: int = 256,
    seed: int = 0,
):
    return JengaKVCacheManager(
        model.kv_groups(tokens_per_page),
        kv_bytes,
        enable_prefix_caching=enable_prefix_caching,
        seed=seed,
    )


def _make_paged(
    model: ModelSpec,
    kv_bytes: int,
    tokens_per_page: int = 16,
    enable_prefix_caching: bool = True,
    max_num_seqs: int = 256,
    seed: int = 0,
):
    return PagedAttentionManager(
        model,
        kv_bytes,
        tokens_per_page=tokens_per_page,
        enable_prefix_caching=enable_prefix_caching,
        max_num_seqs=max_num_seqs,
        seed=seed,
    )


# vLLM, SGLang, and TGI share the homogeneous PagedAttention manager; their
# scheduler differences live in :func:`repro.engine.scheduler.profile_config`.
for _name in ("vllm", "sglang", "tgi"):
    register_manager(_name)(_make_paged)


@register_manager("max")
def _make_max(
    model: ModelSpec,
    kv_bytes: int,
    tokens_per_page: int = 16,
    enable_prefix_caching: bool = True,
    max_num_seqs: int = 256,
    seed: int = 0,
):
    return MaxPageManager(
        model.kv_groups(tokens_per_page),
        kv_bytes,
        enable_prefix_caching=enable_prefix_caching,
        seed=seed,
    )


@register_manager("gcd")
def _make_gcd(
    model: ModelSpec,
    kv_bytes: int,
    tokens_per_page: int = 16,
    enable_prefix_caching: bool = True,
    max_num_seqs: int = 256,
    seed: int = 0,
):
    return GCDPageManager(
        model.kv_groups(tokens_per_page),
        kv_bytes,
        enable_prefix_caching=enable_prefix_caching,
        seed=seed,
    )


SYSTEMS = tuple(available_managers("model"))


def make_manager(
    system: str,
    model: ModelSpec,
    kv_bytes: int,
    tokens_per_page: int = 16,
    enable_prefix_caching: bool = True,
    max_num_seqs: int = 256,
    seed: int = 0,
):
    """Build a KV manager by registered system name.

    ``jenga`` -- the paper's system; ``vllm``/``sglang``/``tgi`` -- the
    homogeneous PagedAttention manager; ``max``/``gcd`` -- the Section 4.4
    compatibility-layer alternatives.  Raises
    :class:`~repro.core.registry.UnknownManagerError` for anything else.
    """
    return create_manager(
        system,
        "model",
        model,
        kv_bytes,
        tokens_per_page=tokens_per_page,
        enable_prefix_caching=enable_prefix_caching,
        max_num_seqs=max_num_seqs,
        seed=seed,
    )
