"""Baseline memory managers the paper compares Jenga against.

All baselines satisfy the :class:`~repro.core.protocols.KVCacheManager`
protocol, so experiments swap only the manager (the paper's methodology:
"we use vLLM v0.6.3 and only change the memory management system").

:data:`SYSTEMS` names every single-model manager; :func:`make_manager`
builds one by name.
"""

from __future__ import annotations


from ..core.kv_manager import JengaKVCacheManager
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
    "SYSTEMS",
    "make_manager",
    "manual_spec_managers",
    "max_page_specs",
    "unified_group_specs",
]


def _over_kv_groups(manager_class):
    """Factory: ``manager_class`` over the model's layer-type groups."""

    def make(model: ModelSpec, kv_bytes: int, **options):
        return manager_class(model.kv_groups(), kv_bytes, **options)

    return make


#: System name -> ``factory(model, kv_bytes, enable_prefix_caching=, seed=)``.
#: vLLM, SGLang and TGI share the homogeneous PagedAttention manager; their
#: scheduler differences live in :func:`repro.engine.scheduler.profile_config`.
SYSTEMS = {
    "jenga": _over_kv_groups(JengaKVCacheManager),
    "vllm": PagedAttentionManager,
    "sglang": PagedAttentionManager,
    "tgi": PagedAttentionManager,
    "max": _over_kv_groups(MaxPageManager),
    "gcd": _over_kv_groups(GCDPageManager),
}


def make_manager(
    system: str,
    model: ModelSpec,
    kv_bytes: int,
    enable_prefix_caching: bool = True,
    seed: int = 0,
):
    """Build the KV manager of ``system``, a :data:`SYSTEMS` name.

    ``jenga`` -- the paper's system; ``vllm``/``sglang``/``tgi`` -- the
    homogeneous PagedAttention manager; ``max``/``gcd`` -- the Section 4.4
    compatibility-layer alternatives.  Any other name raises a
    :class:`KeyError` that lists the valid ones.
    """
    if system not in SYSTEMS:
        raise KeyError(f"unknown system {system!r}; choose from {', '.join(SYSTEMS)}")
    return SYSTEMS[system](
        model, kv_bytes, enable_prefix_caching=enable_prefix_caching, seed=seed
    )
