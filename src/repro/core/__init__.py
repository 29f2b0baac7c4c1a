"""Jenga's core: two-level LCM allocation and customizable prefix caching.

Public entry point: :class:`~repro.core.kv_manager.JengaKVCacheManager`.
"""

from .events import ALLOCATION_STEPS, Observer
from .evictor import LRUEvictor
from .kv_manager import GroupBinding, JengaKVCacheManager
from .layer_policy import (
    CROSS_ATTENTION,
    CrossAttentionPolicy,
    DROPPED_TOKEN,
    DroppedTokenPolicy,
    FULL_ATTENTION,
    FullAttentionPolicy,
    GroupSpec,
    LayerTypePolicy,
    MAMBA,
    MambaPolicy,
    SLIDING_WINDOW,
    SlidingWindowPolicy,
    VISION_EMBEDDING,
    VisionEmbeddingPolicy,
    make_policy,
)
from .lcm_allocator import LCMAllocator, OutOfLargePagesError
from .math_utils import compatible_page_bytes, gcd_of, lcm_blowup, lcm_of
from .pages import PageState, PhysicalExtent
from .prefix_cache import CachedBlockIndex, chain_hashes, longest_common_prefix
from .protocols import KVCacheManager, KVCacheManagerBase
from .registry import (
    UnknownManagerError,
    available_managers,
    create_manager,
    register_manager,
    resolve_manager,
)
from .resizer import (
    GroupPressure,
    HysteresisPolicy,
    PoolResizer,
    ProportionalPolicy,
    RESIZE_POLICIES,
    ResizePolicy,
    make_resize_policy,
)
from .sequence import IMAGE, TEXT, SequenceSpec
from .two_level import AllocatorStats, TwoLevelAllocator

__all__ = [
    "ALLOCATION_STEPS",
    "AllocatorStats",
    "CachedBlockIndex",
    "CROSS_ATTENTION",
    "CrossAttentionPolicy",
    "DROPPED_TOKEN",
    "DroppedTokenPolicy",
    "FULL_ATTENTION",
    "FullAttentionPolicy",
    "GroupBinding",
    "GroupPressure",
    "GroupSpec",
    "HysteresisPolicy",
    "IMAGE",
    "JengaKVCacheManager",
    "KVCacheManager",
    "KVCacheManagerBase",
    "LayerTypePolicy",
    "LCMAllocator",
    "LRUEvictor",
    "MAMBA",
    "MambaPolicy",
    "Observer",
    "OutOfLargePagesError",
    "PageState",
    "PhysicalExtent",
    "PoolResizer",
    "ProportionalPolicy",
    "RESIZE_POLICIES",
    "ResizePolicy",
    "SequenceSpec",
    "SLIDING_WINDOW",
    "SlidingWindowPolicy",
    "TEXT",
    "TwoLevelAllocator",
    "UnknownManagerError",
    "VISION_EMBEDDING",
    "VisionEmbeddingPolicy",
    "available_managers",
    "chain_hashes",
    "compatible_page_bytes",
    "create_manager",
    "gcd_of",
    "lcm_blowup",
    "lcm_of",
    "longest_common_prefix",
    "make_policy",
    "make_resize_policy",
    "register_manager",
    "resolve_manager",
]
