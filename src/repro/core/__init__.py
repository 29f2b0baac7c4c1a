"""Jenga's core: two-level LCM allocation and customizable prefix caching.

Public entry point: :class:`~repro.core.kv_manager.JengaKVCacheManager`.
"""

from .events import Observer
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
from .math_utils import lcm_blowup, lcm_of
from .pages import PageState, PhysicalExtent
from .prefix_cache import CachedBlockIndex, chain_hashes
from .protocols import KVCacheManager
from .sequence import IMAGE, TEXT, SequenceSpec
from .two_level import AllocatorStats, TwoLevelAllocator

__all__ = [
    "AllocatorStats",
    "CachedBlockIndex",
    "CROSS_ATTENTION",
    "CrossAttentionPolicy",
    "DROPPED_TOKEN",
    "DroppedTokenPolicy",
    "FULL_ATTENTION",
    "FullAttentionPolicy",
    "GroupBinding",
    "GroupSpec",
    "IMAGE",
    "JengaKVCacheManager",
    "KVCacheManager",
    "LayerTypePolicy",
    "LCMAllocator",
    "LRUEvictor",
    "MAMBA",
    "MambaPolicy",
    "Observer",
    "OutOfLargePagesError",
    "PageState",
    "PhysicalExtent",
    "SequenceSpec",
    "SLIDING_WINDOW",
    "SlidingWindowPolicy",
    "TEXT",
    "TwoLevelAllocator",
    "VISION_EMBEDDING",
    "VisionEmbeddingPolicy",
    "chain_hashes",
    "lcm_blowup",
    "lcm_of",
    "make_policy",
]
