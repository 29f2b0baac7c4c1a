"""jengalint's rule plugins, one invariant per rule."""

from __future__ import annotations

from typing import List, Type

from ..engine import Rule
from .cross_module import CrossModuleRule
from .hot_path import HotPathScanRule
from .probes import DuckTypedProbeRule
from .protocol import ProtocolConformanceRule
from .rehash import PerTokenRehashRule
from .state import DynamicAttrRule, GuardedCounterRule, WallClockRule
from .tracing import UnguardedSpanRule

__all__ = [
    "ALL_RULES",
    "CrossModuleRule",
    "DuckTypedProbeRule",
    "DynamicAttrRule",
    "GuardedCounterRule",
    "HotPathScanRule",
    "PerTokenRehashRule",
    "ProtocolConformanceRule",
    "UnguardedSpanRule",
    "WallClockRule",
]

ALL_RULES: List[Type[Rule]] = [
    HotPathScanRule,
    UnguardedSpanRule,
    PerTokenRehashRule,
    ProtocolConformanceRule,
    DuckTypedProbeRule,
    GuardedCounterRule,
    WallClockRule,
    DynamicAttrRule,
    CrossModuleRule,
]
