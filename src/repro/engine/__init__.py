"""Step-level LLM serving-engine simulator (the evaluation substrate)."""

from .cost_model import CostModel, StepWork
from .engine import LLMEngine
from .metrics import (
    EngineMetrics,
    MemorySnapshot,
    MetricsCollector,
    RequestMetrics,
    StepRecord,
)
from .request import Request, RequestState
from .scheduler import PROFILES, SchedulerConfig, WaitingQueue, profile_config
from .spec_decode import SpecDecodeEngine, make_spec_manager

__all__ = [
    "CostModel",
    "EngineMetrics",
    "LLMEngine",
    "MemorySnapshot",
    "MetricsCollector",
    "PROFILES",
    "Request",
    "RequestMetrics",
    "RequestState",
    "SchedulerConfig",
    "SpecDecodeEngine",
    "StepRecord",
    "StepWork",
    "WaitingQueue",
    "make_spec_manager",
    "profile_config",
]
