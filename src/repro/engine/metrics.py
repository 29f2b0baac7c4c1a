"""Metrics collected by the serving-engine simulator.

Every figure in the paper's evaluation is an aggregation over these
records: Figure 13 reads request/token throughput, Figure 14 reads
TTFT/TPOT/E2EL, Figure 15 reads the per-step decode batch size, and
Figure 16 reads the per-step memory snapshots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..core.math_utils import percentile as _percentile

__all__ = [
    "StepRecord",
    "RequestMetrics",
    "EngineMetrics",
    "MemorySnapshot",
    "MetricsCollector",
]


@dataclass(frozen=True)
class MemorySnapshot:
    """Per-step memory accounting (Figure 16's stacked areas)."""

    used_by_group: Dict[str, int]
    evictable_bytes: int
    waste_bytes: int
    free_bytes: int

    @property
    def used_bytes(self) -> int:
        return sum(self.used_by_group.values())


@dataclass(frozen=True)
class StepRecord:
    """One engine step.

    ``start_time``/``duration`` are *simulated* seconds from the cost
    model.  ``phases`` is only populated when the engine runs with a
    :class:`~repro.obs.tracer.Tracer` attached: exclusive *wall-clock*
    seconds per step phase (``schedule`` / ``allocate`` / ``commit`` /
    ``release``, plus any nested spans such as ``prefix_lookup``), whose
    values sum to at most the step's wall duration.
    """

    index: int
    start_time: float
    duration: float
    decode_batch: int
    prefill_tokens: int
    num_running: int
    num_waiting: int
    num_preemptions: int
    memory: Optional[MemorySnapshot] = None
    phases: Optional[Dict[str, float]] = None


@dataclass(frozen=True)
class RequestMetrics:
    """Latency record of one finished request."""

    request_id: str
    arrival_time: float
    first_token_time: float
    finish_time: float
    prompt_len: int
    output_len: int
    cached_prompt_tokens: int
    num_preemptions: int

    @property
    def ttft(self) -> float:
        """Time to first token."""
        return self.first_token_time - self.arrival_time

    @property
    def e2el(self) -> float:
        """End-to-end latency."""
        return self.finish_time - self.arrival_time

    @property
    def tpot(self) -> float:
        """Time per output token (after the first)."""
        if self.output_len <= 1:
            return 0.0
        return (self.finish_time - self.first_token_time) / (self.output_len - 1)


class MetricsCollector:
    """One engine's run record, written by that engine.

    A plain tally object, not a bus subscriber: the engine appends each
    :class:`StepRecord` and counts each preemption where it happens, and
    the prefix-cache tallies are the manager's own lookup counters.  What
    an engine reports therefore never depends on who listens to its bus,
    and stays per-engine when several engines share one.
    """

    def __init__(self, manager: Any) -> None:
        self._manager = manager
        self.steps: List[StepRecord] = []
        self.preemptions = 0

    @property
    def prefix_hit_tokens(self) -> int:
        return self._manager.hit_tokens

    @property
    def prefix_lookup_tokens(self) -> int:
        return self._manager.lookup_tokens


@dataclass
class EngineMetrics:
    """Aggregated simulation results."""

    steps: List[StepRecord] = field(default_factory=list)
    requests: List[RequestMetrics] = field(default_factory=list)
    prefix_hit_rate: float = 0.0
    # The engine's own tallies (see MetricsCollector).
    preemptions: int = 0
    prefix_hit_tokens: int = 0
    prefix_lookup_tokens: int = 0

    @property
    def makespan(self) -> float:
        if not self.steps:
            return 0.0
        last = self.steps[-1]
        return last.start_time + last.duration

    @property
    def total_output_tokens(self) -> int:
        return sum(r.output_len for r in self.requests)

    @property
    def total_tokens(self) -> int:
        return sum(r.output_len + r.prompt_len for r in self.requests)

    def output_throughput(self) -> float:
        """Generated tokens per second over the whole run."""
        span = self.makespan
        return self.total_output_tokens / span if span else 0.0

    def token_throughput(self) -> float:
        """Prompt + generated tokens per second (the usual tput metric)."""
        span = self.makespan
        return self.total_tokens / span if span else 0.0

    def request_throughput(self) -> float:
        span = self.makespan
        return len(self.requests) / span if span else 0.0

    def mean_ttft(self) -> float:
        return _mean([r.ttft for r in self.requests])

    def mean_tpot(self) -> float:
        return _mean([r.tpot for r in self.requests if r.output_len > 1])

    def mean_e2el(self) -> float:
        return _mean([r.e2el for r in self.requests])

    def p99_ttft(self) -> float:
        return _percentile([r.ttft for r in self.requests], 0.99)

    def mean_decode_batch(self) -> float:
        """Average decode batch size over steps that decoded anything.

        This is Figure 15's headline number (e.g. 5.39 for Jenga vs. 2.63
        for vLLM on the long-document workload).
        """
        sizes = [s.decode_batch for s in self.steps if s.decode_batch > 0]
        return _mean(sizes)

    def decode_batch_timeline(self) -> List[int]:
        return [s.decode_batch for s in self.steps]

    def num_preemptions(self) -> int:
        return sum(r.num_preemptions for r in self.requests)


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0
