"""Scheduling configuration and queue policy.

The simulator's scheduler mirrors vLLM v0.6's continuous batching with
chunked prefill: a per-step token budget is spent first on single-token
decodes of running requests, then on (chunks of) prompt prefills, then on
admitting waiting requests.  When allocation fails mid-step, the
lowest-priority running request is preempted by recomputation.

The paper's Figure 15 compares the decode batch size against SGLang and
TGI; all three engines use PagedAttention-style memory management, and
their residual differences are scheduling defaults.  The ``profile``
presets capture those: SGLang's more aggressive token budget, and TGI's
lack of ``--ignore-eos`` (its requests generate fewer tokens, the paper's
explanation for TGI finishing early).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

from ..core.events import EventBus, RequestQueued
from .request import Request

__all__ = ["AdmissionGate", "SchedulerConfig", "PROFILES", "profile_config"]


@dataclass(frozen=True)
class SchedulerConfig:
    """Knobs of the continuous-batching scheduler.

    Attributes:
        max_num_seqs: Maximum concurrently running requests.
        max_num_batched_tokens: Per-step token budget (chunked prefill
            splits prompts into chunks of at most this size).
        enable_chunked_prefill: Split long prompts across steps.  When
            disabled, a prompt is only scheduled when the whole remainder
            fits the budget.
        watermark_pages: Free-page margin required at admission, as a
            buffer against immediate preemption (vLLM's watermark).
        output_len_factor: Multiplier on requested output lengths (TGI's
            missing ``--ignore-eos`` support makes it generate fewer
            tokens; the paper notes this is why TGI finishes earlier).
        record_memory: Capture a memory snapshot on every step (needed by
            the Figure 16 benchmark; off by default for speed).
    """

    max_num_seqs: int = 256
    max_num_batched_tokens: int = 8192
    enable_chunked_prefill: bool = True
    watermark_pages: int = 8
    output_len_factor: float = 1.0
    record_memory: bool = False

    def with_(self, **kwargs) -> "SchedulerConfig":
        return replace(self, **kwargs)


PROFILES = {
    # vLLM v0.6.3 defaults.
    "vllm": SchedulerConfig(),
    # SGLang: larger default token budget, otherwise equivalent here.
    "sglang": SchedulerConfig(max_num_batched_tokens=16384),
    # TGI: no --ignore-eos, so requests stop early (paper Section 7.3).
    "tgi": SchedulerConfig(max_num_batched_tokens=8192, output_len_factor=0.6),
}


def profile_config(name: str, **overrides) -> SchedulerConfig:
    """Scheduler preset by engine name (see module docstring)."""
    base = PROFILES.get(name)
    if base is None:
        # Error path over the 3-entry profile table, not pool state.
        names = sorted(PROFILES)  # jengalint: disable=hot-path-scan
        raise KeyError(f"unknown scheduler profile {name!r}; have {names}")
    return base.with_(**overrides) if overrides else base


class WaitingQueue:
    """FCFS waiting queue with arrival-time gating.

    Backed by a binary heap keyed on ``(arrival_time, freshness,
    sequence)`` so ``push`` and ``pop_ready`` are O(log n) -- the previous
    sort-per-push plus ``list.pop(0)`` cost O(n log n) per push and O(n)
    per pop, which dominated engine steps at deep queues.

    Preempted requests re-enter at the *front*: they carry the oldest
    arrival times, and on an arrival-time tie they outrank fresh arrivals
    (the ``freshness`` key component), so a preempted request never loses
    its scheduling priority to a newcomer that happened to arrive at the
    same instant.  Among equally-placed requests, push order is preserved
    by the monotone sequence number.

    When built with an event bus, every push publishes a
    :class:`~repro.core.events.RequestQueued` record (both fresh arrivals
    and preempted requests re-entering the queue).  When built with an
    enabled :class:`~repro.obs.tracer.Tracer`, every push also drops a
    ``queue/push`` instant (with the post-push depth) onto the trace so
    queue growth is visible on the Perfetto timeline; both hooks follow
    the guarded fast-path idiom, so a queue without consumers pays only a
    predicate per push.
    """

    def __init__(self, events: Optional[EventBus] = None, tracer=None) -> None:
        self._heap: List[Tuple[float, int, int, Request]] = []
        self._seq = itertools.count()
        self.events = events
        self.tracer = tracer

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def push(self, request: Request) -> None:
        freshness = 0 if request.num_preemptions > 0 else 1
        heapq.heappush(
            self._heap,
            (request.arrival_time, freshness, next(self._seq), request),
        )
        if self.events is not None and self.events.has_subscribers(RequestQueued):
            self.events.emit(RequestQueued(request.request_id, request.arrival_time))
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.instant(
                "queue/push", cat="scheduler", args={"depth": len(self._heap)}
            )

    def peek_ready(self, now: float) -> Optional[Request]:
        if self._heap and self._heap[0][0] <= now:
            return self._heap[0][3]
        return None

    def pop_ready(self, now: float) -> Optional[Request]:
        request = self.peek_ready(now)
        if request is not None:
            heapq.heappop(self._heap)
        return request

    def next_arrival(self) -> Optional[float]:
        return self._heap[0][0] if self._heap else None


class AdmissionGate:
    """Memo of the last *blocked* admission probe at the queue head.

    Admission is FCFS, so while the head of the waiting queue stays
    blocked, nothing behind it is probed either -- and the whole queue
    used to be re-probed (``begin_request`` + ``can_admit`` + ``release``,
    including a full prefix-cache lookup) on *every* step.  The verdict,
    however, is a pure function of the pool's page counts and the
    sequence's length: the manager's ``admission_version()`` is the
    allocator's monotone counter over exactly the mutations that change
    those counts, so an unchanged ``(request_id, seq_len, version)`` triple
    means an unchanged verdict and the probe can be skipped outright.

    The recorded version is taken *after* the failed probe's release, so
    the probe's own acquire/release churn (net-zero on pool counts, but
    each transition moves the version) does not immediately stale the
    memo.  A version of ``-1`` (manager without a version counter)
    disables the gate.  Entries never need explicit expiry: versions are
    monotone, so a stale triple simply never matches again.
    """

    def __init__(self) -> None:
        self._request_id: Optional[str] = None
        self._seq_len = -1
        self._version = -1

    def note_blocked(self, request_id: str, seq_len: int, version: int) -> None:
        """Record a failed probe of ``request_id`` at pool ``version``."""
        if version < 0:
            self.clear()
            return
        self._request_id = request_id
        self._seq_len = seq_len
        self._version = version

    def should_skip(self, request_id: str, seq_len: int, version: int) -> bool:
        """Whether re-probing this head request is provably pointless."""
        return (
            version >= 0
            and version == self._version
            and request_id == self._request_id
            and seq_len == self._seq_len
        )

    def clear(self) -> None:
        self._request_id = None
        self._seq_len = -1
        self._version = -1
