"""Request lifecycle objects for the serving-engine simulator."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

from ..core.sequence import SequenceSpec, TokenTag

__all__ = ["RequestState", "Request"]


class RequestState(enum.Enum):
    WAITING = "waiting"
    RUNNING = "running"
    FINISHED = "finished"


def generated_token(request_id: str, index: int) -> int:
    """Deterministic synthetic id of a request's ``index``-th output token.

    Exposed as a module function so workload generators can reconstruct a
    previous turn's generated answer when building multi-turn prompts --
    the next turn's prompt then hashes identically to the cached blocks.
    """
    return hash((request_id, "gen", index)) & 0x7FFFFFFF


@dataclass(eq=False)  # ids are unique: ``running.remove`` compares by identity
class Request:
    """One inference request moving through the engine.

    Attributes:
        seq: The token sequence (prompt, later extended by generated
            tokens).  Image tokens lie in its image spans; see
            :class:`~repro.core.sequence.SequenceSpec`.
        prompt_len: Number of prompt tokens (global).
        max_output_tokens: Tokens to generate before finishing (the
            simulator generates exactly this many -- the paper's benchmarks
            run with ``--ignore-eos``).
        arrival_time: Simulated arrival timestamp in seconds.
        request_id: ``seq.request_id``, copied once at construction: the
            step loop reads it several times per request per step.
    """

    seq: SequenceSpec
    prompt_len: int
    max_output_tokens: int
    arrival_time: float = 0.0
    state: RequestState = RequestState.WAITING

    # Progress.
    num_computed_tokens: int = 0  # global tokens whose cache is computed
    num_output_tokens: int = 0
    encoder_done: bool = False  # vision encoder has run for this admission
    # The manager's horizon from the last commit (``KVCacheManager.commit``):
    # a decode at or below it skips both manager calls.  ``quiet_time`` is
    # when the latest such decode ended, for ``release`` to stamp.
    horizon: float = 0
    quiet_time: float = 0.0

    # Timestamps for latency metrics.
    first_scheduled_time: Optional[float] = None
    first_token_time: Optional[float] = None
    finish_time: Optional[float] = None
    num_preemptions: int = 0
    cached_prompt_tokens: int = 0  # prefix-cache hit at (latest) admission
    request_id: str = field(init=False)

    def __post_init__(self) -> None:
        self.request_id = self.seq.request_id

    def next_generated_token(self) -> int:
        """Deterministic synthetic token id for the next output token.

        Derived from the request id so different requests do not
        accidentally share generated suffixes in the prefix cache (see
        :func:`generated_token`).
        """
        return generated_token(self.seq.request_id, self.num_output_tokens)

    def reset_for_recompute(self) -> None:
        """Preemption by recomputation: drop progress, keep generated tokens.

        vLLM's recompute preemption keeps the tokens generated so far as
        part of the (new, longer) prompt and recomputes their KV on
        re-admission.
        """
        self.num_computed_tokens = 0
        self.encoder_done = False
        # The released pages' horizon and stamps are void: a re-admitted
        # request may decode at once (a hit up to its last token), and
        # its recompute chunks, past the prompt, read as decodes.
        self.horizon = 0
        self.quiet_time = 0.0
        self.num_preemptions += 1
        self.state = RequestState.WAITING

    # Construction helpers ----------------------------------------------

    @classmethod
    def text(
        cls,
        request_id: str,
        prompt_tokens: Sequence[int],
        max_output_tokens: int,
        arrival_time: float = 0.0,
    ) -> "Request":
        seq = SequenceSpec.text_only(request_id, prompt_tokens)
        return cls(
            seq=seq,
            prompt_len=len(seq.token_ids),
            max_output_tokens=max_output_tokens,
            arrival_time=arrival_time,
        )

    @classmethod
    def multimodal(
        cls,
        request_id: str,
        segments: Sequence[Tuple[TokenTag, Sequence[int]]],
        max_output_tokens: int,
        arrival_time: float = 0.0,
    ) -> "Request":
        seq = SequenceSpec.multimodal(request_id, segments)
        return cls(
            seq=seq,
            prompt_len=len(seq.token_ids),
            max_output_tokens=max_output_tokens,
            arrival_time=arrival_time,
        )
