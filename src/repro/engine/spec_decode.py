"""Speculative-decoding engine (Section 6.1, Figure 19).

A draft model proposes ``k`` tokens autoregressively; the target model
verifies them in one forward pass, accepting a prefix of the proposals plus
one bonus token.  Both models keep their own KV cache for every token, so
the memory manager must serve two different KV-size profiles at once:

* ``jenga``       -- one combined manager; the draft's and target's groups
  coexist in one LCM page pool and trade pages dynamically.
* ``vllm-max``    -- one uniform page sized for the *largest* group, so the
  draft's (and any sliding-window) pages carry dead padding.
* ``vllm-manual`` -- SmartSpec's static split: two homogeneous managers
  with fixed memory shares (optimal for plain Llama, wasteful for
  heterogeneous models).

The engine overrides decode planning, pricing and decode commit of
:class:`~repro.engine.engine.LLMEngine`'s one loop (FCFS admission, chunked
prefill, preemption by recomputation): a decode step advances each
sequence by ``accepted + 1`` tokens and costs ``k`` draft passes plus one
(k+1)-token target pass.
"""

from __future__ import annotations

import random
from typing import List, Optional, Set, Tuple

from ..core.kv_manager import JengaKVCacheManager
from ..core.registry import create_manager, register_manager
from ..baselines.manual_spec import manual_spec_managers
from ..baselines.max_page import MaxPageManager
from ..models.config import ModelSpec
from ..platforms.gpu import GPU
from .cost_model import CostModel, StepWork
from .engine import LLMEngine
from .request import Request, RequestState
from .scheduler import SchedulerConfig

__all__ = ["SpecDecodeEngine", "make_spec_manager"]


def _pair_groups(draft: ModelSpec, target: ModelSpec, tokens_per_page: int):
    groups = {}
    groups.update(target.kv_groups(tokens_per_page, group_prefix="target/"))
    groups.update(draft.kv_groups(tokens_per_page, group_prefix="draft/"))
    return groups


@register_manager("jenga", kind="spec")
def _make_spec_jenga(
    draft: ModelSpec,
    target: ModelSpec,
    kv_bytes: int,
    tokens_per_page: int = 16,
    enable_prefix_caching: bool = False,
    max_num_seqs: int = 256,
):
    return JengaKVCacheManager(
        _pair_groups(draft, target, tokens_per_page),
        kv_bytes,
        enable_prefix_caching=enable_prefix_caching,
    )


@register_manager("vllm-max", kind="spec")
def _make_spec_max(
    draft: ModelSpec,
    target: ModelSpec,
    kv_bytes: int,
    tokens_per_page: int = 16,
    enable_prefix_caching: bool = False,
    max_num_seqs: int = 256,
):
    return MaxPageManager(
        _pair_groups(draft, target, tokens_per_page),
        kv_bytes,
        enable_prefix_caching=enable_prefix_caching,
    )


@register_manager("vllm-manual", kind="spec")
def _make_spec_manual(
    draft: ModelSpec,
    target: ModelSpec,
    kv_bytes: int,
    tokens_per_page: int = 16,
    enable_prefix_caching: bool = False,
    max_num_seqs: int = 256,
):
    return manual_spec_managers(
        draft,
        target,
        kv_bytes,
        tokens_per_page=tokens_per_page,
        enable_prefix_caching=enable_prefix_caching,
        max_num_seqs=max_num_seqs,
    )


def make_spec_manager(
    system: str,
    draft: ModelSpec,
    target: ModelSpec,
    kv_bytes: int,
    tokens_per_page: int = 16,
    enable_prefix_caching: bool = False,
    max_num_seqs: int = 256,
):
    """KV manager serving a draft/target pair, by registered system name."""
    return create_manager(
        system,
        "spec",
        draft,
        target,
        kv_bytes,
        tokens_per_page=tokens_per_page,
        enable_prefix_caching=enable_prefix_caching,
        max_num_seqs=max_num_seqs,
    )


class SpecDecodeEngine(LLMEngine):
    """Draft-and-target serving loop on a shared GPU.

    ``self.cost`` prices the target, ``self.draft_cost`` the draft.  The
    target pass also carries the admission pass's :class:`StepWork`, as in
    :class:`LLMEngine`; with today's spec managers (no offload tier) and
    text-only targets that work is always empty.
    """

    def __init__(
        self,
        draft: ModelSpec,
        target: ModelSpec,
        gpu: GPU,
        manager,
        config: Optional[SchedulerConfig] = None,
        num_speculative_tokens: int = 4,
        acceptance_rate: float = 0.7,
        seed: int = 0,
    ) -> None:
        super().__init__(target, gpu, manager, config=config)
        self.draft = draft
        self.k = num_speculative_tokens
        self.acceptance_rate = acceptance_rate
        self._rng = random.Random(seed)
        self.draft_cost = CostModel(draft, gpu, kernel_slowdown=manager.kernel_slowdown)
        # The draft model's share of the current step.
        self._draft_work = StepWork()

    # ------------------------------------------------------------------

    def _draw_accepted(self) -> int:
        """Accepted proposal count: Bernoulli chain capped at ``k``."""
        accepted = 0
        while accepted < self.k and self._rng.random() < self.acceptance_rate:
            accepted += 1
        return accepted

    def _schedule_decodes(
        self, work: StepWork, scheduled_set: Set[str]
    ) -> Tuple[List[Tuple[Request, int]], int, int]:
        """Speculative decode iterations: each advances by its accepted
        proposals plus one bonus token and spends ``k + 1`` of the budget."""
        self._draft_work = draft_work = StepWork()
        decodes: List[Tuple[Request, int]] = []
        budget = self.config.max_num_batched_tokens
        preemptions = 0
        k = self.k
        for request in list(self.running):
            if budget <= k:
                break
            if request.state is not RequestState.RUNNING or not self._is_decode(request):
                continue
            remaining_out = request.max_output_tokens - request.num_output_tokens
            g = min(self._draw_accepted() + 1, remaining_out, k + 1)
            # Extend the sequence by the accepted tokens *before* allocating
            # so both caches grow to cover them.
            base_len = request.total_len
            for i in range(g):
                request.seq.append(request.next_generated_token() + i)
            ok, npre = self._allocate_or_preempt(request, request.total_len - 1, scheduled_set)
            preemptions += npre
            if not ok:
                request.seq.truncate(base_len)
                continue
            decodes.append((request, g))
            scheduled_set.add(request.request_id)
            budget -= k + 1
            # Draft: k sequential single-token passes.
            self.draft_cost.charge(draft_work, base_len - 1, base_len - 1 + k)
            draft_work.decode_tokens += k
            # Target: one pass verifying k proposals (+1 pending token).
            self.cost.charge(work, base_len - 1, base_len + k)
            work.speculative_extra_tokens += k + 1
        return decodes, budget, preemptions

    def _charge_prefill(self, request: Request, n: int, work: StepWork) -> None:
        """Both models prefill the prompt."""
        super()._charge_prefill(request, n, work)
        p0 = request.num_computed_tokens
        self.draft_cost.charge(self._draft_work, p0, p0 + n)
        self._draft_work.prefill_tokens += n

    def _step_time(self, work: StepWork) -> float:
        """The draft's ``k`` passes happen sequentially, then one target pass."""
        duration = self.cost.step_time(work)
        draft_work = self._draft_work
        if draft_work.total_tokens:
            k = max(1, self.k)
            per_pass = StepWork(
                decode_tokens=max(1, draft_work.decode_tokens // k),
                prefill_tokens=draft_work.prefill_tokens,
                attn_context_tokens=draft_work.attn_context_tokens / k,
                kv_read_bytes=draft_work.kv_read_bytes / k,
                kv_write_bytes=draft_work.kv_write_bytes / k,
            )
            passes = self.k if draft_work.decode_tokens else 1
            duration += passes * self.draft_cost.step_time(per_pass)
        return duration

    def _finalize_decode(self, request: Request, g: int, end: float) -> None:
        request.num_computed_tokens += g
        self.manager.commit(
            request.seq, request.num_computed_tokens, now=end, phase="decode"
        )
        request.num_output_tokens += g
        if request.first_token_time is None:
            request.first_token_time = end
        if request.num_output_tokens >= request.max_output_tokens:
            self._finish(request, end)
