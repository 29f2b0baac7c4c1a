"""The serving-engine simulator: continuous batching over a KV manager.

:class:`LLMEngine` reproduces the control loop shared by vLLM/SGLang/TGI
(Section 7.1 baselines): admit requests FCFS, spend a per-step token budget
on decodes then prefill chunks, preempt by recomputation when the memory
manager cannot allocate, and advance a simulated clock by the analytic cost
model's step time.  The *only* component swapped between "vLLM" and
"Jenga" runs is the memory manager, mirroring the paper's methodology
("we use vLLM v0.6.3 and only change the memory management system").
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..core.events import (
    AdmissionBlocked,
    EventBus,
    RequestAdmitted,
    RequestFailed,
    RequestFinished,
    RequestPreempted,
    StepCompleted,
)
from ..engine.cost_model import CostModel, StepWork
from ..models.config import ModelSpec
from ..obs.tracer import NULL_TRACER, Tracer
from ..platforms.gpu import GPU
from .metrics import (
    EngineMetrics,
    MemorySnapshot,
    MetricsCollector,
    RequestMetrics,
    StepRecord,
)
from .request import Request, RequestState
from .scheduler import AdmissionGate, SchedulerConfig, WaitingQueue

__all__ = ["LLMEngine"]


class LLMEngine:
    """Step-level simulator of one model served on one GPU.

    Args:
        model: Architecture being served.
        gpu: Platform envelope (drives the cost model).
        manager: KV-cache manager under test -- any implementation of the
            :class:`~repro.core.protocols.KVCacheManager` protocol
            (:class:`~repro.core.kv_manager.JengaKVCacheManager` or a
            baseline from :mod:`repro.baselines`).
        config: Scheduler knobs.
        cost_model: Override the default roofline cost model (tests use a
            unit-cost model for determinism).
        events: Event bus the whole stack publishes to; the engine rebinds
            the manager onto it.  Observation only -- the engine's own
            results (:attr:`steps`, :meth:`metrics`) never pass through
            it.  The default is capture-free (``EventBus(capacity=0)``)
            with no subscriber, so no event of any type is constructed.
            Pass a bus explicitly to share it across components or to get
            ring capture (``EventBus()``) for after-the-fact inspection.
        tracer: Span tracer for wall-clock step profiling.  Defaults to
            the inert :data:`~repro.obs.tracer.NULL_TRACER`; pass an
            enabled :class:`~repro.obs.tracer.Tracer` to split each step
            into schedule / allocate / commit / release phase spans
            (recorded on :class:`StepRecord.phases`) and to export a
            Chrome/Perfetto trace via :mod:`repro.obs.export`.
    """

    def __init__(
        self,
        model: ModelSpec,
        gpu: GPU,
        manager,
        config: Optional[SchedulerConfig] = None,
        cost_model: Optional[CostModel] = None,
        events: Optional[EventBus] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.model = model
        self.gpu = gpu
        self.manager = manager
        self.config = config or SchedulerConfig()
        self.cost = cost_model or CostModel(
            model, gpu, kernel_slowdown=manager.kernel_slowdown
        )
        self.events = events if events is not None else EventBus(capacity=0)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        manager.bind_events(self.events)
        manager.bind_tracer(self.tracer)
        self.collector = MetricsCollector(manager)
        self.clock = 0.0
        self.waiting = WaitingQueue(events=self.events, tracer=self.tracer)
        self.running: List[Request] = []
        self.finished: List[RequestMetrics] = []
        self.failed: List[Request] = []
        self._step_index = 0
        # Back-pressure: after a step that preempted, hold off admitting
        # new requests for a cooldown window (vLLM's scheduler likewise
        # stops feeding the waiting queue while preemption is happening) --
        # otherwise admission and preemption ping-pong and the engine
        # endlessly re-prefills long prompts.
        self._admission_cooldown = 0
        # Skip re-probing a blocked queue head until pool state changes
        # (keyed on the manager's monotone admission_version).
        self._admission_gate = AdmissionGate()

    @property
    def steps(self) -> List[StepRecord]:
        """Per-step records, appended by :meth:`step`."""
        return self.collector.steps

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def add_request(self, request: Request) -> None:
        if self.config.output_len_factor != 1.0:
            request.max_output_tokens = max(
                1, round(request.max_output_tokens * self.config.output_len_factor)
            )
        self.waiting.push(request)

    def add_requests(self, requests: Sequence[Request]) -> None:
        for request in requests:
            self.add_request(request)

    def run(self, max_steps: int = 1_000_000) -> EngineMetrics:
        """Run until all requests finish (or fail); return the metrics."""
        while (self.waiting or self.running) and self._step_index < max_steps:
            if self.step() is None:
                break
        return self.metrics()

    def close(self) -> None:
        """End of run.  The engine subscribes to nothing, so there is
        nothing to detach; callers that end every run with ``close()``
        (replicas, harnesses) keep working."""

    def metrics(self) -> EngineMetrics:
        return EngineMetrics(
            steps=list(self.steps),
            requests=list(self.finished),
            prefix_hit_rate=self.manager.prefix_hit_rate,
            preemptions=self.collector.preemptions,
            prefix_hit_tokens=self.collector.prefix_hit_tokens,
            prefix_lookup_tokens=self.collector.prefix_lookup_tokens,
        )

    def ready_time(self) -> Optional[float]:
        """Simulated time at which this engine can next do work: its clock
        while requests run, the next queued arrival (never before the
        clock) while only waiting, ``None`` when idle."""
        if self.running:
            return self.clock
        next_arrival = self.waiting.next_arrival()
        if next_arrival is None:
            return None
        return max(self.clock, next_arrival)

    # ------------------------------------------------------------------
    # One engine step
    # ------------------------------------------------------------------

    def step(self) -> Optional[StepRecord]:
        """Execute one engine step; returns ``None`` when fully idle.

        This is the only step loop.  It owns admission, the prefill phase,
        the tracer spans, the commit order (decodes, then prefills), the
        :class:`StepRecord` and the :class:`StepCompleted` emission, and
        calls four seams a subclass may override:
        :meth:`_schedule_decodes` (the whole decode phase),
        :meth:`_charge_prefill` (one chunk's work), :meth:`_step_time`
        (the step's work in seconds) and :meth:`_finalize_decode` (one
        decode's commit).  :class:`~repro.engine.spec_decode.SpecDecodeEngine`
        overrides all four.
        """
        tracer = self.tracer
        tracing = tracer.enabled
        if tracing:
            tracer.step_begin(self._step_index)
            tracer.begin_span("schedule")
        work = self._admit_or_jump()
        if work is None:
            if tracing:
                tracer.end_span()
                tracer.step_end()
            return None
        now = self.clock

        scheduled_set: Set[str] = set()
        decodes, budget, step_preemptions = self._schedule_decodes(work, scheduled_set)
        prefills: List[Tuple[Request, int]] = []
        prefill_tokens = 0

        # Phase 2: prefill chunks.
        for request in list(self.running):
            if budget <= 0:
                break
            if request.state is not RequestState.RUNNING:
                continue
            if self._is_decode(request) or request.request_id in scheduled_set:
                continue
            remaining = request.total_len - request.num_computed_tokens
            if remaining <= 0:
                continue
            n = min(budget, remaining)
            if not self.config.enable_chunked_prefill and n < remaining:
                continue
            ok, npre = self._allocate_or_preempt(
                request, request.num_computed_tokens + n, scheduled_set
            )
            step_preemptions += npre
            if not ok:
                continue
            prefills.append((request, n))
            scheduled_set.add(request.request_id)
            budget -= n
            prefill_tokens += n
            self._charge_prefill(request, n, work)
            self._charge_reencode(request, work)

        if tracing:
            tracer.end_span()  # schedule
        duration = self._step_time(work)
        end = now + duration
        self.clock = end

        if tracing:
            tracer.begin_span("commit")
        for request, n in decodes:
            self._finalize_decode(request, n, end)
        for request, n in prefills:
            self._finalize(request, n, end)
        phases: Optional[Dict[str, float]] = None
        if tracing:
            tracer.end_span()  # commit
            phases = tracer.step_end()

        record = StepRecord(
            index=self._step_index,
            start_time=now,
            duration=duration,
            decode_batch=len(decodes),
            prefill_tokens=prefill_tokens,
            num_running=len(self.running),
            num_waiting=len(self.waiting),
            num_preemptions=step_preemptions,
            memory=self._memory_snapshot() if self.config.record_memory else None,
            phases=phases,
        )
        self.collector.steps.append(record)
        self._step_index += 1
        if step_preemptions:
            self._admission_cooldown = self._PREEMPTION_COOLDOWN_STEPS
        elif self._admission_cooldown:
            self._admission_cooldown -= 1
        if tracing:
            # Perfetto counter tracks alongside the phase spans.
            tracer.counter("engine/running", record.num_running)
            tracer.counter("engine/waiting", record.num_waiting)
        if self.events.has_subscribers(StepCompleted):
            self.events.emit(StepCompleted(record.index, end, step_preemptions, record))
        return record

    # ------------------------------------------------------------------
    # Step seams
    # ------------------------------------------------------------------

    def _schedule_decodes(
        self, work: StepWork, scheduled_set: Set[str]
    ) -> Tuple[List[Tuple[Request, int]], int, int]:
        """Phase 1: one token for every running decode (highest priority,
        vLLM v0.6), charged to ``work``.  Returns ``(decodes, remaining
        token budget, preemptions)``; each decode is ``(request, tokens)``.
        """
        decodes: List[Tuple[Request, int]] = []
        budget = self.config.max_num_batched_tokens
        preemptions = 0
        cost = self.cost
        for request in list(self.running):
            if budget <= 0:
                break
            if request.state is not RequestState.RUNNING or not self._is_decode(request):
                # May have been preempted as an eviction victim earlier in
                # this same loop (we iterate a snapshot of running).
                continue
            length = request.total_len
            if self.manager.needs_allocation(request.seq, length):
                ok, npre = self._allocate_or_preempt(request, length, scheduled_set)
                preemptions += npre
                if not ok:
                    continue
            decodes.append((request, 1))
            scheduled_set.add(request.request_id)
            budget -= 1
            cost.charge(work, length - 1, length)
        work.decode_tokens += len(decodes)
        return decodes, budget, preemptions

    def _charge_prefill(self, request: Request, n: int, work: StepWork) -> None:
        """Charge the next ``n`` prompt tokens of ``request`` to ``work``."""
        p0 = request.num_computed_tokens
        self.cost.charge(work, p0, p0 + n)
        work.prefill_tokens += n

    def _step_time(self, work: StepWork) -> float:
        return self.cost.step_time(work)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _admit_or_jump(self) -> Optional[StepWork]:
        """Admit at the current clock; while nothing runs, jump to the next
        arrival and admit again.  Returns the admission pass's
        :class:`StepWork`, or ``None`` when the engine is idle.

        The jump repeats for as long as each pass only fails requests
        permanently, so a request that can never fit does not strand the
        arrivals behind it.  A pass that fails nothing and still runs
        nothing is blocked on a co-tenant (shared pool): report idle and
        let the multiplexer run the tenant holding the memory.
        """
        work = StepWork()
        self._admit(self.clock, work)
        while not self.running:
            next_arrival = self.waiting.next_arrival()
            if next_arrival is None:
                return None
            failed_before = len(self.failed)
            self.clock = max(self.clock, next_arrival)
            work = StepWork()
            self._admit(self.clock, work)
            if not self.running and len(self.failed) == failed_before:
                return None
        return work

    @staticmethod
    def _is_decode(request: Request) -> bool:
        return (
            request.num_output_tokens > 0
            and request.num_computed_tokens == request.total_len - 1
        )

    _PREEMPTION_COOLDOWN_STEPS = 8

    def _admit(self, now: float, work: StepWork) -> None:
        if self._admission_cooldown > 0 and self.running:
            return
        tracer = self.tracer
        if tracer.enabled:
            # schedule/admission child span: the probe cost (including the
            # nested prefix_lookup) stays attributable in engine.phases.
            tracer.begin_span("admission")
            try:
                self._admit_loop(now, work)
            finally:
                tracer.end_span()
        else:
            self._admit_loop(now, work)

    def _admit_loop(self, now: float, work: StepWork) -> None:
        """Probe-and-admit the waiting queue head until blocked or full."""
        while len(self.running) < self.config.max_num_seqs:
            request = self.waiting.peek_ready(now)
            if request is None:
                break
            seq = request.seq
            if self.running and self._admission_gate.should_skip(
                seq.request_id, len(seq), self.manager.admission_version()
            ):
                # Same blocked head, same sequence length, same pool
                # version as at the last failed probe: the verdict cannot
                # have changed, so skip the whole begin/can_admit/release
                # cycle.  (With nothing running we always probe, so the
                # permanent-failure path below still triggers.)
                break
            hit = self.manager.begin_request(seq)
            if not self.manager.can_admit(
                seq, self.config.watermark_pages, self.config.max_num_batched_tokens
            ):
                if self._refuse(request, now):
                    continue
                # Version is read *after* the release so the probe's own
                # (count-net-zero) acquire/release moves are absorbed.
                self._admission_gate.note_blocked(
                    seq.request_id, len(seq), self.manager.admission_version()
                )
                break
            if self.model.vision is not None and seq.image_spans and not request.encoder_done:
                if self.manager.has_vision_cache and not self.manager.allocate_vision(seq):
                    if self._refuse(request, now):
                        continue
                    break
                # The encoder runs once at admission.  Without an embedding
                # cache it will run *again* on every prefill chunk (see
                # _charge_reencode), which is Figure 18's baseline.
                work.images_encoded += len(seq.image_spans)
                request.encoder_done = True
            self.waiting.pop_ready(now)
            # Blocks served from the host offload tier transfer over PCIe
            # this step instead of being recomputed.
            work.offload_read_bytes += self.manager.take_onload_bytes(seq.request_id)
            request.num_computed_tokens = hit
            if request.first_scheduled_time is None:
                request.first_scheduled_time = now
                request.cached_prompt_tokens = hit
            request.state = RequestState.RUNNING
            self.running.append(request)
            if self.events.has_subscribers(RequestAdmitted):
                self.events.emit(RequestAdmitted(request.request_id, now, cached_tokens=hit))
            # Keep running sorted by arrival so scheduling priority (and
            # victim choice: latest arrival first) is stable across
            # preempt/readmit cycles; otherwise a readmitted early request
            # lands at the back and is immediately re-victimized (thrash).
            self.running.sort(key=lambda r: (r.arrival_time, r.request_id))

    def _refuse(self, request: Request, now: float) -> bool:
        """Undo the queue head's failed admission probe.

        Returns ``True`` when the request failed permanently and left the
        queue (keep admitting), ``False`` when it is merely blocked.
        """
        self.manager.release(request.seq, cacheable=True)
        if not self.running and self.manager.foreign_used_bytes() == 0:
            # Even an empty GPU cannot host this request: permanent
            # failure (the paper's Ministral-on-L4 vLLM case).  On a
            # shared pool "empty" must mean the *pool*, not this engine:
            # co-tenant USED bytes explain the refusal, so the request
            # blocks and retries once they drain.
            self.waiting.pop_ready(now)
            request.state = RequestState.FINISHED
            self.failed.append(request)
            if self.events.has_subscribers(RequestFailed):
                self.events.emit(RequestFailed(request.request_id, now))
            return True
        if self.events.has_subscribers(AdmissionBlocked):
            self.events.emit(AdmissionBlocked(
                request.request_id, now,
                queue_depth=len(self.waiting),
                num_running=len(self.running),
            ))
        return False

    def _charge_reencode(self, request: Request, work: StepWork) -> None:
        """Vision-encoder rerun cost for engines without an embedding cache."""
        if self.model.vision is None or not request.seq.image_spans:
            return
        if self.manager.has_vision_cache:
            return
        if not self.model.vision.cache_embeddings:
            # mllama-style: encoder output feeds cross-attention KV at the
            # first chunk; no per-chunk rerun for any engine.
            return
        if request.num_computed_tokens < request.prompt_len:
            work.images_encoded += len(request.seq.image_spans)

    def _allocate_or_preempt(
        self, request: Request, target: int, scheduled_set: Set[str]
    ) -> Tuple[bool, int]:
        """Allocate pages for ``request`` up to ``target`` global tokens.

        On failure, preempt the lowest-priority unscheduled running request
        and retry; as a last resort preempt ``request`` itself.  Returns
        ``(success, num_preemptions)``.
        """
        tracer = self.tracer
        tracing = tracer.enabled
        if tracing:
            tracer.begin_span("allocate")
        preemptions = 0
        while True:
            if self.manager.allocate_up_to(request.seq, target):
                if tracing:
                    tracer.end_span()
                return True, preemptions
            victim = self._pick_victim(exclude=scheduled_set, not_this=request)
            if victim is None:
                if len(self.running) == 1 and self.running[0] is request:
                    # Alone on the GPU and still failing: the request can
                    # never fit (the paper's Ministral-on-L4 vLLM failure).
                    self._fail(request)
                else:
                    self._preempt(request, reason="self")
                preemptions += 1
                if tracing:
                    tracer.end_span()
                return False, preemptions
            self._preempt(victim)
            preemptions += 1

    def _pick_victim(self, exclude: Set[str], not_this: Request) -> Optional[Request]:
        for candidate in reversed(self.running):
            if candidate is not not_this and candidate.request_id not in exclude:
                return candidate
        return None

    def _preempt(self, victim: Request, reason: str = "victim") -> None:
        tracer = self.tracer
        tracing = tracer.enabled
        if tracing:
            tracer.begin_span("release", args={"request": victim.request_id})
        self.manager.release(victim.seq, cacheable=True)
        victim.reset_for_recompute()
        self.running.remove(victim)
        if tracing:
            tracer.end_span()
        self.collector.preemptions += 1
        if self.events.has_subscribers(RequestPreempted):
            self.events.emit(RequestPreempted(victim.request_id, self.clock, reason=reason))
        self.waiting.push(victim)

    def _fail(self, request: Request) -> None:
        tracer = self.tracer
        tracing = tracer.enabled
        if tracing:
            tracer.begin_span("release", args={"request": request.request_id})
        self.manager.release(request.seq, cacheable=False)
        request.state = RequestState.FINISHED
        if request in self.running:
            self.running.remove(request)
        self.failed.append(request)
        if tracing:
            tracer.end_span()
        if self.events.has_subscribers(RequestFailed):
            self.events.emit(RequestFailed(request.request_id, self.clock))

    def _finalize(self, request: Request, n: int, end: float) -> None:
        request.num_computed_tokens += n
        seq = request.seq
        phase = "prefill" if request.num_computed_tokens <= request.prompt_len else "decode"
        self.manager.commit(seq, request.num_computed_tokens, now=end, phase=phase)
        if (
            self.model.vision is not None
            and seq.image_spans
            and self.manager.has_vision_cache
        ):
            self.manager.consume_vision(seq, request.num_computed_tokens)
        if request.num_computed_tokens < request.total_len:
            return
        # A token was generated this step.
        if request.first_token_time is None:
            request.first_token_time = end
        token_id = request.next_generated_token()
        request.num_output_tokens += 1
        if request.num_output_tokens >= request.max_output_tokens:
            self._finish(request, end)
        else:
            seq.append(token_id)

    #: Commit of one decode scheduled by :meth:`_schedule_decodes`.
    _finalize_decode = _finalize

    def _finish(self, request: Request, end: float) -> None:
        request.state = RequestState.FINISHED
        request.finish_time = end
        tracer = self.tracer
        tracing = tracer.enabled
        if tracing:
            tracer.begin_span("release", args={"request": request.request_id})
        self.manager.release(request.seq, cacheable=True)
        self.running.remove(request)
        if tracing:
            tracer.end_span()
        if self.events.has_subscribers(RequestFinished):
            self.events.emit(RequestFinished(request.request_id, end))
        self.finished.append(
            RequestMetrics(
                request_id=request.request_id,
                arrival_time=request.arrival_time,
                first_token_time=request.first_token_time or end,
                finish_time=end,
                prompt_len=request.prompt_len,
                output_len=request.num_output_tokens,
                cached_prompt_tokens=request.cached_prompt_tokens,
                num_preemptions=request.num_preemptions,
            )
        )

    def _memory_snapshot(self) -> MemorySnapshot:
        stats = self.manager.stats()
        # On a shared allocator stats() covers the whole pool; charge this
        # engine only for its manager's own groups (mirroring
        # MultiModelEngine.memory_report) so Figure-16 snapshots don't
        # double-count co-tenants.  The scalar fields stay pool-wide: free
        # and evictable capacity genuinely is shared headroom.
        owned = self.manager.owned_groups()
        used = {
            g: b for g, b in stats.used_bytes_by_group.items()
            if not owned or g in owned
        }
        return MemorySnapshot(
            used_by_group=used,
            evictable_bytes=stats.evictable_bytes,
            waste_bytes=stats.waste_bytes,
            free_bytes=stats.free_bytes,
        )
