"""The formal KV-cache-manager protocol: the engine <-> memory seam.

Historically the engine talked to its memory manager through an implicit
duck-typed interface (attribute probes for ``kernel_slowdown`` and friends
with hard-coded fallbacks).  This module names every method and property
the engine is allowed to touch.

:class:`KVCacheManager` is a :func:`typing.runtime_checkable`
:class:`~typing.Protocol`; ``isinstance(obj, KVCacheManager)`` verifies an
implementation structurally (the parametrized conformance test in
``tests/test_protocol.py`` runs this over every manager in
:data:`repro.baselines.SYSTEMS` and :data:`repro.engine.spec_decode.SPEC_SYSTEMS`).
A new backend implements every member below and adds its factory to one
of those dicts; there is no base class to derive from.

The request lifecycle the protocol encodes (see
:class:`~repro.core.kv_manager.JengaKVCacheManager` for the reference
implementation): ``begin_request`` -> repeated ``allocate_up_to`` +
``commit`` -> ``release``; ``can_admit`` is the scheduler's capacity probe,
``needs_allocation`` its skip-the-call probe, ``commit``'s horizon the
point up to which a decode needs neither call, and ``stats`` the memory
snapshot.
"""

from __future__ import annotations

from typing import Optional, Protocol, runtime_checkable

from .events import Observer
from .sequence import SequenceSpec
from .two_level import AllocatorStats

__all__ = ["KVCacheManager"]


@runtime_checkable
class KVCacheManager(Protocol):
    """Everything the engine and scheduler may touch on a memory manager."""

    name: str
    observer: Optional[Observer]
    #: Prompt tokens served from / looked up in the prefix cache so far
    #: (the engine's run record reports them).
    hit_tokens: int
    lookup_tokens: int

    # -- request lifecycle ---------------------------------------------

    def begin_request(self, seq: SequenceSpec) -> int:
        """Register ``seq``; return the prefix-cache hit in global tokens."""
        ...

    def allocate_up_to(self, seq: SequenceSpec, target_global: int) -> bool:
        """Back the first ``target_global`` tokens with pages.

        ``False`` means they do not fit and nothing was allocated: the
        engine preempts and retries.
        """
        ...

    def needs_allocation(self, seq: SequenceSpec, target_global: int) -> bool:
        """Whether growing ``seq`` to ``target_global`` needs new pages.

        A page-table inspection (no allocator mutation): ``False`` means
        ``allocate_up_to(seq, target_global)`` would be a no-op, so the
        engine may skip the call.  ``True`` is always a safe answer.  The
        engine asks only for a decode above the horizon :meth:`commit`
        returned; below it the answer is ``False`` without asking.
        """
        ...

    def allocate_vision(self, seq: SequenceSpec) -> bool:
        """Allocate vision-embedding pages for all of ``seq``'s images."""
        ...

    def commit(
        self, seq: SequenceSpec, computed_global: int, now: float, phase: str = "decode"
    ) -> float:
        """Record that the first ``computed_global`` tokens are computed.

        Returns the request's horizon in global tokens: a decode that
        leaves the sequence at or below it needs no page and would commit
        nothing, so the engine calls neither :meth:`needs_allocation` nor
        ``commit`` for it.  0 is always a safe answer; a backend must
        return it while the next decode has to reach ``allocate_up_to``.
        """
        ...

    def consume_vision(self, seq: SequenceSpec, upto_global: int) -> None:
        """Free vision-embedding pages prefill has consumed."""
        ...

    def release(
        self, seq: SequenceSpec, cacheable: bool = True, quiet_time: float = 0.0
    ) -> None:
        """Drop every reference ``seq`` holds (finish or preemption).

        ``quiet_time`` is when the engine last skipped a commit below the
        horizon; eviction stamps use the later of it and the last commit.
        """
        ...

    # -- capacity probes / accounting ----------------------------------

    def can_admit(
        self, seq: SequenceSpec, watermark_pages: int = 0, chunk_tokens: int = 8192
    ) -> bool:
        """Admission control: does the whole prompt's footprint fit now?

        Jenga asks its allocator the question allocation asks
        (``TwoLevelAllocator.groups_that_fit``), so a yes means the
        demand would come out of the five steps as the pool stands."""
        ...

    def admission_version(self) -> int:
        """Monotone pool-state version for admission-verdict reuse.

        Equal versions across probes mean every pool input of
        :meth:`can_admit` is unchanged, so the engine may skip
        re-probing a blocked head-of-queue request.  ``-1`` disables the
        skip (a backend that keeps no such counter)."""
        ...

    def stats(self) -> AllocatorStats:
        """Point-in-time memory accounting."""
        ...

    # -- observation ------------------------------------------------------

    def bind_observer(self, observer: Optional[Observer]) -> None:
        """Report to ``observer`` (``None``: to nobody) under the rules in
        :mod:`repro.core.events`."""
        ...

    # -- engine-facing properties ---------------------------------------

    @property
    def kernel_slowdown(self) -> float:
        """Attention-time multiplier of the page layout (§4.4; 1.0 = none)."""
        ...

    @property
    def prefix_hit_rate(self) -> float:
        """Fraction of looked-up prompt tokens served from cache."""
        ...

    @property
    def has_vision_cache(self) -> bool:
        """Whether this manager caches vision-encoder outputs (§6.2)."""
        ...
