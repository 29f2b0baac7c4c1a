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
``needs_allocation`` its skip-the-call probe, and ``stats`` the memory
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

        A cheap page-table inspection (no allocator mutation): ``False``
        means ``allocate_up_to(seq, target_global)`` would be a no-op, so
        the engine may skip the call -- the decode fast path, where a page
        boundary is crossed only once every ``tokens_per_page`` steps.
        ``True`` is always a safe answer.
        """
        ...

    def allocate_vision(self, seq: SequenceSpec) -> bool:
        """Allocate vision-embedding pages for all of ``seq``'s images."""
        ...

    def commit(
        self, seq: SequenceSpec, computed_global: int, now: float, phase: str = "decode"
    ) -> None:
        """Record that the first ``computed_global`` tokens are computed."""
        ...

    def consume_vision(self, seq: SequenceSpec, upto_global: int) -> None:
        """Free vision-embedding pages prefill has consumed."""
        ...

    def release(self, seq: SequenceSpec, cacheable: bool = True) -> None:
        """Drop every reference ``seq`` holds (finish or preemption)."""
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
        """Report to ``observer`` (``None``: to nobody), propagating to the
        allocator under the rules in :mod:`repro.core.events`."""
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
