"""The formal KV-cache-manager protocol: the engine <-> memory seam.

Historically the engine talked to its memory manager through an implicit
duck-typed interface (attribute probes for ``kernel_slowdown`` and friends
with hard-coded fallbacks).  This module names every method and property
the engine is allowed to touch:

* :class:`KVCacheManager` -- a :func:`typing.runtime_checkable`
  :class:`~typing.Protocol`; ``isinstance(obj, KVCacheManager)`` verifies
  an implementation structurally (the parametrized conformance test in
  ``tests/test_protocol.py`` runs this over every registered manager).
* :class:`KVCacheManagerBase` -- a concrete base class providing the
  defaults optional members used to be duck-typed for (``kernel_slowdown``
  of 1.0, a zero ``prefix_hit_rate``, no vision cache) plus observer
  binding.  All in-tree managers -- Jenga, the four
  baselines, and the spec-decode composite -- derive from it; new backends
  should too, then register a factory in :mod:`repro.core.registry`.

The request lifecycle the protocol encodes (see
:class:`~repro.core.kv_manager.JengaKVCacheManager` for the reference
implementation): ``begin_request`` -> repeated ``allocate_up_to`` +
``commit`` -> ``release``; ``can_admit`` is the scheduler's capacity probe,
``needs_allocation`` its skip-the-call probe, and ``stats`` the memory
snapshot.
"""

from __future__ import annotations

from typing import FrozenSet, Optional, Protocol, runtime_checkable

from .events import Observer
from .sequence import SequenceSpec
from .two_level import AllocatorStats

__all__ = ["KVCacheManager", "KVCacheManagerBase"]


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

    def owned_groups(self) -> FrozenSet[str]:
        """Group ids this manager view owns within its allocator.

        On a shared allocator, :meth:`stats` reports pool-wide accounting;
        consumers attributing per-group bytes to one engine filter
        ``used_bytes_by_group`` down to this set.  Empty means "all of
        them" (a privately-owned pool needs no filtering).
        """
        ...

    # -- observation ------------------------------------------------------

    def bind_observer(self, observer: Optional[Observer]) -> None:
        """Report to ``observer`` (``None``: to nobody), propagating to the
        allocator under the rules in :mod:`repro.core.events`."""
        ...

    # -- engine-facing properties ---------------------------------------

    @property
    def kernel_slowdown(self) -> float:
        """Attention-kernel penalty of the page-layout strategy (§4.4)."""
        ...

    @property
    def prefix_hit_rate(self) -> float:
        """Fraction of looked-up prompt tokens served from cache."""
        ...

    @property
    def has_vision_cache(self) -> bool:
        """Whether this manager caches vision-encoder outputs (§6.2)."""
        ...


class KVCacheManagerBase:
    """Shared base class supplying the protocol's optional members.

    Subclasses must implement the five core lifecycle/probe methods
    (``begin_request``, ``allocate_up_to``, ``commit``, ``release``,
    ``can_admit``) plus ``stats``; everything else has a sensible default
    here, so a minimal backend (no vision cache, LCM-layout kernels) only
    overrides what it customizes.
    """

    name = "abstract"
    hit_tokens = 0
    lookup_tokens = 0

    def __init__(self) -> None:
        self.observer: Optional[Observer] = None

    def bind_observer(self, observer: Optional[Observer]) -> None:
        self.observer = observer

    # -- required lifecycle (abstract) ----------------------------------

    def begin_request(self, seq: SequenceSpec) -> int:
        raise NotImplementedError

    def allocate_up_to(self, seq: SequenceSpec, target_global: int) -> bool:
        raise NotImplementedError

    def commit(
        self, seq: SequenceSpec, computed_global: int, now: float, phase: str = "decode"
    ) -> None:
        raise NotImplementedError

    def release(self, seq: SequenceSpec, cacheable: bool = True) -> None:
        raise NotImplementedError

    def can_admit(
        self, seq: SequenceSpec, watermark_pages: int = 0, chunk_tokens: int = 8192
    ) -> bool:
        raise NotImplementedError

    def stats(self) -> AllocatorStats:
        raise NotImplementedError

    # -- optional members with defaults ---------------------------------

    def needs_allocation(self, seq: SequenceSpec, target_global: int) -> bool:
        # Conservative default: always let allocate_up_to decide.
        return True

    def admission_version(self) -> int:
        # -1: no version counter, never skip a re-probe on this
        # manager's account.
        return -1

    def allocate_vision(self, seq: SequenceSpec) -> bool:
        return True

    def consume_vision(self, seq: SequenceSpec, upto_global: int) -> None:
        return None

    def foreign_used_bytes(self) -> int:
        # USED bytes held by co-tenant views of a shared pool.  A private
        # pool has no co-tenants, so the default is 0 -- which keeps the
        # engine's empty-GPU permanent-failure heuristic exact for every
        # single-tenant manager: a request that cannot be admitted onto an
        # idle private pool can never be admitted.  Shared-allocator views
        # override this so a tenant squeezed by its neighbours *waits*
        # instead of failing.
        return 0

    def owned_groups(self) -> FrozenSet[str]:
        # Empty set == "no filtering": a backend that owns its whole pool
        # reports every group as its own.
        return frozenset()

    @property
    def kernel_slowdown(self) -> float:
        return 1.0

    @property
    def prefix_hit_rate(self) -> float:
        return 0.0

    @property
    def has_vision_cache(self) -> bool:
        return False
