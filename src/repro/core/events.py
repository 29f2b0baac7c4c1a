"""Structured allocation-event bus threaded through the serving stack.

Every layer of the system -- :class:`~repro.engine.engine.LLMEngine`, the
scheduler's waiting queue, :class:`~repro.core.kv_manager.JengaKVCacheManager`,
:class:`~repro.core.two_level.TwoLevelAllocator`, and the evictors -- emits
typed records onto one shared :class:`EventBus`.  The bus makes every
five-step allocation decision (Section 5.4) and every eviction (Section 5)
observable without print-debugging:

* the allocator emits one :class:`PagesAllocated` per successful
  allocation call, carrying every page of the call and the §5.4 step
  (1-5) that satisfied each, :class:`LargePageCarved` when a large page is
  carved from the LCM pool, :class:`PageEvicted` for small- and large-page
  evictions, and :class:`PageReleased` when a request's last reference
  drops;
* the KV manager emits :class:`PrefixHit` per prefix-cache lookup;
* the engine emits the request lifecycle (:class:`RequestQueued`,
  :class:`RequestAdmitted`, :class:`AdmissionBlocked`,
  :class:`RequestPreempted`, :class:`RequestFinished`,
  :class:`RequestFailed`) and one :class:`StepCompleted` per engine step.

The bus is observation only: nothing the stack computes is read back from
it.  The engine keeps its own run record, admission reads the allocator's
counters, and the one in-tree subscriber is
:class:`~repro.obs.registry.BusTelemetry`, so an unobserved engine
constructs no event at all.  Consumers subscribe callbacks (optionally
filtered by event type) or read the bounded ring buffer after the fact.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, Iterable, List, Optional, Tuple, Type

__all__ = [
    "EventBus",
    "EventFanout",
    "Event",
    "PagesAllocated",
    "LargePageCarved",
    "PageEvicted",
    "PageEvictedToHost",
    "PageReleased",
    "QuotaResized",
    "PrefixHit",
    "RequestQueued",
    "RequestAdmitted",
    "AdmissionBlocked",
    "RequestPreempted",
    "RequestFinished",
    "RequestFailed",
    "RequestRouted",
    "StepCompleted",
    "ALLOCATION_STEPS",
]

# Human-readable names of the §5.4 five-step allocation algorithm, keyed by
# the ``steps`` entries of :class:`PagesAllocated`.  Step 0 is not part of the
# paper's algorithm: it tags the naive first-fit path taken when
# request-aware allocation is disabled (the §4.3 ablation), so analytics
# can tell it apart from a genuine step-4 fallback.
ALLOCATION_STEPS: Dict[int, str] = {
    0: "first-fit small page (request-aware ablation)",
    1: "request-associated small page",
    2: "empty large page",
    3: "evict large page",
    4: "arbitrary small page",
    5: "evict small page",
}


@dataclass(frozen=True)
class Event:
    """Marker base class for all bus records."""


@dataclass(frozen=True)
class PagesAllocated(Event):
    """One ``allocate_pages`` call succeeded: a single record per call.

    ``steps[i]`` is the §5.4 step that satisfied ``page_ids[i]`` (1-5, or
    0 for the request-aware-ablation first-fit path).  Consumers that
    count pool mutations must treat this as ``len(page_ids)`` allocations.
    """

    group_id: str
    request_id: str
    page_ids: Tuple[int, ...]
    steps: Tuple[int, ...]

    @property
    def num_pages(self) -> int:
        return len(self.page_ids)


@dataclass(frozen=True)
class LargePageCarved(Event):
    """A large page was carved from the LCM pool into small pages."""

    group_id: str
    large_page_id: int
    num_small_pages: int


@dataclass(frozen=True)
class PageEvicted(Event):
    """An evictable page was reclaimed (``level`` is ``small``/``large``).

    ``last_access`` and ``prefix_length`` are the two-key eviction priority
    the victim held (Section 5.1's balanced/aligned eviction order).
    """

    group_id: str
    page_id: int
    level: str
    last_access: float = 0.0
    prefix_length: float = 0.0


@dataclass(frozen=True)
class PageEvictedToHost(Event):
    """A cached block spilled to the host-memory offload tier."""

    group_id: str
    block_hash: int
    page_bytes: int


@dataclass(frozen=True)
class PageReleased(Event):
    """A page's last reference dropped (``cached``: kept as evictable).

    Also emitted with ``cached=False`` when a stale cached copy of a block
    is displaced from the cache index and freed outright.
    """

    group_id: str
    page_id: int
    cached: bool


@dataclass(frozen=True)
class QuotaResized(Event):
    """A group's soft large-page quota changed (elastic repartitioning).

    Emitted by :meth:`~repro.core.two_level.TwoLevelAllocator.set_quota`
    exactly once per resize, after any deflation reclaim ran.  ``reclaimed``
    counts the fully-evictable / unpinned large pages the deflation freed
    back to the LCM pool (each also published its own
    :class:`PageEvicted` record); ``num_owned`` is the group's ownership
    *after* the resize, which may still exceed ``new_quota`` -- quotas are
    soft, and pages pinned by USED small pages are never reclaimed.
    """

    group_id: str
    old_quota: Optional[int]
    new_quota: Optional[int]
    num_owned: int
    reclaimed: int


@dataclass(frozen=True)
class PrefixHit(Event):
    """One prefix-cache lookup (``hit_tokens`` may be zero on a miss)."""

    request_id: str
    hit_tokens: int
    lookup_tokens: int


@dataclass(frozen=True)
class RequestQueued(Event):
    """A request entered the waiting queue (arrival or preemption)."""

    request_id: str
    arrival_time: float


@dataclass(frozen=True)
class RequestAdmitted(Event):
    """The scheduler admitted a waiting request into the running set."""

    request_id: str
    time: float
    cached_tokens: int = 0


@dataclass(frozen=True)
class AdmissionBlocked(Event):
    """The waiting-queue head's admission probe failed; the queue stalls.

    Emitted by the engine at most once per *actual* failed probe (the
    :class:`~repro.engine.scheduler.AdmissionGate` memo suppresses provably
    redundant re-probes, so each record marks a step where pool pressure
    genuinely blocked admission).  ``queue_depth`` counts the waiting
    requests stuck behind the blocked head -- together with eviction
    provenance, preemptions, and the waste timeline this is the pressure
    input the ROADMAP's ``PoolResizer`` acts on.
    """

    request_id: str
    time: float
    queue_depth: int
    num_running: int


@dataclass(frozen=True)
class RequestPreempted(Event):
    """A running request was preempted by recomputation.

    ``reason`` is ``"victim"`` (evicted to make room for another request)
    or ``"self"`` (its own allocation failed with nobody left to evict).
    """

    request_id: str
    time: float
    reason: str = "victim"


@dataclass(frozen=True)
class RequestFinished(Event):
    request_id: str
    time: float


@dataclass(frozen=True)
class RequestFailed(Event):
    """A request can never fit on the GPU (permanent admission failure)."""

    request_id: str
    time: float


@dataclass(frozen=True)
class RequestRouted(Event):
    """One routing decision, emitted on the *chosen* replica's bus.

    Defined here rather than in :mod:`repro.serving.router` so observers
    (:class:`~repro.obs.registry.BusTelemetry`) can subscribe to it without
    importing the serving layer; the router re-exports it for its callers.
    """

    request_id: str
    replica_id: str
    policy: str
    expected_hit_tokens: int


@dataclass(frozen=True)
class StepCompleted(Event):
    """One engine step finished; ``record`` is the full
    :class:`~repro.engine.metrics.StepRecord` (typed ``Any`` to keep the
    core layer free of engine imports)."""

    index: int
    time: float
    num_preemptions: int
    record: Any = field(default=None, compare=False)


_Handler = Callable[[Event], None]


class EventBus:
    """Synchronous pub/sub bus with a bounded ring buffer.

    Emission is cheap enough for per-page-allocation use: one ring append,
    one counter bump, and subscriber dispatch only for matching types.
    The ring buffer keeps the last ``capacity`` events for after-the-fact
    inspection (tests, debugging); subscribers see *every* event
    regardless of ring capacity.

    ``capacity=0`` disables ring capture entirely: the bus becomes a pure
    dispatcher, and :meth:`has_subscribers` returns ``False`` for event
    types nobody listens to.  Emit call sites are expected to guard event
    construction with that check (the "event-bus fast path"), so a
    capture-free bus makes hot-path emission close to free.
    """

    def __init__(self, capacity: int = 1024) -> None:
        self._capture = capacity > 0
        self._ring: Deque[Event] = deque(maxlen=capacity)
        self._subscribers: List[Tuple[Optional[Tuple[Type[Event], ...]], _Handler]] = []
        # Per-event-type interest cache for has_subscribers(); invalidated
        # on every subscribe/unsubscribe so lookups stay O(1) amortised.
        self._interest: Dict[Type[Event], bool] = {}
        self.counts: "Counter[str]" = Counter()

    def __len__(self) -> int:
        return len(self._ring)

    def has_subscribers(self, event_type: Type[Event]) -> bool:
        """Would an emitted ``event_type`` reach any consumer right now?

        True when ring capture is enabled (the ring itself is a consumer:
        tests and debuggers read it after the fact) or when at least one
        subscriber's type filter matches.  Call sites use this to skip
        constructing event dataclasses nobody would see::

            if events is not None and events.has_subscribers(PageEvicted):
                events.emit(PageEvicted(...))
        """
        if self._capture:
            return True
        cached = self._interest.get(event_type)
        if cached is None:
            cached = any(
                types is None or issubclass(event_type, types)
                for types, _ in self._subscribers
            )
            self._interest[event_type] = cached
        return cached

    def emit(self, event: Event) -> None:
        """Publish ``event`` to the ring buffer and all matching handlers."""
        if self._capture:
            self._ring.append(event)
        self.counts[type(event).__name__] += 1
        for types, handler in self._subscribers:
            if types is None or isinstance(event, types):
                handler(event)

    def subscribe(
        self,
        handler: _Handler,
        event_types: Optional[Iterable[Type[Event]]] = None,
    ) -> _Handler:
        """Register ``handler`` for all events (or only ``event_types``).

        Returns the handler so it can be passed to :meth:`unsubscribe`.
        """
        types = tuple(event_types) if event_types is not None else None
        self._subscribers.append((types, handler))
        self._interest.clear()
        return handler

    def unsubscribe(self, handler: _Handler) -> bool:
        """Remove every subscription of ``handler``; return whether any existed.

        Matches by equality, not identity: ``obj.method`` builds a fresh
        bound-method object on every attribute access, so an identity test
        would never match the object stored at subscribe time.
        """
        before = len(self._subscribers)
        self._subscribers = [(t, h) for t, h in self._subscribers if h != handler]
        self._interest.clear()
        return len(self._subscribers) < before

    def recent(
        self,
        event_type: Optional[Type[Event]] = None,
        limit: Optional[int] = None,
    ) -> List[Event]:
        """Ring-buffer contents, oldest first, optionally filtered by type."""
        events: List[Event] = list(self._ring)
        if event_type is not None:
            events = [e for e in events if isinstance(e, event_type)]
        if limit is not None:
            events = events[-limit:]
        return events

    def clear(self) -> None:
        """Drop the ring buffer and counters (subscribers stay registered)."""
        self._ring.clear()
        self.counts.clear()


class EventFanout(EventBus):
    """A bus view that multicasts every event to a set of member buses.

    Shared-allocator deployments (``MultiModelEngine`` shared mode, the
    serving tier's co-tenant replicas) have one :class:`TwoLevelAllocator`
    observed by N manager views, each wrapping engine owning its *own*
    per-engine bus.  The allocator holds a single ``events`` reference, so
    without a fan-out the last ``bind_events`` wins and every sibling's
    observers (telemetry, pressure monitors) silently stop seeing pool
    events.  Installing an ``EventFanout`` as the allocator's bus gives
    every bound view the full pool feed while each engine's
    request-lifecycle traffic stays on its own bus.  Observation only:
    admission reads the shared allocator's counters directly, so its
    correctness does not depend on delivery.

    The fan-out is itself an :class:`EventBus` (direct subscribers and the
    interest cache work as usual) but captures nothing locally by default:
    members own the ring buffers.  :meth:`has_subscribers` unions member
    interest so the emit-guard fast path stays exact -- an event type
    nobody on any member bus listens to is still never constructed.
    """

    def __init__(self, *members: "EventBus") -> None:
        super().__init__(capacity=0)
        self._members: List[EventBus] = []
        for member in members:
            self.attach(member)

    @property
    def members(self) -> Tuple["EventBus", ...]:
        return tuple(self._members)

    def has_subscribers(self, event_type: Type[Event]) -> bool:
        if super().has_subscribers(event_type):
            return True
        return any(m.has_subscribers(event_type) for m in self._members)

    def emit(self, event: Event) -> None:
        super().emit(event)
        for member in self._members:
            member.emit(event)

    def attach(self, member: "EventBus") -> None:
        """Add ``member`` to the multicast set (idempotent)."""
        if member is self:
            raise ValueError("EventFanout cannot contain itself")
        if not any(m is member for m in self._members):
            self._members.append(member)

    def detach(self, member: "EventBus") -> bool:
        """Remove ``member``; return whether it was attached."""
        before = len(self._members)
        self._members = [m for m in self._members if m is not member]
        return len(self._members) < before

    def replace(self, old: Optional["EventBus"], new: "EventBus") -> None:
        """Swap ``old`` for ``new`` in place (bind-time rebinding).

        Unknown ``old`` (or ``None``) degrades to :meth:`attach`, so a
        manager rebinding onto a fresh bus never loses its pool feed.
        """
        if old is not None:
            for i, member in enumerate(self._members):
                if member is old:
                    if any(m is new for m in self._members):
                        del self._members[i]
                    else:
                        self._members[i] = new
                    return
        self.attach(new)
