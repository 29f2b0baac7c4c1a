"""Repo-specific manifests consumed by the jengalint rules.

The linter is deliberately *not* generic: every rule encodes an invariant
of this codebase, and this module is the single place those invariants
name concrete modules, classes, and attributes.  When the allocator grows
a new hot module or incremental counter, extend the manifest here -- the
rules themselves should not need editing.
"""

from __future__ import annotations

from typing import Dict, FrozenSet

__all__ = [
    "AUDITED_SLOW_FUNCS",
    "EVENT_CLASSES",
    "GUARDED_COUNTERS",
    "HOT_CLASSES",
    "HOT_MODULES",
    "LIST_ATTRS",
    "ORPHAN_ALLOWED",
    "PER_TOKEN_HASH_FUNCS",
    "POOL_ATTRS",
    "PROBE_EXEMPT_MODULES",
    "PROTOCOL_CLASS",
    "PROTOCOL_MODULE",
    "REGISTRY_DECORATOR",
    "SPAN_METHODS",
]

# -- rule: hot-path-scan ------------------------------------------------

#: Modules on the per-step allocation hot path.  Everything here runs for
#: every page of every scheduled request on every engine step, so O(n)
#: scans over pool-sized state are budget regressions, not style nits.
HOT_MODULES: FrozenSet[str] = frozenset(
    {
        "repro/core/two_level.py",
        "repro/core/free_pool.py",
        "repro/core/evictor.py",
        # The whole manager: growth, prefix lookup, commit and release run
        # per request per step.
        "repro/core/kv_manager.py",
        "repro/core/admission.py",
        # The resizer is ticked on every engine step; its periodic decide
        # path may scan groups but never the page pool.
        "repro/core/resizer.py",
        # LCMAllocator hands out the large pages every small-page carve
        # goes through; found missing by the manifest-drift rule (its
        # class was in HOT_CLASSES but the module escaped every hot rule).
        "repro/core/lcm_allocator.py",
        "repro/engine/scheduler.py",
        # The router runs once per request on the serving dispatch path;
        # shadow probes must stay dict-indexed and block hashes memoized.
        "repro/serving/router.py",
        # The bus fold handles every per-page event (its handler must stay
        # O(1) per event, no string formatting); the pressure view closes
        # its window over the fold's counters every step.
        "repro/obs/registry.py",
        "repro/obs/pressure.py",
    }
)

#: Functions inside hot modules that are *audited* linear scans: debug
#: validators and introspection helpers whose cost is accepted and
#: documented.  Name-based: anything starting with ``check_`` or
#: containing ``slow`` is exempt, plus this explicit allowlist.
AUDITED_SLOW_FUNCS: FrozenSet[str] = frozenset(
    {
        "items_in_order",  # test/bench introspection, documented O(n log n)
        "_rebuild",        # heap compaction, amortized O(1) per mutation
        # Deliberate full recompute: the stats_slow()-style cross-check the
        # admission-bound cache is property-tested against.
        "can_admit_uncached",
        # LCM-pool introspection for tests/debugging, documented O(pool).
        "pages_owned_by",
        # PoolResizer control plane: one observe/decide/apply pass per
        # resize interval, O(#groups) with a sort over groups -- never
        # O(pages), never per-step.
        "decide",
        "rebalance",
        "_partition",
        # TelemetryRegistry export: one sorted dump per report, never
        # reached from the fold's per-event handlers.
        "snapshot",
    }
)

#: Attributes that hold Python lists on hot-path classes.  ``x in <list>``
#: is an O(n) scan; membership must go through a dict/set index instead.
LIST_ATTRS: FrozenSet[str] = frozenset({"_heap", "page_table", "free_small"})

#: Attributes whose size scales with the page pool or live-request count.
#: Comprehensions over these inside hot modules are full-pool scans.
POOL_ATTRS: FrozenSet[str] = frozenset(
    {
        "_heap",
        "_priority",
        "pages",
        "_entry",
        "_by_request",
        "_by_large",
        "_large_counts",
        "_entries",
        "_pages",
    }
)

# -- rule: unguarded-emit -----------------------------------------------

#: Event dataclasses published on the allocation-event bus.  Constructing
#: one costs a dataclass allocation per page operation, so every
#: ``emit(Event(...))`` call site must be guarded by
#: ``events.has_subscribers(Event)`` (the event-bus fast path).
EVENT_CLASSES: FrozenSet[str] = frozenset(
    {
        "PagesAllocated",
        "LargePageCarved",
        "PageEvicted",
        "PageEvictedToHost",
        "PageReleased",
        "PrefixHit",
        "RequestQueued",
        "RequestAdmitted",
        "AdmissionBlocked",
        "RequestPreempted",
        "RequestFinished",
        "RequestFailed",
        "RequestRouted",
        "StepCompleted",
        "QuotaResized",
    }
)

# -- rule: orphan-event -------------------------------------------------

#: Events that are allowed to have emit sites but no subscribe site in
#: the tree: telemetry published for *external* consumers only.  Empty on
#: purpose -- every current event has an in-tree consumer; add a name
#: here (with a comment saying who the out-of-tree consumer is) rather
#: than suppressing the orphan-event finding at the emit site.
ORPHAN_ALLOWED: FrozenSet[str] = frozenset()

# -- rule: per-token-rehash ---------------------------------------------

#: Full-stream hash helpers.  ``chain_hashes(stream, boundaries)`` folds
#: the *entire* stream from scratch; on the lookup hot path that turns a
#: one-block decode extension into an O(stream) rehash.  Hot modules must
#: go through the memoized ``SequenceSpec.hash_chain`` instead (the
#: incremental chain owned by the sequence); the from-scratch helper
#: remains the property-test oracle.
PER_TOKEN_HASH_FUNCS: FrozenSet[str] = frozenset({"chain_hashes"})

# -- rule: unguarded-span -----------------------------------------------

#: Span primitives of :class:`repro.obs.tracer.Tracer`.  Each call does
#: stack/deque work per invocation, so in hot modules every call on a
#: ``tracer`` receiver must sit inside an ``if`` that tests the tracer's
#: ``.enabled`` flag (the null fast path, mirroring the event bus's
#: ``has_subscribers`` guard) -- a disabled tracer then costs one
#: predicate per operation, not a method call.
SPAN_METHODS: FrozenSet[str] = frozenset(
    {
        "begin_span",
        "end_span",
        "span",
        "instant",
        "counter",
        "step_begin",
        "step_end",
    }
)

# -- rule: protocol-conformance -----------------------------------------

#: Module/class defining the :class:`KVCacheManager` structural protocol.
PROTOCOL_MODULE = "repro/core/protocols.py"
PROTOCOL_CLASS = "KVCacheManager"

#: Decorator that registers manager factories/classes with the registry.
REGISTRY_DECORATOR = "register_manager"

# -- rule: duck-typed-probe ---------------------------------------------

#: Modules allowed to probe manager objects dynamically (the registry is
#: the one sanctioned indirection point).
PROBE_EXEMPT_MODULES: FrozenSet[str] = frozenset({"repro/core/registry.py"})

# -- rule: guarded-counter ----------------------------------------------

#: Incrementally-maintained counters and indexes, mapped to the one class
#: allowed to assign them.  Anyone else must mutate through the owning
#: class's methods (``bump_state``/``note_eviction``/...), otherwise the
#: O(1) accounting silently drifts from the ground truth that
#: ``check_invariants`` recomputes.
GUARDED_COUNTERS: Dict[str, str] = {
    # GroupAllocator page-state counters (kept by bump_state/note_*).
    "n_used": "GroupAllocator",
    "n_evictable": "GroupAllocator",
    "n_empty_carved": "GroupAllocator",
    "used_filled_tokens": "GroupAllocator",
    "num_evictions": "GroupAllocator",
    # TwoLevelAllocator large-page accounting.
    "_num_fully_evictable": "TwoLevelAllocator",
    "_num_large_owned": "TwoLevelAllocator",
    "num_large_evictions": "TwoLevelAllocator",
    # The pool-state version admission verdicts are keyed on: only the
    # allocator's own mutation sites may move it.
    "version": "TwoLevelAllocator",
    # FreePool's three mutually-redundant indexes.
    "_entry": "FreePool",
    "_by_request": "FreePool",
    "_by_large": "FreePool",
    # AdmissionCache demand-memo effectiveness counters.
    "num_demand_hits": "AdmissionCache",
    "num_demand_misses": "AdmissionCache",
    # Mamba slot-occupancy churn folded into admission_version.
    "_mamba_churn": "PagedAttentionManager",
}

# -- rule: dynamic-attr -------------------------------------------------

#: Hot-path classes whose instances must have a fixed attribute layout:
#: every attribute is created in ``__init__`` (or ``__slots__``/class
#: body), never sprinkled on later.  Keeps instance dicts in their
#: compact shared-key form and makes the state inventory auditable.
HOT_CLASSES: FrozenSet[str] = frozenset(
    {
        "FreePool",
        "LRUEvictor",
        "GroupAllocator",
        "TwoLevelAllocator",
        "LCMAllocator",
        "WaitingQueue",
        "AdmissionCache",
        "AdmissionGate",
        "Router",
        "ReplicaShadow",
        "BusTelemetry",
        "PressureMonitor",
        "PoolResizer",
        "ResizePolicy",
    }
)
