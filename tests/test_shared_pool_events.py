"""Shared-allocator event topology: no view may steal the pool's bus.

Regression suite for the multi-engine event-routing bug: several
:class:`~repro.core.kv_manager.JengaKVCacheManager` views share one
:class:`~repro.core.two_level.TwoLevelAllocator`, and each wrapping engine
binds the manager onto its own per-engine bus.  The old ``bind_events``
reassigned the *shared* ``allocator.events``, so the last bind silently
won: per-engine subscribers saw either nothing or a co-tenant's pool
traffic (and, while admission was invalidated over the bus, siblings
served stale ``can_admit`` verdicts).

The fix multicasts: the shared allocator's bus is an
:class:`~repro.core.events.EventFanout` over every bound view's bus, so
pool events reach all siblings' observers and each view's bus stays its
own.  Admission no longer depends on that delivery -- every view reads
the shared allocator's counters -- but the verdict regression stays here
as the end-to-end check.
"""

import pytest

from repro.core.events import (
    EventBus,
    EventFanout,
    PagesAllocated,
    PrefixHit,
)
from repro.core.kv_manager import JengaKVCacheManager
from repro.core.layer_policy import FULL_ATTENTION, GroupSpec, make_policy
from repro.core.sequence import TEXT, SequenceSpec
from repro.core.two_level import TwoLevelAllocator

_TEXT = frozenset({TEXT})

# 4 tokens/page x 64 bytes/token = 256-byte pages; both groups identical so
# one small page == one large page and the shared pool is easy to reason
# about: ``total_bytes / 256`` pages up for grabs between the two views.
_PAGE_TOKENS = 4
_PAGE_BYTES = 256
_NUM_PAGES = 64


def _specs(prefix):
    gid = f"{prefix}/full"
    return {
        gid: GroupSpec(
            gid, FULL_ATTENTION, 1, 64, tokens_per_page=_PAGE_TOKENS,
            accepted_tags=_TEXT,
        )
    }


def _shared_pair():
    """Two manager views over one shared pool (build_shared_managers shape)."""
    specs_a, specs_b = _specs("a"), _specs("b")
    all_specs = {**specs_a, **specs_b}
    policies = {g: make_policy(s) for g, s in all_specs.items()}
    allocator = TwoLevelAllocator(
        _PAGE_BYTES * _NUM_PAGES, all_specs, policies, enable_prefix_caching=True
    )
    total = _PAGE_BYTES * _NUM_PAGES
    ma = JengaKVCacheManager(specs_a, total, shared_allocator=allocator)
    mb = JengaKVCacheManager(specs_b, total, shared_allocator=allocator)
    return allocator, ma, mb


def _fill_through(manager, request_id, tokens):
    """Hold ``tokens`` worth of pages through ``manager`` (USED, not evictable)."""
    seq = SequenceSpec.text_only(request_id, [hash((request_id, t)) & 0x7FFFFFFF
                                              for t in range(tokens)])
    manager.begin_request(seq)
    assert manager.allocate_up_to(seq, tokens)
    manager.commit(seq, tokens, now=0.0, phase="prefill")
    return seq


class TestBusStealingRegression:
    def test_can_admit_matches_uncached_after_cross_engine_churn(self):
        """The headline regression: two shared-pool engines with persistent
        per-replica buses (the serving-tier topology), engine restarts
        rebinding each manager onto its own bus, and cross-engine churn in
        between.  Pre-fix, ``allocator.events`` was last-bind-wins, so the
        sibling bound to the *same* bus the allocator happened to point at
        kept a clean-but-stale admission snapshot and served a wrong
        verdict; every view now reads the shared allocator's live counters.
        """
        _, ma, mb = _shared_pair()
        bus_a, bus_b = EventBus(), EventBus()
        # Engine construction order: each engine binds its manager view.
        ma.bind_events(bus_a)
        mb.bind_events(bus_b)

        # B probes the empty pool: a request needing the whole pool is
        # (exactly) admissible.
        probe = SequenceSpec.text_only(
            "probe", list(range(_NUM_PAGES * _PAGE_TOKENS))
        )
        assert mb.can_admit(probe) is True
        assert mb.can_admit(probe) == mb.can_admit_uncached(probe)

        # Replica A restarts onto its persistent bus, then churns: half the
        # pool becomes USED through view A.
        ma.bind_events(bus_a)
        _fill_through(ma, "filler-a", _NUM_PAGES // 2 * _PAGE_TOKENS)

        # Replica B restarts onto *its* persistent bus (a no-op rebind from
        # B's point of view) and re-probes.  The cached and uncached
        # verdicts must agree -- pre-fix the cached path still believed the
        # pool was empty.
        mb.bind_events(bus_b)
        assert mb.can_admit(probe) == mb.can_admit_uncached(probe)
        assert mb.can_admit_uncached(probe) is False

    def test_sibling_buses_receive_pool_events(self):
        """Every bound view's bus sees the shared pool's allocation events
        (per-engine telemetry requires it); pre-fix only the last-bound
        bus did."""
        _, ma, mb = _shared_pair()
        bus_a, bus_b = EventBus(), EventBus()
        ma.bind_events(bus_a)
        mb.bind_events(bus_b)

        _fill_through(ma, "filler-a", 8 * _PAGE_TOKENS)
        assert bus_a.counts[PagesAllocated.__name__] > 0
        assert bus_b.counts[PagesAllocated.__name__] > 0

    def test_manager_level_events_stay_per_view(self):
        """Manager-level records (prefix lookups) are per-engine traffic and
        must NOT leak onto sibling buses -- only pool events multicast."""
        _, ma, mb = _shared_pair()
        bus_a, bus_b = EventBus(), EventBus()
        ma.bind_events(bus_a)
        mb.bind_events(bus_b)

        seq = _fill_through(ma, "lookup-a", 8 * _PAGE_TOKENS)
        ma.release(seq, cacheable=True)
        again = SequenceSpec.text_only(
            "lookup-a2", [hash(("lookup-a", t)) & 0x7FFFFFFF for t in range(8 * _PAGE_TOKENS)]
        )
        ma.begin_request(again)
        ma.release(again, cacheable=True)
        assert bus_a.counts[PrefixHit.__name__] > 0
        assert bus_b.counts[PrefixHit.__name__] == 0


class TestEventFanout:
    def test_emit_reaches_every_member_and_local_subscribers(self):
        fanout = EventFanout()
        a, b = EventBus(), EventBus()
        fanout.attach(a)
        fanout.attach(b)
        local = []
        fanout.subscribe(local.append, [PrefixHit])
        event = PrefixHit("r", 4, 8)
        fanout.emit(event)
        assert a.recent(PrefixHit) == [event]
        assert b.recent(PrefixHit) == [event]
        assert local == [event]

    def test_has_subscribers_unions_member_interest(self):
        fanout = EventFanout()
        quiet = EventBus(capacity=0)
        fanout.attach(quiet)
        assert not fanout.has_subscribers(PrefixHit)
        quiet.subscribe(lambda e: None, [PrefixHit])
        assert fanout.has_subscribers(PrefixHit)
        assert not fanout.has_subscribers(PagesAllocated)

    def test_attach_is_idempotent_and_replace_swaps(self):
        fanout = EventFanout()
        a, b = EventBus(), EventBus()
        fanout.attach(a)
        fanout.attach(a)
        assert fanout.members == (a,)
        fanout.replace(a, b)
        assert fanout.members == (b,)
        # Replacing an unknown member just attaches the new bus.
        fanout.replace(a, a)
        assert fanout.members == (b, a)
        fanout.detach(b)
        assert fanout.members == (a,)

    def test_shared_ctor_installs_fanout_over_existing_bus(self):
        """A shared allocator built with an explicit bus keeps it as a
        fan-out member, so pre-existing pool observers keep their feed."""
        observer = EventBus()
        specs_a, specs_b = _specs("a"), _specs("b")
        all_specs = {**specs_a, **specs_b}
        policies = {g: make_policy(s) for g, s in all_specs.items()}
        allocator = TwoLevelAllocator(
            _PAGE_BYTES * _NUM_PAGES, all_specs, policies,
            enable_prefix_caching=True, events=observer,
        )
        total = _PAGE_BYTES * _NUM_PAGES
        ma = JengaKVCacheManager(specs_a, total, shared_allocator=allocator)
        mb = JengaKVCacheManager(specs_b, total, shared_allocator=allocator)
        assert isinstance(allocator.events, EventFanout)
        assert observer in allocator.events.members
        _fill_through(ma, "filler", 4 * _PAGE_TOKENS)
        assert observer.counts[PagesAllocated.__name__] > 0
        assert mb.events is not ma.events


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v"]))
