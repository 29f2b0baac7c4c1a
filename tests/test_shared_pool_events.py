"""Shared-allocator observation: one pool, one observer, no stale views.

Several :class:`~repro.core.kv_manager.JengaKVCacheManager` views share
one :class:`~repro.core.two_level.TwoLevelAllocator`, and each wrapping
engine binds its observer through its view.  A shared pool reports to
exactly one observer -- the first non-``None`` one bound -- and binding a
different one raises instead of silently redirecting the pool's reports
(the old last-bind-wins hazard).  Admission never depended on that
delivery: every view reads the shared allocator's counters, and the
verdict regression stays here as the end-to-end check.
"""

import pytest

from repro.core.kv_manager import JengaKVCacheManager
from repro.core.layer_policy import FULL_ATTENTION, GroupSpec, make_policy
from repro.core.sequence import TEXT, SequenceSpec
from repro.core.two_level import TwoLevelAllocator

from .recording import PagesAllocated, PrefixHit, RecordingObserver

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
        """Two shared-pool views, engine restarts rebinding each view, and
        cross-engine churn in between.  When the pool's reports were
        last-bind-wins, the view bound to the observer the allocator
        happened to point at kept a clean-but-stale admission snapshot and
        served a wrong verdict; every view now reads the shared
        allocator's live counters.
        """
        _, ma, mb = _shared_pair()
        observer = RecordingObserver()
        # Engine construction order: each engine binds its manager view.
        ma.bind_observer(observer)
        mb.bind_observer(None)

        # B probes the empty pool: a request needing the whole pool is
        # (exactly) admissible.
        probe = SequenceSpec.text_only(
            "probe", list(range(_NUM_PAGES * _PAGE_TOKENS))
        )
        assert mb.can_admit(probe) is True
        assert mb.can_admit(probe) == mb.can_admit_uncached(probe)

        # Replica A restarts, then churns: half the pool becomes USED
        # through view A.
        ma.bind_observer(observer)
        _fill_through(ma, "filler-a", _NUM_PAGES // 2 * _PAGE_TOKENS)

        # Replica B restarts and re-probes.  The cached and uncached
        # verdicts must agree.
        mb.bind_observer(observer)
        assert mb.can_admit(probe) == mb.can_admit_uncached(probe)
        assert mb.can_admit_uncached(probe) is False
        assert observer.counts[PagesAllocated.__name__] > 0

    def test_manager_level_events_stay_per_view(self):
        """Manager-level records (prefix lookups) belong to the view that
        made them: an unobserved sibling's lookups reach no observer,
        while the pool's own reports do."""
        allocator, ma, mb = _shared_pair()
        observer = RecordingObserver()
        ma.bind_observer(observer)
        mb.bind_observer(None)
        assert allocator.observer is observer and mb.observer is None

        for mgr, name in ((ma, "a"), (mb, "b")):
            seq = _fill_through(mgr, f"lookup-{name}", 8 * _PAGE_TOKENS)
            mgr.release(seq, cacheable=True)
            again = SequenceSpec.text_only(
                f"lookup-{name}2",
                [hash((f"lookup-{name}", t)) & 0x7FFFFFFF for t in range(8 * _PAGE_TOKENS)],
            )
            mgr.begin_request(again)
            mgr.release(again, cacheable=True)
        hits = {ev.request_id for ev in observer.recent(PrefixHit)}
        assert hits == {"lookup-a", "lookup-a2"}
        assert observer.counts[PagesAllocated.__name__] >= 2  # both views' pages


class TestOneObserverPerPool:
    def test_a_second_observer_raises_and_none_leaves_it(self):
        allocator, ma, mb = _shared_pair()
        first, second = RecordingObserver(), RecordingObserver()
        ma.bind_observer(None)
        assert allocator.observer is None
        ma.bind_observer(first)
        mb.bind_observer(first)  # the same observer through a sibling view
        assert allocator.observer is first
        with pytest.raises(ValueError):
            mb.bind_observer(second)
        assert allocator.observer is first and mb.observer is first
        ma.bind_observer(None)
        assert allocator.observer is first and ma.observer is None
        _fill_through(mb, "filler-b", 4 * _PAGE_TOKENS)
        assert first.counts[PagesAllocated.__name__] > 0
        assert not second.records

    def test_a_private_allocator_follows_its_manager(self):
        specs = _specs("solo")
        mgr = JengaKVCacheManager(specs, _PAGE_BYTES * _NUM_PAGES)
        first, second = RecordingObserver(), RecordingObserver()
        mgr.bind_observer(first)
        mgr.bind_observer(second)
        assert mgr.allocator.observer is second
        mgr.bind_observer(None)
        assert mgr.allocator.observer is None


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v"]))
