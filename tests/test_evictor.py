"""Tests for the two-key LRU evictor."""

import pytest

from repro.core.evictor import LRUEvictor


class TestBasics:
    def test_empty(self):
        ev = LRUEvictor()
        assert len(ev) == 0
        with pytest.raises(KeyError):
            ev.evict()

    def test_add_and_evict_order(self):
        ev = LRUEvictor()
        ev.add("a", last_access=3.0)
        ev.add("b", last_access=1.0)
        ev.add("c", last_access=2.0)
        assert ev.evict() == "b"
        assert ev.evict() == "c"
        assert ev.evict() == "a"

    def test_contains(self):
        ev = LRUEvictor()
        ev.add("x", 1.0)
        assert "x" in ev
        assert "y" not in ev

    def test_peek_does_not_remove(self):
        ev = LRUEvictor()
        ev.add("a", 1.0)
        assert list(ev.iter_in_order()) == ["a"]
        assert len(ev) == 1


class TestPrefixLengthTiebreak:
    def test_deeper_prefix_evicted_first(self):
        # Section 5.1: among pages with the same last-access time, the page
        # with the largest prefix length goes first (aligned eviction).
        ev = LRUEvictor()
        ev.add("shallow", last_access=5.0, prefix_length=2)
        ev.add("deep", last_access=5.0, prefix_length=10)
        ev.add("mid", last_access=5.0, prefix_length=5)
        assert [ev.evict() for _ in range(3)] == ["deep", "mid", "shallow"]

    def test_last_access_dominates_prefix(self):
        ev = LRUEvictor()
        ev.add("old-shallow", last_access=1.0, prefix_length=1)
        ev.add("new-deep", last_access=2.0, prefix_length=100)
        assert ev.evict() == "old-shallow"


class TestUpdatesAndRemoval:
    def test_update_changes_priority(self):
        ev = LRUEvictor()
        ev.add("a", 1.0)
        ev.add("b", 2.0)
        ev.add("a", 3.0)  # refresh
        assert ev.evict() == "b"
        assert ev.evict() == "a"

    def test_remove(self):
        ev = LRUEvictor()
        ev.add("a", 1.0)
        ev.add("b", 2.0)
        ev.remove("a")
        assert "a" not in ev
        assert ev.evict() == "b"

    def test_remove_missing_raises(self):
        ev = LRUEvictor()
        with pytest.raises(KeyError):
            ev.remove("ghost")

    def test_discard_missing_ok(self):
        ev = LRUEvictor()
        assert ev.discard("ghost") is False
        ev.add("a", 1.0)
        assert ev.discard("a") is True
        assert len(ev) == 0

    def test_stale_entries_skipped_after_many_updates(self):
        ev = LRUEvictor()
        for i in range(100):
            ev.add("a", float(i))
        ev.add("b", 0.5)
        assert ev.evict() == "b"
        assert ev.evict() == "a"
        assert len(ev) == 0

    def test_priority_of(self):
        ev = LRUEvictor()
        ev.add("a", 4.0, prefix_length=7.0)
        assert ev.priority_of("a") == (4.0, 7.0)

    def test_items_in_order(self):
        ev = LRUEvictor()
        ev.add("a", 3.0)
        ev.add("b", 1.0)
        ev.add("c", 2.0)
        assert list(ev.iter_in_order()) == ["b", "c", "a"]
        # iter_in_order must not mutate the evictor.
        assert len(ev) == 3

    def test_readd_after_evict(self):
        ev = LRUEvictor()
        ev.add("a", 1.0)
        assert ev.evict() == "a"
        ev.add("a", 2.0)
        assert ev.evict() == "a"


class TestAddRun:
    def test_run_is_its_adds_in_order(self):
        ev = LRUEvictor()
        ev.add("x", 1.5)
        # "a" is re-added inside the run: its last triple wins.
        ev.add_run([("a", 2.0, 0.0), ("b", 1.0, 4.0), ("a", 0.5, 0.0), ("c", 1.0, 9.0)])
        # "d" ties "c" on both keys but is added later.
        ev.add_run([("d", 1.0, 9.0)])
        assert list(ev.iter_in_order()) == ["a", "c", "d", "b", "x"]
        assert ev.priority_of("a") == (0.5, 0.0)
        assert [ev.evict_with_key() for _ in range(2)] == [("a", 0.5, 0.0), ("c", 1.0, 9.0)]


class TestHeapCompaction:
    """Touch-heavy churn must not grow the lazy-deletion heap unboundedly."""

    def test_heap_bounded_under_pure_touch_churn(self):
        from repro.core.evictor import COMPACT_RATIO

        ev = LRUEvictor()
        live = 50
        for i in range(live):
            ev.add(i, float(i))
        for step in range(5_000):
            ev.add(step % live, float(live + step))
            assert len(ev._heap) <= COMPACT_RATIO * live + 1
        assert ev.num_compactions > 0
        assert len(ev) == live

    def test_eviction_order_survives_compaction(self):
        ev = LRUEvictor()
        for i in range(20):
            ev.add(i, float(i))
        # Touch everything but item 7 until several rebuilds have run.
        now = 100.0
        while ev.num_compactions < 3:
            for i in range(20):
                if i != 7:
                    now += 1.0
                    ev.add(i, now)
        assert ev.evict() == 7
        assert len(ev) == 19

    def test_compaction_preserves_priority_updates(self):
        ev = LRUEvictor()
        ev.add("a", 1.0)
        for _ in range(50):  # strand enough entries to force rebuilds
            ev.add("b", 2.0)
        ev.add("b", 0.5)  # final update: b now older than a
        assert ev.evict() == "b"
        assert ev.evict() == "a"

    def test_no_compaction_when_evictions_drain_stale_tops(self):
        # Stale entries carry older keys and sink to the heap top, where
        # evict()'s stale-pop clears them; with eviction traffic the heap
        # stays small without rebuilds.
        ev = LRUEvictor()
        for i in range(8):
            ev.add(i, float(i))
        for step in range(1_000):
            ev.add(step % 8, 10.0 + step)
            if step % 2:
                victim = ev.evict()
                ev.add(victim, 10.0 + step + 0.5)
        assert len(ev) == 8
