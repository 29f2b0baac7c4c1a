"""WaitingQueue tests: heap ordering, arrival gating, preemption priority."""

import random

from repro.engine.request import Request
from repro.engine.scheduler import WaitingQueue

from .recording import RecordingObserver, RequestQueued


def req(request_id, arrival, preemptions=0):
    r = Request.text(request_id, [1, 2, 3], 4, arrival_time=arrival)
    r.num_preemptions = preemptions
    return r


class TestOrdering:
    def test_fcfs_by_arrival_time(self):
        q = WaitingQueue()
        for rid, t in (("b", 2.0), ("a", 1.0), ("c", 3.0)):
            q.push(req(rid, t))
        order = [q.pop_ready(10.0).request_id for _ in range(3)]
        assert order == ["a", "b", "c"]

    def test_equal_arrival_preserves_push_order(self):
        q = WaitingQueue()
        for rid in ("x", "y", "z"):
            q.push(req(rid, 5.0))
        assert [q.pop_ready(10.0).request_id for _ in range(3)] == ["x", "y", "z"]

    def test_preempted_beats_fresh_arrival_on_equal_time(self):
        """A preempted request re-entering the queue must keep its
        scheduling priority over a fresh arrival with the same
        arrival_time, even though it is pushed *after* it."""
        q = WaitingQueue()
        q.push(req("fresh", 5.0))
        q.push(req("preempted", 5.0, preemptions=1))
        assert q.pop_ready(10.0).request_id == "preempted"
        assert q.pop_ready(10.0).request_id == "fresh"

    def test_preempted_requests_keep_relative_order(self):
        q = WaitingQueue()
        q.push(req("p1", 5.0, preemptions=2))
        q.push(req("p2", 5.0, preemptions=1))
        assert [q.pop_ready(10.0).request_id for _ in range(2)] == ["p1", "p2"]

    def test_earlier_fresh_arrival_still_beats_later_preempted(self):
        q = WaitingQueue()
        q.push(req("preempted", 5.0, preemptions=1))
        q.push(req("fresh", 4.0))
        assert q.pop_ready(10.0).request_id == "fresh"

    def test_random_fill_drains_sorted(self):
        rng = random.Random(7)
        q = WaitingQueue()
        for i in range(300):
            # Coarse arrival grid to force plenty of ties.
            q.push(req(f"r{i}", float(rng.randrange(10)),
                       preemptions=rng.randrange(2)))
        drained = []
        while q:
            drained.append(q.pop_ready(1e9))
        keys = [(r.arrival_time, 0 if r.num_preemptions else 1) for r in drained]
        assert keys == sorted(keys)


class TestGating:
    def test_peek_and_pop_gate_on_arrival_time(self):
        q = WaitingQueue()
        q.push(req("late", 100.0))
        assert q.peek_ready(5.0) is None
        assert q.pop_ready(5.0) is None
        assert len(q) == 1
        assert q.pop_ready(100.0).request_id == "late"

    def test_next_arrival(self):
        q = WaitingQueue()
        assert q.next_arrival() is None
        q.push(req("a", 7.0))
        q.push(req("b", 3.0))
        assert q.next_arrival() == 3.0

    def test_len_and_bool(self):
        q = WaitingQueue()
        assert not q and len(q) == 0
        q.push(req("a", 0.0))
        assert q and len(q) == 1


class TestEvents:
    def test_push_emits_request_queued(self):
        q = WaitingQueue()
        q.observer = RecordingObserver()
        q.push(req("a", 1.5))
        seen = q.observer.recent(RequestQueued)
        assert len(seen) == 1
        assert seen[0].request_id == "a" and seen[0].arrival_time == 1.5
