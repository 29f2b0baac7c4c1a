# jengalint: module=repro/core/two_level.py
"""Fixture: near-miss patterns every rule must accept.

Lives (virtually) in a hot module so the hot-path and wall-clock rules
are active, yet contains no violation: observer reports behind a None
test, guarded tracer spans, owner-class counter mutation, audited slow
helpers, dict membership, and a fixed attribute layout.
"""


class Meter:
    def counter(self, name, value):
        return None


class GroupAllocator:
    def __init__(self, observer):
        self.observer = observer
        self.tracer = None
        self.meter = Meter()
        self.n_used = 0
        self.n_evictable = 0
        self._priority = {}
        self.queue = []

    def bump_state(self, delta):
        self.n_used += delta
        self.n_evictable -= delta

    def contains(self, item):
        return item in self._priority

    def evict(self, group_id, page_id):
        obs = self.observer
        if obs is not None:
            obs.page_evicted(group_id, page_id, "small", 0.0, 0.0)
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.instant("evict", args={"group": group_id})
        # Span-method *names* on a non-tracer receiver are not spans.
        self.meter.counter("evictions", 1)

    def allocate_batch(self, group_id, request_id, pages):
        taken = []
        for page in pages:
            taken.append(page)
        # One batched report after the loop, not one per page.
        obs = self.observer
        if obs is not None:
            obs.pages_allocated(group_id, request_id, tuple(taken), ())
        return taken

    def hashes_for(self, seq, tags, schedule, stream, boundaries):
        # The memoized incremental chain is the sanctioned hot-path hash;
        # only the from-scratch chain_hashes helper is flagged here.
        return seq.hash_chain(tags, schedule, stream, boundaries)

    def check_ordering(self):
        assert sorted(self.queue) == self.queue

    def stats_slow(self):
        return [p for p in self._priority if p is not None]
