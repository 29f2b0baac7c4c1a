"""``RecordingObserver``: an observer that keeps every call as a record.

Each :class:`~repro.core.events.Observer` call becomes one frozen
dataclass named and shaped like the event record the stack used to
publish for it (same class name, field names and order), so a test can
compare, filter and ``repr`` the stream, and digests recorded on that
stream still hold.
"""

import dataclasses
from collections import Counter
from typing import Any

from repro.core.events import AdmissionBlocked, Observer

__all__ = [
    "AdmissionBlocked",
    "LargePageCarved",
    "PageEvicted",
    "PageReleased",
    "PagesAllocated",
    "PhaseBegan",
    "PhaseEnded",
    "PrefixHit",
    "RecordingObserver",
    "RequestAdmitted",
    "RequestFailed",
    "RequestFinished",
    "RequestPreempted",
    "RequestQueued",
    "RequestRouted",
    "StepCompleted",
]


def _record(name, *fields, **defaults):
    spec = [(f, Any, defaults[f]) if f in defaults else (f, Any) for f in fields]
    return dataclasses.make_dataclass(name, spec, frozen=True)


PagesAllocated = _record("PagesAllocated", "group_id", "request_id", "page_ids", "steps")
LargePageCarved = _record("LargePageCarved", "group_id", "large_page_id", "num_small_pages")
PageEvicted = _record(
    "PageEvicted", "group_id", "page_id", "level", "last_access", "prefix_length",
    last_access=0.0, prefix_length=0.0,
)
PageReleased = _record("PageReleased", "group_id", "page_id", "cached")
PrefixHit = _record("PrefixHit", "request_id", "hit_tokens", "lookup_tokens")
RequestQueued = _record("RequestQueued", "request_id", "arrival_time")
RequestAdmitted = _record("RequestAdmitted", "request_id", "time", "cached_tokens",
                          cached_tokens=0)
RequestPreempted = _record("RequestPreempted", "request_id", "time", "reason",
                           reason="victim")
RequestFinished = _record("RequestFinished", "request_id", "time")
RequestFailed = _record("RequestFailed", "request_id", "time")
RequestRouted = _record(
    "RequestRouted", "request_id", "replica_id", "policy", "expected_hit_tokens"
)
PhaseBegan = _record("PhaseBegan", "name", "request_id", request_id=None)
PhaseEnded = _record("PhaseEnded")
StepCompleted = _record(
    "StepCompleted", "index", "time", "num_preemptions", "record",
    record=dataclasses.field(default=None, compare=False),
)

#: Observer method -> the record class it is kept as (arguments map onto
#: fields by position and name).
RECORDS = {
    "pages_allocated": PagesAllocated,
    "large_page_carved": LargePageCarved,
    "page_evicted": PageEvicted,
    "page_released": PageReleased,
    "prefix_hit": PrefixHit,
    "request_queued": RequestQueued,
    "request_admitted": RequestAdmitted,
    "admission_blocked": AdmissionBlocked,
    "request_preempted": RequestPreempted,
    "request_finished": RequestFinished,
    "request_failed": RequestFailed,
    "request_routed": RequestRouted,
    "phase_began": PhaseBegan,
    "phase_ended": PhaseEnded,
}


class RecordingObserver(Observer):
    """Every call kept in order in :attr:`records`, tallied by record
    class name in :attr:`counts`."""

    def __init__(self):
        self.records = []
        self.counts = Counter()

    def add(self, record):
        self.records.append(record)
        self.counts[type(record).__name__] += 1

    def recent(self, record_type=None):
        """The records so far, oldest first, optionally of one type."""
        return [r for r in self.records if record_type is None or isinstance(r, record_type)]

    def step_completed(self, time, record):
        self.add(StepCompleted(record.index, time, record.num_preemptions, record))


for _method, _cls in RECORDS.items():
    setattr(
        RecordingObserver, _method,
        lambda self, *args, _cls=_cls, **kwargs: self.add(_cls(*args, **kwargs)),
    )
