"""Outside-in tracing: timing proxies around the public seams.

Nothing under ``src/`` is touched and the in-tree ``Tracer`` stays off.
The benchmark wraps the objects it hands to the system -- the manager
passed to ``LLMEngine`` / ``Replica(manager=...)``, that manager's
``allocator``, the ``Router`` and the ``ServingCluster`` -- in a
:class:`Proxy` that times a listed set of methods and forwards every
other attribute read and write, and replaces ``engine.step`` by a timed
bound method.  Every timed call is one span; spans nest by the call
stack (the whole simulator runs on one thread), so a span's *self time*
is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

__all__ = ["Proxy", "Recorder", "percentile", "unwrap"]

#: One finished span: (name, start, end, parent index or -1, request id or
#: None, summary of the returned value -- see ``_summarise``).
Span = Tuple[str, float, float, int, Optional[str], Any]


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (0 for an empty list)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _summarise(result: Any) -> Any:
    """What a span keeps of a return value: numbers and booleans as they
    are (hit length, success flag), the length of a list (pages taken),
    and for anything else whether it was ``None``."""
    if result is None or isinstance(result, (bool, int, float)):
        return result
    if isinstance(result, (list, tuple)):
        return len(result)
    return True


class Recorder:
    """In-memory span log shared by every proxy of one run."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self._stack: List[int] = []

    def wrap(
        self, name: str, fn: Callable[..., Any], request_arg: Optional[int] = 0
    ) -> Callable[..., Any]:
        """``fn`` timed as span ``name``.

        ``request_arg`` is the position of the argument that names the
        request: an object with a ``request_id`` (a ``SequenceSpec`` or a
        ``Request``) or the id string itself; ``None`` when the call
        carries no request.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            request_id = None
            if request_arg is not None and len(args) > request_arg:
                carrier = args[request_arg]
                request_id = getattr(carrier, "request_id", carrier)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            summary: Any = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                summary = _summarise(result)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, request_id, summary)

        return traced

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------

    def finished(self) -> List[Span]:
        return [span for span in self.spans if span is not None]

    def aggregate(self) -> Dict[str, Dict[str, Any]]:
        """Per span name: ``calls``, ``total_s``, ``self_s`` and the
        per-call ``durations`` and ``summaries`` (parallel lists)."""
        spans = self.finished()
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: Dict[str, Dict[str, Any]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                     "durations": [], "summaries": []}
        )
        for index, span in enumerate(self.spans):
            if span is None:
                continue
            name, start, end, _, _, summary = span
            entry = out[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += (end - start) - child_time[index]
            entry["durations"].append(end - start)
            entry["summaries"].append(summary)
        return dict(out)

    def root_seconds(self) -> float:
        """Time covered by spans that have no parent (= sum of all self
        times, which is what the self-test asserts)."""
        return sum(end - start for _, start, end, parent, _, _ in self.finished()
                   if parent < 0)

    def chrome_trace(self) -> Dict[str, Any]:
        """The span log as Chrome/Perfetto trace-event JSON (one thread)."""
        spans = self.finished()
        origin = min((start for _, start, *_ in spans), default=0.0)
        events = []
        for name, start, end, _, request_id, _ in spans:
            event: Dict[str, Any] = {
                "name": name, "cat": name.rsplit(".", 1)[0], "ph": "X",
                "pid": 0, "tid": 0,
                "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
            }
            if request_id is not None:
                event["args"] = {"request": request_id}
            events.append(event)
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(self.chrome_trace(), f)


class Proxy:
    """Delegating stand-in for ``target`` that times ``methods``.

    The timed methods live in the proxy's own ``__dict__`` (so calling
    them costs one dict lookup); every other attribute read falls through
    ``__getattr__`` to the target and every attribute write is applied to
    the target, so code that does ``manager.allocator.events = bus``
    through a proxy still rebinds the real allocator.
    """

    def __init__(
        self,
        target: Any,
        recorder: Recorder,
        layer: str,
        methods: Mapping[str, Optional[int]],
    ) -> None:
        own = self.__dict__
        own["_target"] = target
        for method, request_arg in methods.items():
            own[method] = recorder.wrap(
                f"{layer}.{method}", getattr(target, method), request_arg
            )

    def __getattr__(self, name: str) -> Any:
        return getattr(self.__dict__["_target"], name)

    def __setattr__(self, name: str, value: Any) -> None:
        setattr(self.__dict__["_target"], name, value)

    def __repr__(self) -> str:
        return f"Proxy({self.__dict__['_target']!r})"


def unwrap(obj: Any) -> Any:
    """The object behind a :class:`Proxy` (``obj`` itself otherwise); used
    by checks and samplers so that their own calls add no spans."""
    return obj.__dict__["_target"] if isinstance(obj, Proxy) else obj
