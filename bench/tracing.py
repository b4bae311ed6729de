"""In-memory spans around chflow's public functions, installed from outside.

A `Tracer` replaces a module attribute with a wrapper that records one span
per call: name, start, end, parent span and the run id.  The wrapper goes on
the attribute the caller reads at call time, so a name bound with
``from ... import`` is wrapped again in the importing module.  Spans stay in
memory until `spans_as_dicts` is called at the end of the run; `restore`
puts every original attribute back.
"""

from __future__ import annotations

import functools
import math
import time
import tracemalloc
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    run_id: str
    start: float
    end: float = math.nan
    points: int = 0  # grid points of the call, where the wrapper knows them
    peak_bytes: int = 0  # tracemalloc peak above the call's own baseline
    count: int = 0  # work done, e.g. point pairs of a distance call
    bytes: int = 0  # bytes of the array a cache build produced

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counters: dict[str, int] = {}
        self._open: list[Span] = []
        self._mem: list[list[int]] = []  # [baseline, absolute peak] per open tracked span
        self._undo: list[tuple[object, str, object]] = []

    # -- span bookkeeping ---------------------------------------------------

    def begin(self, name: str, memory: bool = False) -> Span:
        if memory:
            if tracemalloc.is_tracing():
                # fold the enclosing tracked span's peak so far into its frame
                # before the reset below hides it
                self._mem[-1][1] = max(self._mem[-1][1],
                                       tracemalloc.get_traced_memory()[1])
                tracemalloc.reset_peak()
            else:
                tracemalloc.start()
            current = tracemalloc.get_traced_memory()[0]
            self._mem.append([current, current])
        parent = self._open[-1].id if self._open else None
        span = Span(len(self.spans), name, parent, self.run_id, time.perf_counter())
        self.spans.append(span)
        self._open.append(span)
        return span

    def end(self, span: Span, memory: bool = False) -> None:
        span.end = time.perf_counter()
        self._open.pop()
        if memory:
            base, peak = self._mem.pop()
            peak = max(peak, tracemalloc.get_traced_memory()[1])
            span.peak_bytes = peak - base
            if self._mem:
                self._mem[-1][1] = max(self._mem[-1][1], peak)
            else:
                tracemalloc.stop()

    # -- wrappers -----------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, points=None, count=None,
             memory: bool = False) -> None:
        """Record a span named `name` around every call of owner.attr.

        `points(*args, **kwargs)` gives the call's grid points and
        `count(result)` its work count; `memory` records the tracemalloc
        peak of the call.  A missing attribute is skipped, so the tracer
        keeps working when a later version of the package drops a function.
        """
        orig = getattr(owner, attr, None)
        if orig is None:
            return

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            span = self.begin(name, memory)
            try:
                result = orig(*args, **kwargs)
            finally:
                self.end(span, memory)
            if points is not None:
                span.points = int(points(*args, **kwargs))
            if count is not None:
                span.count = int(count(result))
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, orig))

    def wrap_cache(self, cls, keys: tuple[str, ...], name: str) -> None:
        """Record a span for each build of a lazily cached property of cls.

        A property whose key is already in the instance's ``_cache`` is a
        hit and records nothing; a build records the bytes of the result.
        """
        for key in keys:
            prop = cls.__dict__.get(key)
            if not isinstance(prop, property):
                continue

            def getter(obj, _fget=prop.fget, _key=key):
                if _key in getattr(obj, "_cache", {}):
                    return _fget(obj)
                span = self.begin(name)
                try:
                    value = _fget(obj)
                finally:
                    self.end(span)
                span.bytes = int(getattr(value, "nbytes", 0))
                return value

            setattr(cls, key, property(getter, doc=prop.__doc__))
            self._undo.append((cls, key, prop))

    def wrap_counter(self, owner, attr: str, name: str, count) -> None:
        """Add count(result) to counters[name] on every call, with no span."""
        orig = getattr(owner, attr, None)
        if orig is None:
            return
        self.counters.setdefault(name, 0)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            result = orig(*args, **kwargs)
            self.counters[name] += int(count(result))
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, orig))

    def restore(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- results ------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def metric(self, name: str, finest: tuple[str, ...] = ()) -> float:
        """Value of a per-layer metric named ``<span name>.<statistic>``.

        Statistics: calls, self_s, total_s (outermost spans of the name, so
        recursion is not counted twice), pairs (summed work counts), bytes,
        peak_bytes_per_point (of the call with the most grid points).  A name
        without a span of its own reads counters[name].  For a span name in
        `finest`, total_s covers only the calls with the most grid points.
        """
        if name in self.counters:
            return self.counters[name]
        span_name, _, stat = name.rpartition(".")
        picked = [s for s in self.spans if s.name == span_name]
        if stat == "calls":
            return len(picked)
        if stat == "self_s":
            own = self.self_times()
            return math.fsum(own[s.id] for s in picked)
        if stat == "pairs":
            return sum(s.count for s in picked)
        if stat == "bytes":
            return sum(s.bytes for s in picked)
        most = max((s.points for s in picked), default=0)
        if stat == "total_s":
            if span_name in finest:
                picked = [s for s in picked if s.points == most]
            return math.fsum(s.duration for s in picked
                             if not self._has_ancestor(s, span_name))
        if stat == "peak_bytes_per_point":
            return max((s.peak_bytes / s.points for s in picked
                        if s.points == most and most > 0), default=0.0)
        raise ValueError(f"unknown per-layer statistic in {name!r}")

    def _has_ancestor(self, span: Span, name: str) -> bool:
        p = span.parent
        while p is not None:
            if self.spans[p].name == name:
                return True
            p = self.spans[p].parent
        return False

    def spans_as_dicts(self) -> list[dict]:
        own = self.self_times()
        return [
            {"id": s.id, "name": s.name, "parent": s.parent, "run_id": s.run_id,
             "start": s.start, "end": s.end, "self_s": own[s.id],
             "points": s.points, "peak_bytes": s.peak_bytes, "count": s.count,
             "bytes": s.bytes}
            for s in self.spans
        ]
