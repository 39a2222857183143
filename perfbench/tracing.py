"""Spans recorded around the program's layer boundaries, from outside `src/`.

A `Tracer` replaces a function with a wrapper under the name its caller looks
it up by (for example `solver.helmholtz_solve`, which `solver.step` calls),
so the program runs unmodified. Each call becomes a span
`(name, start_ns, end_ns, parent, ok)` kept in memory; `parent` is the index
of the enclosing span, or -1. `ok` is False when the call raised.

The clock is CLOCK_MONOTONIC, which is system-wide on Linux, so a child's
spans can be compared with the time its parent started it.
"""

from __future__ import annotations

import functools
import math
import time
from collections import Counter, defaultdict
from statistics import median


def now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            ok = False
            start = now_ns()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = now_ns()
                stack.pop()
                spans[idx] = (name, start, end, parent, ok)

        return traced

    def patch(self, owner, attr: str, name: str, required: bool = False) -> None:
        """Trace `owner.attr` as `name`. A missing optional attribute is
        recorded in `missing` and its metrics read 0."""
        fn = getattr(owner, attr, None)
        if fn is None:
            if required:
                raise AttributeError(f"{owner!r} has no attribute {attr!r}")
            self.missing.append(name)
            return
        setattr(owner, attr, self.wrap(name, fn))

    def count_calls(self, owner, attr: str, name: str) -> None:
        """Count the calls of `owner.attr` that return, without a span."""
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(name)
            return
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[name] += 1
            return result

        setattr(owner, attr, counted)


class Proxy:
    """Stands in for a module: the given attributes are overridden, every
    other one is forwarded."""

    def __init__(self, target, **overrides):
        self.__dict__.update(overrides)
        self._target = target

    def __getattr__(self, attr):
        return getattr(self._target, attr)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval that its direct
    child spans cover, in seconds."""
    children = defaultdict(list)
    for name, start, end, parent, ok in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for idx, (name, start, end, parent, ok) in enumerate(spans):
        covered, reach = 0, start
        for c_start, c_end in sorted(children[idx]):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start - covered) / 1e9)
    return out


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1]


def summarize(spans) -> dict:
    """Per span name: total seconds, self seconds and call count."""
    selfs = self_times(spans)
    total, self_s, count = Counter(), Counter(), Counter()
    for (name, start, end, parent, ok), s in zip(spans, selfs):
        total[name] += (end - start) / 1e9
        self_s[name] += s
        count[name] += 1
    return {"total": total, "self": self_s, "count": count}


def under(spans, name: str, parent_name: str) -> float:
    """Total seconds of the spans `name` whose direct parent is a
    `parent_name` span."""
    return sum((end - start) / 1e9 for s_name, start, end, parent, ok in spans
               if s_name == name and parent >= 0 and spans[parent][0] == parent_name)


def median_or_zero(values) -> float:
    return median(values) if values else 0.0
