"""In-memory span recorder and the self-time arithmetic over its spans.

A span is (name, parent, start, end), with `parent` the index of the
enclosing span or -1 for a root.  Spans are kept in lists while the traced
program runs and written out once at the end; all aggregation happens
afterwards, from the written spans, so it can be tested on synthetic data.
"""

from __future__ import annotations

import functools
import json
import time


class SpanRecorder:
    """Records one span per call of each wrapped function, plus counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, stack[-1] if stack else -1, clock(), 0.0]
            spans.append(span)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()

        return wrapper

    def add(self, counter: str, value: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0.0) + value

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": self.counters}, fh)


def load(path: str) -> tuple[list[list], dict[str, float]]:
    with open(path) as fh:
        data = json.load(fh)
    return data["spans"], data["counters"]


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Children of a span lie inside its interval, so the self times of a
    tree sum to the duration of its root.
    """
    selfs = [end - start for _, _, start, end in spans]
    for _, parent, start, end in spans:
        if parent >= 0:
            selfs[parent] -= end - start
    return selfs


def by_name(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per-name call count, total (inclusive) time and self time.

    No wrapped function calls itself, so inclusive times of one name never
    overlap and may be summed.
    """
    out: dict[str, dict[str, float]] = {}
    for (name, _, start, end), own in zip(spans, self_times(spans)):
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += own
    return out


def nearest_ancestor(spans: list[list], index: int, names) -> int:
    """Index of the closest enclosing span whose name is in `names`, or -1."""
    parent = spans[index][1]
    while parent >= 0 and spans[parent][0] not in names:
        parent = spans[parent][1]
    return parent
