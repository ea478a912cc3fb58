"""In-memory span recorder and reversible rebinding of module attributes.

The benchmark measures layers from the outside: it replaces public module
attributes of the library with timing wrappers for the length of one traced
run and puts every original back afterwards. Spans are kept in memory, one
list per run, and summarised when the run ends.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager


class Span:
    __slots__ = ("name", "start", "end", "parent")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent


class Tracer:
    """Spans (name, start, end, parent span) plus named counters.

    All spans recorded by one Tracer belong to one train + probe run, so the
    tracer itself is the identifier they share.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(int)
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), parent))
        sid = len(self.spans) - 1
        self._stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        if not self._stack or self._stack[-1] != sid:
            raise RuntimeError(f"span {sid} closed out of order")
        self._stack.pop()
        self.spans[sid].end = self.clock()

    @contextmanager
    def span(self, name: str):
        sid = self.begin(name)
        try:
            yield
        finally:
            self.end(sid)

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] += n

    def totals(self) -> dict:
        """Summed inclusive duration per span name."""
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s.name] += s.end - s.start
        return dict(out)

    def self_totals(self) -> dict:
        """Summed self time per span name (see ``self_times``)."""
        out: dict[str, float] = defaultdict(float)
        for s, own in zip(self.spans, self_times(self.spans)):
            out[s.name] += own
        return dict(out)


def _covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans) -> list:
    """Per span: its duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return [(s.end - s.start) - _covered(children[sid])
            for sid, s in enumerate(spans)]


@contextmanager
def rebound(replacements):
    """Rebind ``(owner, attribute, new_value)`` triples for the block.

    Every attribute that was replaced gets its original value back when the
    block exits, also when the block or a later replacement raises.
    """
    saved = []
    try:
        for owner, attr, value in replacements:
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
