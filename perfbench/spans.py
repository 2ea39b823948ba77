"""In-memory spans and counters recorded around calls into wgstokes.

A span is (name, start, end, parent, run id). Spans are kept in a list while
the run executes and written out once at the end; self times are derived
from them afterwards, so recording costs two clock reads per span.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Tracer.spans
    run_id: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans and named counts for one repetition of a workload."""

    enabled = True

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), float("nan"), parent, self.run_id))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = time.perf_counter()

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount

    def total(self, name: str) -> float:
        """Summed duration of every span with this name."""
        return sum(s.duration for s in self.spans if s.name == name)

    def self_totals(self) -> dict[str, float]:
        """Summed self time per span name: duration minus that of direct children."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.duration
        out: dict[str, float] = {}
        for s, children in zip(self.spans, child_time):
            out[s.name] = out.get(s.name, 0.0) + s.duration - children
        return out

    def records(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


class NullTracer:
    """Stands in for Tracer in untraced repetitions; every hook is a no-op."""

    enabled = False
    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null

    def count(self, name: str, amount: int = 1) -> None:
        pass
