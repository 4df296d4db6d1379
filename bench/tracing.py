"""In-memory spans recorded by the benchmark around its calls into gwspeed.

A span has a name, a start and an end. Aggregated spans stand for `n` calls
timed as one batch, so calls too short for a span each still get a
per-call time.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from statistics import median


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    n: int = 1

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)

    @contextmanager
    def span(self, name: str, n: int = 1):
        s = Span(name, time.perf_counter(), n=n)
        self.spans.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def add(self, name: str, seconds: float, n: int) -> None:
        """Record `n` calls that took `seconds` in all, timed by the caller."""
        now = time.perf_counter()
        self.spans.append(Span(name, now - seconds, now, n))

    def count(self, name: str, value: float) -> None:
        self.counts.setdefault(name, []).append(value)

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.spans if s.name == name]

    def per_call(self, name: str) -> float | None:
        """Seconds per call over every span of `name`, batches included."""
        spans = [s for s in self.spans if s.name == name]
        calls = sum(s.n for s in spans)
        return sum(s.duration for s in spans) / calls if calls else None

    def median(self, name: str) -> float | None:
        d = self.durations(name)
        return median(d) if d else None


def span_cost(samples: int = 20000) -> float:
    """Seconds one empty span adds, measured on a throwaway tracer."""
    tr = Tracer()
    t0 = time.perf_counter()
    for _ in range(samples):
        with tr.span("calibrate"):
            pass
    return (time.perf_counter() - t0) / samples
