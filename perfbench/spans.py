"""In-memory spans around calls into esrate's public functions.

A span is ``{"name", "start", "end", "parent", "attrs"}``: ``parent`` is the
index of the enclosing span (``None`` at the root) and ``attrs`` holds
counts recorded at the same boundary (steps, rows, ...).  Everything runs in
one thread, so children of a span are sequential and never overlap, and a
span's self time is its duration minus the sum of its children's durations.

Phases are coarse spans the benchmark always times, traced or not, because
the end-to-end throughputs divide by them.  Layer spans are recorded only
when the tracer is enabled.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[dict] = []
        self.phase_s: dict[str, float] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        """Record one layer span; yields its ``attrs`` dict for counts."""
        if not self.enabled:
            yield attrs
            return
        rec = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "attrs": attrs,
        }
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield attrs
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    @contextmanager
    def phase(self, name: str):
        """Time a phase of a pass; also a span when tracing."""
        start = time.perf_counter()
        try:
            with self.span(f"phase.{name}"):
                yield
        finally:
            self.phase_s[name] = self.phase_s.get(name, 0.0) + time.perf_counter() - start


def self_times(spans: list[dict]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def by_name(spans: list[dict]) -> dict[str, list[dict]]:
    groups: dict[str, list[dict]] = {}
    for s in spans:
        groups.setdefault(s["name"], []).append(s)
    return groups


def busy_s(spans: list[dict]) -> float:
    return sum(s["end"] - s["start"] for s in spans)
