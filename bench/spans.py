"""In-memory spans recorded around the benchmark's calls into each layer.

A span has a name, a start, an end, the span that caused it and the task it
belongs to.  Spans stay in memory until the run ends; a layer's self time is
its duration minus the durations of its direct children (spans of one task
never overlap except by nesting, because every task runs on one thread).
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from contextlib import nullcontext
from fractions import Fraction
from time import perf_counter

_OFF = nullcontext()


def backend(joint) -> str:
    """``exact`` for Fraction-backed joints, ``float`` otherwise."""
    return "exact" if isinstance(joint.prior.weights[0], Fraction) else "float"


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        parent = t.stack[-1] if t.stack else -1
        self.index = len(t.spans)
        t.spans.append([self.name, perf_counter(), 0.0, parent, t.task])
        t.stack.append(self.index)
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[self.index][2] = perf_counter()
        t.stack.pop()
        return False


class Tracer:
    """Records spans when enabled; hands out a shared no-op context otherwise."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans = []  # [name, start, end, parent, task]
        self.stack = []
        self.counts = defaultdict(lambda: defaultdict(float))
        self.task = "setup"

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _OFF

    def count(self, name: str, value: float) -> None:
        """Add to a per-task counter (a computed or observed count, never a time)."""
        if self.enabled:
            self.counts[name][self.task] += value

    def wrap(self, fn, name):
        """``fn`` with a span around each call; ``name`` may be a function of the arguments."""

        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            with self.span(label):
                return fn(*args, **kwargs)

        return traced

    def patched(self, points):
        """Context manager that wraps ``(owner, attribute, name)`` points, then restores them."""
        return _Patches(self, points)

    def self_times(self) -> dict:
        """``{name: {task: summed self time}}`` over every recorded span."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, task in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, parent, task) in enumerate(self.spans):
            out[name][task] += (end - start) - child[i]
        return out


def per_task_median(per_name: dict, name: str) -> float:
    """Median over the tasks that have an entry for ``name`` (self times or counts)."""
    per_task = per_name.get(name)
    return statistics.median(per_task.values()) if per_task else 0.0


class _Patches:
    def __init__(self, tracer: Tracer, points):
        self.tracer = tracer
        self.points = points
        self.saved = []

    def __enter__(self):
        for owner, attr, name in self.points:
            original = owner.__dict__[attr]
            self.saved.append((owner, attr, original))
            setattr(owner, attr, self.tracer.wrap(getattr(owner, attr), name))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        self.saved.clear()
        return False
