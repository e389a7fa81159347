"""In-memory spans around calls into osclab's public functions.

``Tracer.install`` replaces callables on their modules (or entries of a dict)
with timing wrappers and ``Tracer.restore`` puts the originals back.  Spans
nest through a stack: a span's self time is its duration minus the time its
child spans cover.  Only aggregates per span name are kept.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict


class SpanStats:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    def __init__(self):
        self.stats: dict[str, SpanStats] = defaultdict(SpanStats)
        #: observer name -> list of observed values
        self.observed: dict[str, list] = defaultdict(list)
        self._stack: list[float] = []
        self._saved: list[tuple] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        self._stack.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            children = self._stack.pop()
            stat = self.stats[name]
            stat.calls += 1
            stat.total += duration
            stat.self_time += duration - children
            if self._stack:
                self._stack[-1] += duration

    def wrap(self, name: str, fn, observe=None):
        """Span wrapper; ``observe(result, *args)`` values land in ``observed[name]``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if observe is not None:
                self.observed[name].append(observe(result, *args))
            return result

        return wrapper

    def count(self, name: str, fn, observe):
        """Wrapper that records ``observe(result, *args)`` without a span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.observed[name].append(observe(result, *args))
            return result

        return wrapper

    def install(self, owner, attr, wrapper_factory):
        """Replace ``owner.attr`` (or ``owner[attr]`` for a dict) by a wrapper."""
        getter, setter = _accessors(owner)
        original = getter(attr)
        self._saved.append((setter, attr, original))
        setter(attr, wrapper_factory(original))

    def restore(self):
        while self._saved:
            setter, attr, original = self._saved.pop()
            setter(attr, original)

    def self_time(self, name: str) -> float:
        return self.stats[name].self_time if name in self.stats else 0.0

    def total(self, name: str) -> float:
        return self.stats[name].total if name in self.stats else 0.0

    def calls(self, name: str) -> int:
        return self.stats[name].calls if name in self.stats else 0


def _accessors(owner):
    if isinstance(owner, dict):
        return owner.__getitem__, owner.__setitem__
    return (lambda attr: getattr(owner, attr)), (lambda attr, value: setattr(owner, attr, value))
