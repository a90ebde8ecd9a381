"""Span tracing of the program's layers from outside the program.

The tracer replaces public functions by module attribute with wrappers that
record a span per call: name, layer, start, end, parent span and a work count
derived from the call's arguments or result. The program looks these names
up at call time (``dynamics.run_single``, ``analysis.concurrence``, ...), so
nested calls are caught too; names a module imported with ``from ... import``
are patched in that module as well. The originals are restored on exit.

A span's self time is its duration minus the time its direct child spans
cover; a layer's self time is the sum over its spans. A layer's busy time is
the inclusive time of its outermost spans (spans with no ancestor in the
same layer), so nested calls within one layer are not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable


@dataclass(slots=True)
class Span:
    name: str
    layer: str
    start: float
    end: float = 0.0
    parent: int = -1
    work: int = 1


def _one(*_args, **_kwargs) -> int:
    return 1


@dataclass(frozen=True)
class Target:
    """A function to wrap: ``module.attr``, its span name, layer and work count.

    ``work(args, kwargs, result)`` gives the span's work count (default 1).
    """
    module: str
    attr: str
    name: str
    layer: str
    work: Callable = _one


@dataclass
class Tracer:
    clock: Callable[[], float] = time.perf_counter
    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)

    def wrap(self, fn: Callable, name: str, layer: str, work: Callable = _one) -> Callable:
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, layer, 0.0, parent=stack[-1] if stack else -1)
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            span.work = work(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def patched(self, targets: list[Target]):
        """Install wrappers for `targets` for the duration of the block."""
        saved = []
        wrapped: dict[tuple[str, str], Callable] = {}
        try:
            for t in targets:
                module = importlib.import_module(t.module)
                original = getattr(module, t.attr)
                key = (original.__module__, original.__qualname__)
                if key not in wrapped:
                    wrapped[key] = self.wrap(original, t.name, t.layer, t.work)
                saved.append((module, t.attr, original))
                setattr(module, t.attr, wrapped[key])
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_times(self) -> list[float]:
        """Per span: duration minus the duration of its direct children."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own

    def summary(self, by: str = "layer") -> dict[str, dict[str, float]]:
        """Per layer (or per span name, with ``by="name"``): calls, work and
        busy time of its outermost spans (spans with no ancestor in the same
        layer), and self time over all its spans."""
        out: dict[str, dict[str, float]] = {}
        for s, own in zip(self.spans, self.self_times()):
            row = out.setdefault(getattr(s, by), {"calls": 0, "work": 0, "busy_s": 0.0,
                                                  "self_s": 0.0})
            row["self_s"] += own
            p = s.parent
            while p >= 0 and self.spans[p].layer != s.layer:
                p = self.spans[p].parent
            if p < 0:
                row["calls"] += 1
                row["work"] += s.work
                row["busy_s"] += s.end - s.start
        return out
