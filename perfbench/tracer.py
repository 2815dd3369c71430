"""In-memory spans around calls into deoq_dyn's modules.

The tracer replaces a public name in the namespace that imports it (say
``deoq_dyn.sweep.fit_trace``) with a wrapper that records a span: name,
layer, start, end and the span that was open when it was called.  Nothing
under ``src/`` changes; ``restore`` puts every original back.  A name that
is not there to wrap is remembered as missing, so a metric that depends on
it reads as missing rather than as 0.  Spans nest through one shared
stack, so calls must come from one thread; the benchmark runs sweeps on one.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Optional


def _get(owner, attr):
    return owner.get(attr) if isinstance(owner, dict) else getattr(owner, attr, None)


def _set(owner, attr, value) -> None:
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


@dataclass
class Span:
    name: str
    layer: str
    parent: Optional[int]
    start: float
    end: float = 0.0
    children_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.children_s


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    missing: set = field(default_factory=set)
    _stack: list = field(default_factory=list)
    _patches: list = field(default_factory=list)

    def wrap(self, owner, attr: str, name: str, layer: str,
             count: Optional[Callable] = None) -> None:
        """Record a span around every call of ``owner.attr``.

        ``owner`` is a module or a dict (a dispatch table) holding the callable.
        ``count(counts, args, kwargs, result)`` runs after a call returns and
        adds that call's work to the shared counters.
        """
        original = _get(owner, attr)
        if not callable(original):
            self.missing.add(name)
            return
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(Span(name, layer, stack[-1] if stack else None, time.perf_counter()))
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            except Exception:
                counts[name + ".raised"] += 1
                raise
            finally:
                span = spans[index]
                span.end = time.perf_counter()
                stack.pop()
                if span.parent is not None:
                    spans[span.parent].children_s += span.duration
            counts[name + ".calls"] += 1
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        traced.__wrapped__ = original
        _set(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            _set(owner, attr, original)
        self._patches.clear()

    def total_s(self, *names: str) -> float:
        return sum(s.duration for s in self.spans if s.name in names)

    def self_s(self, layer: str) -> float:
        return sum(s.self_s for s in self.spans if s.layer == layer)
