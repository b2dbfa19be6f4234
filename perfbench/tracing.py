"""Spans recorded around calls into seqtag's modules, from outside them.

A `Tracer` wraps named functions and methods (module globals where the
caller looks them up, class attributes for methods) so that every call
records a span: name, start, end and parent.  Spans stay in memory; the
benchmark reduces them to per-layer numbers when the run ends.  Every
original is put back when `installed()` exits, even on an error.

Work the tracer does for itself (counting tape entries, reading
gradients) runs in `trace.bookkeeping` spans, outside the span of the
call it describes, so it shows up as the `trace` layer instead of
inflating a program layer.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    meta: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class NullTracer:
    """Stand-in for untraced runs: spans cost one `nullcontext`."""

    def span(self, name: str, **meta):
        return nullcontext()


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, **meta):
        parent = self._stack[-1] if self._stack else None
        record = Span(name, self.clock(), parent=parent, meta=meta)
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record.end = self.clock()
            self._stack.pop()

    def wrap(self, owner, attr: str, name: str, meta_fn=None):
        """Replace `owner.attr` by a function that calls the original inside
        a span.  `meta_fn(*args, **kwargs)` runs first, in a bookkeeping
        span, and its dict is attached to the call's span."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        tracer = self

        def traced(*args, **kwargs):
            meta = {}
            if meta_fn is not None:
                with tracer.span("trace.bookkeeping"):
                    meta = meta_fn(*args, **kwargs)
            with tracer.span(name, **meta):
                return original(*args, **kwargs)

        setattr(owner, attr, traced)

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self, targets):
        """Apply `targets`, a list of `wrap` argument tuples, for the body."""
        try:
            for target in targets:
                self.wrap(*target)
            yield self
        finally:
            self.restore()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval that its child
    spans cover (overlapping children are counted once)."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = []
    for idx, s in enumerate(spans):
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(idx, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(s.duration - covered)
    return out


def descendants(spans: list[Span], root: int) -> list[int]:
    """Indices of `root` and every span below it.  Spans are appended in
    start order, so a parent always precedes its children."""
    inside = {root}
    for idx in range(root + 1, len(spans)):
        if spans[idx].parent in inside:
            inside.add(idx)
    return sorted(inside)


def has_ancestor(spans: list[Span], idx: int, name: str) -> bool:
    parent = spans[idx].parent
    while parent is not None:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False
