"""In-memory span recorder for the traced benchmark run.

Spans are opened around calls into each layer, either by the benchmark's own
code or by rebinding a library function where the calling module imported
it.  Each span records name, start, end (perf_counter nanoseconds) and the
index of its parent; spans stay in memory until `write`.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: int
    end: int
    parent: int  # index into the span list, -1 for a root


class Recorder:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._bindings: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter_ns(), 0, parent))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx].end = time.perf_counter_ns()

    def wrap(self, owner, attr: str, name):
        """Rebind owner.attr so every call through that binding opens a span.

        `name` is a string, or a callable taking the call's (args, kwargs)
        and returning one.
        """
        original = getattr(owner, attr)
        namer = name if callable(name) else (lambda args, kwargs: name)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(namer(args, kwargs)):
                return original(*args, **kwargs)

        setattr(owner, attr, traced)
        self._bindings.append((owner, attr, original))

    def unwrap_all(self) -> None:
        while self._bindings:
            owner, attr, original = self._bindings.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


def load(path) -> list[Span]:
    with open(path) as fh:
        return [Span(**d) for d in json.load(fh)]


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        covered = 0
        cursor = s.start
        for c in sorted(children.get(i, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(s.end - s.start - covered)
    return out


def root_of(spans: list[Span], idx: int) -> int:
    while spans[idx].parent >= 0:
        idx = spans[idx].parent
    return idx
