"""In-memory spans recorded from outside the program.

The tracer replaces module attributes with timing wrappers for the
duration of a traced run. Callers inside `cubicunits` look those
attributes up at call time (`units.build_order(...)`, or a module-global
name such as `shortest_vector_norm`), so every call through the patched
name opens a span; no probe lives in the program itself.
"""

from __future__ import annotations

import contextlib
import functools
import json
from dataclasses import asdict, dataclass
from time import perf_counter_ns


@dataclass(slots=True)
class Span:
    id: int
    name: str
    start: int  # ns, perf_counter
    end: int
    parent: int | None
    member: int  # shared by all spans of one family member
    error: str | None = None  # exception class, on the span that raised it
    info: int | None = None   # per-target detail (bits used, grid size)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._member = -1
        self._seen: set[BaseException] = set()

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, perf_counter_ns(), 0, parent, self._member)
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn, info=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as e:
                if e not in self._seen:  # count an error where it arose only
                    self._seen.add(e)
                    span.error = type(e).__name__
                raise
            finally:
                self._close(span)
            if info is not None:
                span.info = info(result)
            return result
        return traced

    @contextlib.contextmanager
    def member(self, member_id: int):
        """Root span of one family member."""
        self._member = member_id
        span = self._open("member")
        try:
            yield
        finally:
            self._close(span)

    @contextlib.contextmanager
    def installed(self, targets):
        """Patch (module, attribute, span name, info) targets; restore on exit."""
        saved = []
        try:
            for module, attr, name, info in targets:
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self.wrap(name, fn, info))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


def self_times(spans: list[Span]) -> list[int]:
    """Self time of each span: its duration minus the part of its interval
    that its child spans cover (union of child intervals, clipped)."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for s in spans:
        covered, reach = 0, s.start
        for lo, hi in sorted(children.get(s.id, ())):
            lo, hi = max(lo, reach), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.end - s.start - covered)
    return out
