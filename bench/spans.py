"""In-memory spans recorded around function calls, and their self time.

A span is one call: a name, a start and an end on the monotonic clock, the
span that was open when it started (its parent) and a dict of counts taken
at the call.  `Tracer.wrap` installs a recording wrapper by rebinding an
attribute on the object the caller looks it up on; `Tracer.restore` puts
every original back.  Spans stay in memory until `Tracer.dump`.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = float("nan")
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self._patches: list[tuple] = []

    def _begin(self, name: str) -> Span:
        parent = self._open[-1].id if self._open else None
        sp = Span(len(self.spans), parent, name, time.monotonic())
        self.spans.append(sp)
        self._open.append(sp)
        return sp

    def _finish(self, sp: Span) -> None:
        sp.end = time.monotonic()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        sp = self._begin(name)
        try:
            yield sp
        finally:
            self._finish(sp)

    def wrap(self, owner, attr: str, name: str, on_call=None, on_result=None) -> None:
        """Record a span per call of owner.attr.

        on_call(args, kwargs) returns counts stored on the span before the
        call; on_result(span, args, kwargs, result) inspects what the call
        returned.  A call that raises is marked with attrs["raised"].
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            sp = self._begin(name)
            if on_call is not None:
                sp.attrs.update(on_call(args, kwargs))
            try:
                result = original(*args, **kwargs)
            except BaseException:
                sp.attrs["raised"] = 1
                raise
            finally:
                self._finish(sp)
            if on_result is not None:
                on_result(sp, args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump([asdict(s) for s in self.spans], f)


def within(spans: list[Span], root: Span) -> list[Span]:
    """The spans that lie inside root's interval (root excluded)."""
    return [s for s in spans
            if s is not root and s.start >= root.start and s.end <= root.end]


def self_time(span: Span, spans: list[Span]) -> float:
    """span's duration minus the part of its interval its children cover."""
    covered, reach = 0.0, span.start
    for a, b in sorted((c.start, c.end) for c in spans if c.parent == span.id):
        a, b = max(a, reach), min(b, span.end)
        if b > a:
            covered += b - a
            reach = b
    return span.duration - covered
