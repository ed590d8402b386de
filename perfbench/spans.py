"""In-memory span recorder for the traced benchmark run.

A span has a name, a start, an end, a parent and the id of the benchmark
operation it belongs to.  The parent is the innermost open span of the
calling thread; a thread with no open span (a pool worker) takes the
operation's root span instead, so chunk work done on other threads is still
attributed to the call that caused it.  Hot functions whose calls are too
many to keep one record each are counted instead, with their total time.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    op: str | None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, list] = {}      # name -> [calls, seconds]
        self.op: str | None = None
        self.root: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, **attrs):
        """Open a span on the calling thread; close it with end()."""
        stack = self._stack()
        parent = stack[-1][0] if stack else self.root
        sid = next(self._ids)
        stack.append((sid, name, parent, attrs))
        if parent is None:
            self.root = sid
        return sid, time.perf_counter()

    def end(self, token, **more) -> Span:
        t1 = time.perf_counter()
        sid, t0 = token
        stack = self._stack()
        top_sid, name, parent, attrs = stack.pop()
        if top_sid != sid:
            raise RuntimeError("spans must close in the order they opened")
        if parent is None:
            self.root = None
        span = Span(sid, name, t0, t1, parent, self.op, {**attrs, **more})
        self.spans.append(span)
        return span

    def count(self, name: str, seconds: float = 0.0) -> None:
        with self._lock:
            c = self.counters.setdefault(name, [0, 0.0])
            c[0] += 1
            c[1] += seconds

    # -- instrumentation of module and class attributes ---------------------

    def patch(self, owner, attr: str, wrap) -> None:
        """Replace owner.attr (owner is a module, class or dict) with
        wrap(original) until restore().  Callers that look the name up at
        call time see the replacement."""
        if isinstance(owner, dict):
            self._patches.append((owner, attr, owner[attr]))
            owner[attr] = wrap(owner[attr])
        else:
            self._patches.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrap(getattr(owner, attr)))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def wrap_span(self, owner, attr: str, name: str, attrs=None) -> None:
        """Record a span around every call of owner.attr.  attrs(args,
        result) may add attributes; it runs after the span's end time."""
        def wrap(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                token = self.begin(name)
                try:
                    out = fn(*args, **kwargs)
                except BaseException:
                    self.end(token, error=True)
                    raise
                span = self.end(token)
                if attrs is not None:
                    span.attrs.update(attrs(args, out))
                return out
            return traced

        self.patch(owner, attr, wrap)

    def wrap_count(self, owner, attr: str, name: str) -> None:
        """Count calls of owner.attr and their total time, without spans."""
        def wrap(fn):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.count(name, time.perf_counter() - t0)
            return counted

        self.patch(owner, attr, wrap)


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the part of it its child spans cover.

    Children on several threads may overlap; the overlap is counted once.
    """
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.sid: s.duration - _covered(children.get(s.sid, ()), s.start,
                                         s.end)
            for s in spans}
