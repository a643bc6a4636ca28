"""In-memory span tracer wrapping layer entry points from outside the program.

A :class:`Tracer` replaces named functions and methods of the ``repro``
package with timing wrappers, records one span per call (name, start,
end, parent span, job id, thread, phase) in a list, and puts every
original back when it is closed.  Nothing is written while spans are
recorded: :func:`layer_summary` reduces them to per-name call counts and
self times afterwards, and :func:`write_chrome_trace` writes them in the
Chrome trace-event form that Perfetto opens next to
``repro exp --trace-out`` output.

Wrappers record only in the process and phase that installed them: a
worker forked from a traced client calls straight through, and so does
every call made while :attr:`Tracer.phase` is None.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from typing import Callable, NamedTuple


class Span(NamedTuple):
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    job: str | None
    tid: int
    phase: str


def resolve(target: str):
    """``"pkg.module:Class.attr"`` -> (owner object, attribute name)."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name)
    if not hasattr(owner, attr):
        raise AttributeError(f"{target} does not exist")
    return owner, attr


class Tracer:
    """Installs wrappers, records spans and counters, restores on close."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = defaultdict(float)
        #: Free-form per-call samples (e.g. client-observed job latency).
        self.samples: dict[str, list] = defaultdict(list)
        #: Recording phase; None records nothing.
        self.phase: str | None = None
        self._pid = os.getpid()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._installed: list[tuple[object, str, object, bool]] = []

    # -- recording -------------------------------------------------------

    def active(self) -> bool:
        return self.phase is not None and os.getpid() == self._pid

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: float = 1) -> None:
        if self.active():
            self.counters[f"{self.phase}:{name}"] += amount

    def timed(self, name: str, call: Callable, *, job: str | None = None):
        """Run ``call()`` inside a span; ``job`` starts a new job id."""
        if not self.active():
            return call()
        stack = self._stack()
        parent, parent_job = stack[-1] if stack else (None, None)
        sid = next(self._ids)
        job = job if job is not None else parent_job
        phase = self.phase
        stack.append((sid, job))
        start = time.perf_counter()
        try:
            return call()
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent, job,
                               threading.get_ident(), phase))

    # -- installing wrappers ---------------------------------------------

    def patch(self, target: str, make: Callable[[Callable], Callable]):
        """Replace ``target`` with ``make(original)`` until :meth:`close`."""
        owner, attr = resolve(target)
        had_own = isinstance(owner, type) and attr in owner.__dict__
        original = (owner.__dict__[attr] if had_own
                    else getattr(owner, attr))
        wrapper = functools.wraps(original)(make(original))
        self._installed.append((owner, attr, original,
                                had_own or not isinstance(owner, type)))
        setattr(owner, attr, wrapper)

    def wrap(self, target: str, name: str,
             call: Callable | None = None) -> None:
        """Record a span named ``name`` around every call of ``target``.

        ``call(original, args, kwargs)`` performs the call when given, so
        a layer can look at arguments or results without a second span.
        """
        def make(original):
            def wrapper(*args, **kwargs):
                if call is None:
                    return self.timed(name, lambda: original(*args, **kwargs))
                return self.timed(name,
                                  lambda: call(original, args, kwargs))
            return wrapper
        self.patch(target, make)

    def count_calls(self, target: str, name: str) -> None:
        """Count calls of ``target`` without a span (for per-event hooks)."""
        def make(original):
            def wrapper(*args, **kwargs):
                self.count(name)
                return original(*args, **kwargs)
            return wrapper
        self.patch(target, make)

    def close(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._installed:
            owner, attr, original, had_own = self._installed.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self.phase = None

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def recorded(self, phase: str | None = None) -> list[Span]:
        return [Span._make(s) for s in self.spans
                if phase is None or s[7] == phase]


# -- reduction ----------------------------------------------------------------

def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals
                     if min(b, hi) > max(a, lo))
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover.

    Children that overlap each other are counted once, and a child that
    outlives its parent only covers the parent's own interval.
    """
    children: dict[int, list] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {span.sid: (span.end - span.start)
            - covered_length(children.get(span.sid, ()), span.start, span.end)
            for span in spans}


def layer_summary(spans: list[Span]) -> dict[str, dict]:
    """Per span name: calls, inclusive seconds and self seconds."""
    own = self_times(spans)
    summary: dict[str, dict] = defaultdict(
        lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
    for span in spans:
        row = summary[span.name]
        row["calls"] += 1
        row["incl_s"] += span.end - span.start
        row["self_s"] += own[span.sid]
    return dict(summary)


def chrome_trace_events(spans: list[Span]) -> list[dict]:
    """Duration events, one track per recording thread."""
    origin = min((s.start for s in spans), default=0.0)
    pid = os.getpid()
    tids: dict[int, int] = {}
    events = [{"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
               "args": {"name": "perfbench client"}}]
    for span in sorted(spans, key=lambda s: s.start):
        if span.tid not in tids:
            tids[span.tid] = len(tids) + 1
            events.append({"ph": "M", "name": "thread_name", "pid": pid,
                           "tid": tids[span.tid],
                           "args": {"name": f"thread {tids[span.tid]}"}})
        events.append({
            "ph": "X", "name": span.name, "cat": span.name.split(".")[0],
            "pid": pid, "tid": tids[span.tid],
            "ts": (span.start - origin) * 1e6,
            "dur": (span.end - span.start) * 1e6,
            "args": {"span": span.sid, "parent": span.parent,
                     "job": span.job, "phase": span.phase},
        })
    return events


def write_chrome_trace(path: str, spans: list[Span]) -> int:
    """Write spans as a Perfetto-loadable trace; returns the event count."""
    events = chrome_trace_events(spans)
    with open(path, "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f,
                  separators=(",", ":"))
        f.write("\n")
    return len(events)
