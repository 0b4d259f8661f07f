"""Outside-in span tracing, recorded from the benchmark's own files.

A span is ``(name, start, end, parent, request)``: the harness opens
one around each call it makes into a layer of the stack.  Spans live in
memory for the whole pass and are written out once, at exit.  A span's
*self time* is its duration minus the part of that interval its child
spans cover (children may overlap — fan-out lanes — so coverage is the
union of their intervals, clipped to the parent).

Spans inside ``src/`` are out of scope here (ROADMAP item 5); where a
layer runs on a thread the harness does not own (the ``BatchRouter``
collector), its root span is recorded parentless and :meth:`Tracer.adopt`
attaches it afterwards to the caller span that contains it in time.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Thread-safe in-memory span recorder with per-thread nesting."""

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, parent: Span | None = None, request: int | None = None):
        """Record ``name`` around the block.  Nests under the innermost
        open span of this thread unless ``parent`` is given (fan-out
        lanes pass it explicitly); ``request`` is inherited likewise."""
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        if request is None and parent is not None:
            request = parent.request
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        span = Span(sid, name, 0.0, 0.0, parent.id if parent else None, request)
        stack.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)

    def adopt(self, orphan_name: str, parent_name: str) -> None:
        """Attach each parentless ``orphan_name`` span (and its subtree's
        request id) to the earliest ``parent_name`` span containing it."""
        parents = sorted(
            (s for s in self.spans if s.name == parent_name), key=lambda s: s.start
        )
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        for orphan in self.spans:
            if orphan.name != orphan_name or orphan.parent is not None:
                continue
            for cand in parents:
                if cand.start > orphan.start:
                    break
                if cand.end >= orphan.end:
                    orphan.parent = cand.id
                    todo = [orphan]
                    while todo:
                        node = todo.pop()
                        node.request = cand.request
                        todo.extend(children.get(node.id, ()))
                    break

    def write(self, path, meta: dict) -> None:
        """One compact JSON document: a name table plus one row per span
        (``[id, name#, start_us, end_us, parent, request]``, times
        relative to the first span)."""
        spans = sorted(self.spans, key=lambda s: s.id)
        names = sorted({s.name for s in spans})
        index = {name: i for i, name in enumerate(names)}
        t0 = min((s.start for s in spans), default=0.0)
        doc = {
            "meta": meta,
            "columns": ["id", "name", "start_us", "end_us", "parent", "request"],
            "names": names,
            "spans": [
                [
                    s.id, index[s.name],
                    round((s.start - t0) * 1e6, 1), round((s.end - t0) * 1e6, 1),
                    s.parent, s.request,
                ]
                for s in spans
            ],
        }
        with open(path, "w") as f:
            json.dump(doc, f, separators=(",", ":"))


def _covered(parent: Span, kids: list[Span]) -> float:
    """Length of the union of ``kids``' intervals, clipped to ``parent``."""
    total = 0.0
    cursor = parent.start
    for kid in sorted(kids, key=lambda s: s.start):
        lo = max(kid.start, cursor)
        hi = min(kid.end, parent.end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> self time (duration minus child coverage)."""
    kids: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            kids.setdefault(s.parent, []).append(s)
    return {s.id: s.duration - _covered(s, kids.get(s.id, [])) for s in spans}


def tree_problems(spans: list[Span]) -> list[str]:
    """Well-formedness violations: a span that ends before it starts, a
    child outside its parent's interval, a dangling parent id, or a
    negative self time.  Empty list = well formed."""
    by_id = {s.id: s for s in spans}
    problems = []
    for s in spans:
        if s.end < s.start:
            problems.append(f"span {s.id} ({s.name}) ends before it starts")
        if s.parent is None:
            continue
        parent = by_id.get(s.parent)
        if parent is None:
            problems.append(f"span {s.id} ({s.name}) has unknown parent {s.parent}")
        elif s.start < parent.start or s.end > parent.end:
            problems.append(
                f"span {s.id} ({s.name}) lies outside parent {parent.id} ({parent.name})"
            )
    # (a hair of slack: times reloaded from a trace file are rounded)
    problems += [
        f"span {sid} has negative self time {t:.3e}"
        for sid, t in self_times(spans).items()
        if t < -1e-9 * max(1.0, by_id[sid].duration)
    ]
    return problems
