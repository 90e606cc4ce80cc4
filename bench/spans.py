"""In-memory span tracer that wraps vesselmf functions at run time.

For the length of one invocation (``Tracer.invocation``) each target
function is rebound, in every loaded ``vesselmf`` module that holds a
reference to it, to a wrapper that records one span per call: name, start,
end, parent span, thread, request id, the invocation it belongs to, and
optional sizes taken from the arguments; the originals are put back when
the invocation ends, so the benchmark's own set-up and output checks never
show up as program work and untraced invocations run the program as is.
The program's source is never edited, so the same benchmark can trace any
commit whose functions keep their names; a function that no longer exists
is skipped and its metrics read as zero.  Parent tracking is per thread; spans opened in a worker thread with
nothing open in that thread get the invocation as parent.  The request id
is per thread too and is set by the wrapper of a function declared as a
request boundary (one dataset entry, one sweep combination); every span the
thread opens afterwards carries it.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int
    root: int
    thread: int
    rid: str | None
    info: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, targets):
        """``targets``: (module, attr, span_name, request, info) tuples."""
        self.targets = targets
        self.spans: list[Span] = []
        self.invocations: list[Span] = []
        self.missing: set[str] = set()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root: int | None = None
        self._patched: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, request, info):
        tracer = self

        def traced(*args, **kwargs):
            root = tracer._root
            if root is None:
                return fn(*args, **kwargs)
            local = tracer._local
            stack = local.__dict__.setdefault("stack", [])
            if request is not None:
                local.rid = _safe(request, args)
            parent = stack[-1] if stack else root
            sid = next(tracer._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(Span(
                    sid, name, start, end, parent, root,
                    threading.get_ident(), getattr(local, "rid", None),
                    _safe(info, args),
                ))

        return traced

    @contextmanager
    def invocation(self, name: str):
        """Trace one call into the program under a root span ``name``."""
        self._install()
        sid = next(self._ids)
        self._local.stack = []
        self._local.rid = None
        start = time.perf_counter()
        self._root = sid
        try:
            yield
        finally:
            self._root = None
            self.invocations.append(Span(
                sid, name, start, time.perf_counter(), 0, sid,
                threading.get_ident(), None))
            self._uninstall()

    # -- patching ----------------------------------------------------------

    def _install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "vesselmf"
                                         or n.startswith("vesselmf."))]
        for module_name, attr, span_name, request, info in self.targets:
            original = getattr(sys.modules.get(module_name), attr, None)
            if not callable(original):
                self.missing.add(span_name)
                continue
            wrapper = self._wrap(span_name, original, request, info)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def _uninstall(self):
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    # -- analysis ----------------------------------------------------------

    def by_name(self) -> dict:
        out = defaultdict(list)
        for span in self.spans:
            out[span.name].append(span)
        return out

    def children(self) -> dict:
        out = defaultdict(list)
        for span in self.spans:
            out[span.parent].append(span)
        return out


def _safe(fn, args):
    if fn is None:
        return None
    try:
        return fn(args)
    except Exception:  # sizes are optional; a changed signature must not fail the call
        return None


def covered(intervals, lo: float = float("-inf"),
            hi: float = float("inf")) -> float:
    """Length of the union of (start, end) intervals clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(span: Span, children: dict) -> float:
    """Span duration minus the part of it that child spans cover."""
    kids = [(c.start, c.end) for c in children.get(span.id, ())]
    return span.duration - covered(kids, span.start, span.end)


def write_jsonl(path, tracer: Tracer):
    """Dump every span, invocations first, one JSON object per line."""
    with open(path, "w") as fh:
        for span in tracer.invocations + tracer.spans:
            fh.write(json.dumps({
                "id": span.id, "name": span.name, "start": span.start,
                "end": span.end, "parent": span.parent, "root": span.root,
                "thread": span.thread, "rid": span.rid,
            }) + "\n")
