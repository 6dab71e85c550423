"""Stdlib-only span recorder for the localsvm benchmark.

A span is one call of a wrapped library function: name, thread, start,
end, the id of the span that caused it, and a few work counts. Spans are
kept in memory and written as JSON lines when the process ends.

Parent links: inside one thread the parent is the innermost open span of
that thread. A span opened in a pool thread with nothing open there takes
the innermost open span of the main thread, which is the call that
submitted the work (``fit_composed`` or an audit map).
"""

from __future__ import annotations

import functools
import hashlib
import json
import threading
import time


class Recorder:
    def __init__(self):
        self.spans = []  # [id, parent, name, thread, start, end, attrs, failed]
        self._stacks = {}
        self._main = threading.get_ident()
        self._next_id = 0
        self._lock = threading.Lock()

    def _stack(self):
        tid = threading.get_ident()
        return tid, self._stacks.setdefault(tid, [])

    def wrap(self, fn, name, attrs=None):
        """Return ``fn`` recording one span per call; ``attrs(args, kwargs)``
        gives the span's work counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tid, stack = self._stack()
            if stack:
                parent = stack[-1][0]
            else:
                main = self._stacks.get(self._main)
                parent = main[-1][0] if main and tid != self._main else None
            with self._lock:
                sid = self._next_id
                self._next_id += 1
            record = [sid, parent, name, tid, 0.0, 0.0,
                      attrs(args, kwargs) if attrs else None, False]
            stack.append(record)
            record[4] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                record[7] = True
                raise
            finally:
                record[5] = time.perf_counter()
                stack.pop()
                self.spans.append(record)

        return traced

    def write(self, path):
        with open(path, "w") as fh:
            for sid, parent, name, tid, t0, t1, attrs, failed in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "thread": tid, "start": t0, "end": t1,
                                     "attrs": attrs, "failed": failed}) + "\n")


def content_hash(array) -> str:
    return hashlib.blake2b(array.tobytes(), digest_size=16).hexdigest()


def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for s, e in sorted(intervals):
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        elif e > cur_end:
            cur_end = e
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """{span id: duration minus the union of its child spans}."""
    children = {}
    for sp in spans:
        if sp["parent"] is not None:
            children.setdefault(sp["parent"], []).append((sp["start"], sp["end"]))
    out = {}
    for sp in spans:
        kids = [(max(s, sp["start"]), min(e, sp["end"]))
                for s, e in children.get(sp["id"], ())]
        kids = [(s, e) for s, e in kids if e > s]
        out[sp["id"]] = (sp["end"] - sp["start"]) - _covered(kids)
    return out


def ancestors(span, by_id):
    parent = span["parent"]
    while parent is not None:
        node = by_id[parent]
        yield node
        parent = node["parent"]


def covered_time(spans, start, end):
    """Time in [start, end] during which some root span (no parent) was open."""
    roots = [(max(sp["start"], start), min(sp["end"], end))
             for sp in spans if sp["parent"] is None]
    return _covered([(s, e) for s, e in roots if e > s])
