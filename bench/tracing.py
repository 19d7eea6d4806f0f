"""In-memory span recording for traced benchmark jobs, and its analysis.

A span is (name, start, end, parent) with times from perf_counter_ns; the
spans of one job form a tree under the root span.  They are kept in flat
arrays while the job runs and written to one file when it ends.  A span's
self time is its duration minus the durations of its direct children; the
program is single-threaded, so children never overlap and the self times
of a job sum exactly to the duration of its root span.

Standard library only; `trace_entry.py` attaches a Tracer to curvemoduli.
"""

from __future__ import annotations

import functools
import json
from array import array
from time import perf_counter_ns


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_ids = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("i")
        self.stack = [-1]
        self.counters = {}

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def current_name_id(self):
        """Name id of the innermost open span, -1 outside every span."""
        top = self.stack[-1]
        return self.name_ids[top] if top >= 0 else -1

    def count(self, key, n=1):
        self.counters[key] = self.counters.get(key, 0) + n

    def span_caller(self):
        """A function call_in_span(name_id, fn, *args) that records one span."""
        name_ids, starts, ends, parents, stack = (
            self.name_ids, self.starts, self.ends, self.parents, self.stack)

        def call_in_span(nid, fn, *args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter_ns()
                stack.pop()

        return call_in_span

    def wrap(self, name, fn):
        """fn wrapped so that every call records a span called `name`."""
        nid = self.name_id(name)
        call_in_span = self.span_caller()

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return call_in_span(nid, fn, *args, **kwargs)

        return wrapper

    def write(self, path, **extra):
        header = {"names": self.names, "counters": self.counters, "spans": len(self.starts),
                  "open": len(self.stack) - 1, **extra}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_ids, self.starts, self.ends, self.parents):
                arr.tofile(fh)


def read(path):
    """The header dict of a trace file, with the span arrays added."""
    with open(path, "rb") as fh:
        trace = json.loads(fh.readline())
        n = trace["spans"]
        for key, code in (("name_ids", "i"), ("starts", "q"), ("ends", "q"), ("parents", "i")):
            arr = array(code)
            arr.fromfile(fh, n)
            trace[key] = arr
    return trace


def self_times(trace):
    """Per-span self time in ns: duration minus the direct children's."""
    starts, ends, parents = trace["starts"], trace["ends"], trace["parents"]
    out = [e - s for s, e in zip(starts, ends)]
    for i, p in enumerate(parents):
        if p >= 0:
            out[p] -= ends[i] - starts[i]
    return out


def summarize(trace):
    """{span name: {"calls", "self_ns", "total_ns"}} over one trace."""
    names = trace["names"]
    out = {name: {"calls": 0, "self_ns": 0, "total_ns": 0} for name in names}
    for i, st in enumerate(self_times(trace)):
        row = out[names[trace["name_ids"][i]]]
        row["calls"] += 1
        row["self_ns"] += st
        row["total_ns"] += trace["ends"][i] - trace["starts"][i]
    return out


def child_calls(trace, parent_name, child_name):
    """Number of `child_name` spans whose direct parent is a `parent_name` span."""
    names, name_ids, parents = trace["names"], trace["name_ids"], trace["parents"]
    if parent_name not in names or child_name not in names:
        return 0
    pid, cid = names.index(parent_name), names.index(child_name)
    return sum(1 for i, p in enumerate(parents)
               if name_ids[i] == cid and p >= 0 and name_ids[p] == pid)
