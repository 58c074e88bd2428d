"""Spans recorded by the benchmark, written as a Chrome trace.

A span is one call into a layer, timed from outside: its name, a key
(the workload, binary or pair it served), start and end on the
monotonic clock, the process it ran in and the span that caused it.
Ids read "<pid>:<n>", numbered by the process that recorded the span.
Spans stay in memory and are written once, when the run ends. The file
opens offline in Perfetto (ui.perfetto.dev) or chrome://tracing.
"""

import contextlib
import json
import os
import time
from collections import defaultdict


class Spans:
    """In-memory span log; a disabled log records nothing."""

    def __init__(self, enabled):
        self.enabled = enabled
        self.events = []
        self._stack = []
        self._next_id = 0

    @contextlib.contextmanager
    def span(self, name, key=""):
        """Record the enclosed block as a child of the open span."""
        if not self.enabled:
            yield
            return
        self._next_id += 1
        span_id = self._next_id
        self._stack.append(span_id)
        start = time.monotonic_ns()
        try:
            yield
        finally:
            self._stack.pop()
            self.record(name, key, start, time.monotonic_ns(),
                        span_id=span_id)

    def record(self, name, key, start_ns, end_ns, pid=None, span_id=None):
        """Record a finished span; `pid` files it under a child process."""
        if not self.enabled:
            return
        if span_id is None:
            self._next_id += 1
            span_id = self._next_id
        me = os.getpid()
        self.events.append({
            "name": name, "ph": "X", "pid": pid or me, "tid": 0,
            "ts": start_ns / 1000.0, "dur": (end_ns - start_ns) / 1000.0,
            "args": {"id": f"{me}:{span_id}",
                     "parent": f"{me}:{self._stack[-1]}" if self._stack
                     else "",
                     "key": key},
        })

    def calibrate(self):
        """Measured cost of recording one span, in seconds."""
        before = len(self.events)
        n = 20000
        t0 = time.perf_counter()
        for _ in range(n):
            with self.span("calibrate", "k"):
                pass
        cost = (time.perf_counter() - t0) / n
        del self.events[before:]
        return cost

    def merge(self, path, parent):
        """Add the events another process wrote to `path`, its top-level
        spans as children of the span id `parent`."""
        with open(path) as f:
            for e in json.load(f):
                a = e["args"]
                a["id"] = f"{e['pid']}:{a['id']}"
                a["parent"] = f"{e['pid']}:{a['parent']}" if a["parent"] \
                    else parent
                self.events.append(e)

    def write(self, path, metadata):
        """Write every span, timestamps relative to the first one."""
        origin = min((e["ts"] for e in self.events), default=0.0)
        events = [dict(e, ts=e["ts"] - origin) for e in self.events]
        with open(path, "w") as f:
            json.dump({"traceEvents": events, "metadata": metadata}, f)


def self_times(events):
    """Seconds per span name, minus the time covered by its children.

    A child's interval is clipped to its parent's before subtracting.
    """
    children = defaultdict(list)
    for e in events:
        children[e["args"]["parent"]].append(e)
    totals = defaultdict(float)
    for e in events:
        start, end = e["ts"], e["ts"] + e["dur"]
        cover = sorted((max(start, c["ts"]), min(end, c["ts"] + c["dur"]))
                       for c in children.get(e["args"]["id"], []))
        covered, reach = 0.0, start
        for lo, hi in cover:
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        totals[e["name"]] += (e["dur"] - covered) / 1e6
    return dict(totals)
