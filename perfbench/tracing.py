"""Spans around the benchmark's own calls into the rghw layers.

The benchmark never patches the package: a span covers exactly one call
that the benchmark makes into a public function, so work a public
function does inside another (say `band_size` inside `hierarchy`) is
part of the caller's span.  With tracing off, `call` is a plain call.
"""

from __future__ import annotations

import json
from time import perf_counter

# span record fields
ID, NAME, START, END, PARENT, REQUEST, NOTE = range(7)


class Tracer:
    """Keeps spans in memory while `enabled`; `dump` writes them out.

    A span is [id, name, start, end, parent id, request id, note].  Request
    spans (opened with `request`) are the parents of the layer spans made
    by `call` while they are open.
    """

    def __init__(self):
        self.enabled = False
        self.spans: list[list] = []
        self._open: list[list] = []

    def _begin(self, name, request, note):
        parent = self._open[-1] if self._open else None
        span = [
            len(self.spans),
            name,
            perf_counter(),
            None,
            None if parent is None else parent[ID],
            request if parent is None else parent[REQUEST],
            note,
        ]
        self.spans.append(span)
        self._open.append(span)
        return span

    def _finish(self, span):
        span[END] = perf_counter()
        self._open.pop()

    def call(self, name, fn, *args, note=None):
        if not self.enabled:
            return fn(*args)
        span = self._begin(name, None, note)
        try:
            return fn(*args)
        finally:
            self._finish(span)

    def request(self, name, request_id):
        """Context manager for a request span (a no-op with tracing off)."""
        return _RequestSpan(self, name, request_id)

    def dump(self, path) -> None:
        keys = ("id", "name", "start", "end", "parent", "request", "note")
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(keys, span))) + "\n")


class _RequestSpan:
    __slots__ = ("tracer", "name", "request_id", "span")

    def __init__(self, tracer, name, request_id):
        self.tracer, self.name, self.request_id, self.span = tracer, name, request_id, None

    def __enter__(self):
        if self.tracer.enabled:
            self.span = self.tracer._begin(self.name, self.request_id, None)
        return self

    def __exit__(self, *exc):
        if self.span is not None:
            self.tracer._finish(self.span)
        return False


def self_times(spans) -> dict:
    """Self time per span name: each span's duration minus the time its
    child spans cover (children run one after another, never overlap)."""
    child_time: dict = {}
    for span in spans:
        if span[PARENT] is not None:
            child_time[span[PARENT]] = child_time.get(span[PARENT], 0.0) + span[END] - span[START]
    out: dict = {}
    for span in spans:
        own = span[END] - span[START] - child_time.get(span[ID], 0.0)
        out[span[NAME]] = out.get(span[NAME], 0.0) + own
    return out
