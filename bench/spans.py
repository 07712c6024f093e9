"""Spans recorded around the benchmark's own calls into each layer.

A span has a name, start and end times, the span that encloses it and the
item it belongs to.  Spans stay in memory until the run ends.  A layer's
self time is its span's duration minus the time its child spans cover;
single-threaded spans nest without overlap, so that is the duration minus
the children's durations.  With tracing off, ``span`` returns a shared
no-op context and records nothing.
"""

from __future__ import annotations

import json
from contextlib import contextmanager, nullcontext
from time import perf_counter

_OFF = nullcontext()


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.item: str | None = None
        self.counters: dict[str, int] = {}

    def span(self, name: str, probe: bool = False):
        """Time one layer call; ``probe`` marks calls made only to measure."""
        if not self.enabled:
            return _OFF
        return self._record(name, probe)

    @contextmanager
    def _record(self, name: str, probe: bool):
        sid = len(self.spans)
        rec = {
            "id": sid,
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "item": self.item,
            "probe": probe,
            "start": 0.0,
            "end": 0.0,
        }
        self.spans.append(rec)
        self._stack.append(sid)
        rec["start"] = perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = perf_counter()
            self._stack.pop()

    def add(self, name: str, n: int) -> None:
        if self.enabled:
            self.counters[name] = self.counters.get(name, 0) + n

    def peak(self, name: str, value: int) -> None:
        if self.enabled:
            self.counters[name] = max(self.counters.get(name, 0), value)

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec["parent"] is not None:
                child[rec["parent"]] += rec["end"] - rec["start"]
        out: dict[str, float] = {}
        for rec, covered in zip(self.spans, child):
            out[rec["name"]] = out.get(rec["name"], 0.0) + rec["end"] - rec["start"] - covered
        return out

    def durations(self, name: str) -> list[float]:
        return [r["end"] - r["start"] for r in self.spans if r["name"] == name]

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"counters": self.counters, "spans": self.spans}, fh)
