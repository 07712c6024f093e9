"""A fixed reference computation that tracks how fast the machine runs right now.

The benchmark shares a few cores of a host with other machines, and the
speed those cores give a Python process drifts by a third or more over a
few seconds, the same way for every kind of work (process CPU time moves
with wall time, so the drift is not stolen time but slower execution).
Times measured minutes apart are therefore not comparable as they stand.

``reference_work`` is a fixed piece of pure-Python work in the style of the
program: frozensets of corner tuples, dict look-ups keyed by them, small
objects, sorting, set intersections and big-integer binomials.  It calls
nothing in cubicomb, so no change to the program can change its cost.  The
run samples it between items, once per ``EVERY_S`` seconds of items, and an
item's time is scaled by ``NOMINAL_S`` over the median of the samples taken
around it: every time the benchmark reports is the time the item would take
on this machine at the speed where ``reference_work`` takes ``NOMINAL_S``.
"""

from __future__ import annotations

import gc
import statistics
from bisect import bisect_left, bisect_right
from itertools import combinations
from math import comb
from time import perf_counter

# Median of reference_work on a 2-vCPU 2.1 GHz x86-64 guest, CPython 3.
NOMINAL_S = 0.010
EVERY_S = 0.25  # one sample per this much item time, taken between items
BURST = 4  # most samples taken at once, after a long item
WINDOW_S = 1.0  # samples this close to an item scale it
MIN_SAMPLES = 5  # or the nearest this many samples, if the window holds fewer


class _Corner:
    __slots__ = ("key", "dim", "corners")

    def __init__(self, key, dim, corners):
        self.key = key
        self.dim = dim
        self.corners = corners


def reference_work() -> int:
    """The fixed computation; returns a checksum so nothing is optimised away."""
    faces: dict[frozenset, _Corner] = {}
    cells = []
    for x in range(20):
        for y in range(20):
            base = x * 21 + y
            cell = (base, base + 1, base + 21, base + 22)
            cells.append(frozenset(cell))
            for j in (0, 1, 2):
                for sub in combinations(cell, 1 << j if j < 2 else 4):
                    key = frozenset(sub)
                    if key not in faces:
                        faces[key] = _Corner(key, j, tuple(sorted(sub)))
    meets = 0
    for a in range(len(cells)):
        ka = cells[a]
        for b in range(a + 1, min(a + 12, len(cells))):
            inter = ka & cells[b]
            if inter and inter in faces:
                meets += faces[inter].dim + 1
    order = sorted(faces.values(), key=lambda f: (f.dim, f.corners))
    big = sum(comb(200 + t, t) % 1000003 for t in range(150))
    return meets + len(order) + big


class Speed:
    """Reference samples taken during a run, and the scale they give an interval."""

    def __init__(self):
        self.mids: list[float] = []
        self.times: list[float] = []
        self._last = float("-inf")

    def sample(self) -> None:
        # With the collector on, the sample would also pay for scanning
        # whatever heap the workload holds at that moment.
        gc.disable()
        try:
            t0 = perf_counter()
            reference_work()
            t1 = perf_counter()
        finally:
            gc.enable()
        self.mids.append((t0 + t1) / 2)
        self.times.append(t1 - t0)
        self._last = t1

    def maybe_sample(self) -> None:
        """Sample as often as EVERY_S asks since the last sample, up to BURST."""
        for _ in range(min(BURST, int((perf_counter() - self._last) / EVERY_S))):
            self.sample()

    def scale(self, t0: float, t1: float) -> float:
        """NOMINAL_S over the median reference time around [t0, t1]."""
        lo = bisect_left(self.mids, t0 - WINDOW_S)
        hi = bisect_right(self.mids, t1 + WINDOW_S)
        if hi - lo < MIN_SAMPLES:
            centre = bisect_left(self.mids, (t0 + t1) / 2)
            lo = max(0, min(centre - MIN_SAMPLES // 2, len(self.mids) - MIN_SAMPLES))
            hi = lo + MIN_SAMPLES
        return NOMINAL_S / statistics.median(self.times[lo:hi])
