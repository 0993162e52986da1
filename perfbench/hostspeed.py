"""Host-speed calibration: a fixed reference computation timed through a run.

The benchmark runs on small shared machines whose execution speed drifts by
tens of percent over minutes, in CPU time as much as in wall time, as load on
neighbouring cores comes and goes.  Averaging inside one run cannot remove a
drift that outlasts the run.  So the driver times a fixed calibration kernel
next to every round and scales the round's times by the kernel's reference
time over its local median.  The kernel mixes an interpreter loop, small
numpy calls and dict building, which is where the program's hot paths spend
their time.  A reported time then reads "as on the reference host": a slower
host makes both the round and the kernel slower, and the ratio cancels.  A
code change moves the round and not the kernel, so it still shows in full.
"""

from __future__ import annotations

import statistics
import time
from typing import List, Tuple

import numpy as np

#: Kernel seconds on the reference host (a quiet 2-CPU x86-64 container,
#: Python 3.11, numpy 2.4).  It only sets the scale the times are reported in.
REFERENCE_KERNEL_S = 0.0025
#: At most one calibration point per this many seconds of timed loop.
INTERVAL_S = 0.25
#: Kernel passes per calibration point, per INTERVAL_S of work since the
#: previous point (about 5% of the run), so long rounds get as many as short.
REPEATS = 4
#: Cap on the passes of one calibration point.
MAX_PASSES = 40
#: Points this far either side of a stretch of work estimate its host speed.
#: Bursts shorter than this average out; drift over minutes is tracked.
MARGIN_S = 2.0


def kernel() -> dict:
    """One pass of the fixed reference computation."""
    total = 0
    for index in range(20000):
        total += index * index
    values = np.arange(64.0)
    for _ in range(300):
        values = np.sqrt(values * values + 1.0)
    table = {}
    for index in range(5000):
        table[index] = (index, total)
    return table


class HostSpeed:
    """Calibration points taken through a run, and the scales they give."""

    def __init__(self) -> None:
        #: (time, kernel seconds of each pass) per calibration point.
        self.points: List[Tuple[float, List[float]]] = []
        self._last = time.perf_counter()

    def calibrate(self, force: bool = False) -> None:
        """Time the kernel if a point is due (or ``force``)."""
        elapsed = time.perf_counter() - self._last
        if not force and elapsed < INTERVAL_S:
            return
        passes = min(MAX_PASSES, REPEATS * max(1, round(elapsed / INTERVAL_S)))
        samples = []
        for _ in range(passes):
            start = time.perf_counter()
            kernel()
            samples.append(time.perf_counter() - start)
        self._last = time.perf_counter()
        self.points.append((self._last, samples))

    def scale(self, start: float, end: float) -> float:
        """Reference over local kernel time for work done in [start, end].

        The local time is the median kernel pass over the points within
        :data:`MARGIN_S` of the stretch, or over the nearest point.
        """
        samples = [
            sample
            for when, passes in self.points
            if start - MARGIN_S <= when <= end + MARGIN_S
            for sample in passes
        ]
        if not samples:
            middle = (start + end) / 2
            samples = min(self.points, key=lambda point: abs(point[0] - middle))[1]
        return REFERENCE_KERNEL_S / statistics.median(samples)

    def kernel_ms(self) -> float:
        """Median kernel pass over the whole run."""
        return 1e3 * statistics.median(
            sample for _, passes in self.points for sample in passes
        )
