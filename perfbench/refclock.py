"""A clock that reads in reference seconds: wall time corrected for the host's speed.

The benchmark runs on a host whose cores are shared with other tenants.
Their load slows every instruction of a run, by up to half, for
stretches of seconds to minutes, so raw wall times of identical work
differ more from run to run than any change worth detecting.

:class:`RefClock` times a fixed pure-Python kernel (:func:`kernel`, with
the garbage collector off) at the boundaries between cells, passes and
set-ups, at least every :data:`CALIBRATION_INTERVAL_S` seconds.  A stretch
of program time between two calibrations counts as::

    elapsed seconds * NOMINAL_KERNEL_S / kernel seconds nearby

reference seconds, where "nearby" is the mean over the
:data:`CALIBRATION_WINDOW` closest calibrations.  So a reference second is
a second on a host that runs the kernel in :data:`NOMINAL_KERNEL_S`.  The
kernel is part of the benchmark, not of the program: a change to the
program moves reference seconds exactly as it moves wall seconds, while a
slow stretch of the host moves the kernel and the program alike and
cancels.  Time spent calibrating is left out of every interval.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time
from typing import List, Optional

#: Loop iterations of the kernel's dictionary part ...
KERNEL_ITERATIONS = 2_500
#: ... small graphs built in its allocation part ...
KERNEL_GRAPHS = 220
#: ... and copies of :data:`_TAPE` in its bulk-copy part (together about
#: 5 to 8 ms on a 2-vCPU cloud VM).
KERNEL_COPIES = 45
_TAPE = tuple("01" * 2_500)
#: The kernel's duration on the reference host.
NOMINAL_KERNEL_S = 0.0075
#: A boundary calibrates once this much program time has passed since the last calibration.
CALIBRATION_INTERVAL_S = 0.1
#: A segment between two calibrations is scaled by the mean kernel time of
#: this many calibrations around it (half before, half after).
CALIBRATION_WINDOW = 6


def kernel() -> int:
    """The fixed calibration work.

    Three parts, because host contention slows them by different amounts:
    interpreted dictionary and tuple work (what canonical keys, views and
    store digests do), building many small dicts and sets (what ball
    extraction and induced subgraphs do) and C-level copying of long
    tuples and lists (what Turing-machine steps do).  The sum tracks each
    kind of program work better than any part alone.
    """
    table = {}
    total = 0
    for i in range(KERNEL_ITERATIONS):
        key = (i % 997, i % 13)
        table[key] = table.get(key, 0) + 1
        total += len(str(i))
    for i in range(KERNEL_GRAPHS):
        nodes = range(i % 7, i % 7 + 12)
        adjacency = {v: {v - 1, v + 1, v + 3} for v in nodes}
        edges = frozenset((v, w) for v in nodes for w in adjacency[v] if v < w)
        total += len(edges)
    tape = _TAPE
    for _ in range(KERNEL_COPIES):
        cells = list(tape)
        cells.append("b")
        tape = tuple(cells)[:len(_TAPE)]
    return total + len(sorted(table.items())) + len(tape)


class RefClock:
    """Program time (wall time minus calibration) and its conversion to reference seconds.

    ``interval=None`` turns :meth:`tick` off, so only explicit
    :meth:`calibrate` calls calibrate (traced runs use this, so that no
    calibration happens inside a traced span).
    """

    def __init__(self, interval: Optional[float] = CALIBRATION_INTERVAL_S) -> None:
        self.interval = interval
        self._paused = 0.0
        #: program times of the calibrations and the kernel's seconds at each
        self._times: List[float] = []
        self._kernel_s: List[float] = []
        self._reference: List[float] = []
        self.calibrate()

    def now(self) -> float:
        """Program time: wall seconds with the time spent calibrating taken out."""
        return time.perf_counter() - self._paused

    def calibrate(self) -> None:
        """Time the kernel once."""
        gc_was_on = gc.isenabled()
        gc.disable()
        started = time.perf_counter()
        try:
            kernel()
        finally:
            ended = time.perf_counter()
            if gc_was_on:
                gc.enable()
        self._times.append(started - self._paused)
        self._kernel_s.append(ended - started)
        self._paused += ended - started
        self._reference = []

    def tick(self) -> None:
        """Calibrate if the last calibration is at least ``interval`` seconds old."""
        if self.interval is not None and self.now() - self._times[-1] >= self.interval:
            self.calibrate()

    def _factor(self, segment: int) -> float:
        """Reference seconds per program second from calibration ``segment`` to the next."""
        half = CALIBRATION_WINDOW // 2
        nearby = self._kernel_s[max(0, segment + 1 - half):segment + 1 + half]
        return NOMINAL_KERNEL_S / statistics.fmean(nearby)

    def _at(self, t: float) -> float:
        """Reference time of program time ``t`` (0 at the first calibration)."""
        if not self._reference:
            self._reference = [0.0]
            for i in range(len(self._times) - 1):
                self._reference.append(self._reference[-1] + (self._times[i + 1] - self._times[i]) * self._factor(i))
        i = max(0, bisect.bisect_right(self._times, t) - 1)
        return self._reference[i] + (t - self._times[i]) * self._factor(i)

    def seconds(self, start: float, end: float) -> float:
        """Reference seconds between program times ``start`` and ``end``."""
        return self._at(end) - self._at(start)

    def slowdown(self) -> float:
        """Mean kernel time over the nominal one: how slow the host ran."""
        return statistics.fmean(self._kernel_s) / NOMINAL_KERNEL_S
