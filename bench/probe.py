"""Host-speed probe.

On a shared virtual machine the speed of the host drifts by about 20% either
way over seconds to minutes, because other tenants share its cores: runs of
one workload read from 400 to 580 cases per second.  Shared-core slowdown
hits all interpreter-bound code alike, so the probe times a fixed pure-Python kernel
(``Fraction`` sums; no schwarztri code) between cases, and a case's time is
scaled by ``REFERENCE_NS`` over the probe's time around the case.  Scaled
times read as if the host ran the kernel in ``REFERENCE_NS``; a change to
the program moves them as it moves raw times, while the drift cancels.
Raw times are reported beside them.

The speed also changes within a case that runs for a second, so while a
case runs a timer takes a probe point every ``INSIDE_S`` seconds, and the
case is scaled by the mean of every point from the one before it to the one
after it.  The points taken inside a case are subtracted from its time.  On
sweep calls of 0.8 s this cut the spread of identical calls within a run
from 12-16% to 4-6%.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import signal
import statistics
import time
from fractions import Fraction

REFERENCE_NS = 600_000  # about the kernel's time on an idle 2-vCPU Intel Xeon VM
INTERVAL_NS = 100_000_000  # at most one probe point per 0.1 s between cases
INSIDE_S = 0.05  # one probe point per 0.05 s inside a case, about 5% of its time


def _kernel() -> Fraction:
    total = Fraction(0)
    for i in range(1, 250):
        total += Fraction(1, i)
    return total


def probe_ns() -> int:
    """Fastest of three kernel runs, after one untimed run refills the caches
    the last case evicted.  The cyclic collector is off meanwhile: a
    collection would scan the case's heap and charge it to the probe."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        _kernel()
        times = []
        for _ in range(3):
            start = time.perf_counter_ns()
            _kernel()
            times.append(time.perf_counter_ns() - start)
    finally:
        if enabled:
            gc.enable()
    return min(times)


class SpeedProbe:
    """Probe points (start time, kernel ns, cost ns) taken between cases and,
    unless ``inside`` is false, inside them.  A traced run passes false, so
    that no probe time lands in a span."""

    def __init__(self, inside: bool = True):
        self.times: list[int] = []
        self.kernel_ns: list[int] = []
        self.costs: list[int] = []
        self.probe_inside = inside
        self._sampling = False

    def sample(self) -> None:
        if self._sampling:  # a timer signal that arrives during a probe
            return
        self._sampling = True
        try:
            start = time.perf_counter_ns()
            kernel = probe_ns()
            self.times.append(start)
            self.kernel_ns.append(kernel)
            self.costs.append(time.perf_counter_ns() - start)
        finally:
            self._sampling = False

    def maybe_sample(self) -> None:
        if not self.times or time.perf_counter_ns() - self.times[-1] >= INTERVAL_NS:
            self.sample()

    @contextlib.contextmanager
    def inside(self):
        """Take a probe point every ``INSIDE_S`` while the block runs."""
        if not self.probe_inside:
            yield
            return
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, INSIDE_S, INSIDE_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def busy_ns(self, start: int, end: int) -> int:
        """``end - start`` less the probe points taken in between."""
        first = bisect.bisect_right(self.times, start)
        last = bisect.bisect_left(self.times, end)
        return end - start - sum(self.costs[first:last])

    def scale(self, start: int, end: int) -> float:
        """REFERENCE_NS over the mean kernel time of the last point before
        ``start``, the points in between and the first point after ``end``."""
        before = bisect.bisect_right(self.times, start) - 1
        after = bisect.bisect_left(self.times, end)
        if before < 0 or after >= len(self.times):
            raise ValueError("a case needs a probe point on each side")
        return REFERENCE_NS / statistics.fmean(self.kernel_ns[before:after + 1])
