"""Machine-speed calibration for end-to-end timings.

On a shared host a core's speed swings by up to 1.8x for seconds at a time
(neighbours on the sibling hyper-thread), so raw wall times from two runs of
the same code can differ by a third, and no amount of repetition inside one
run averages that out. While ops run, a SIGALRM handler times a fixed
reference kernel every ``INTERVAL_S``; each op's wall time, less the time
spent in the handler, is scaled by ``REF_KERNEL_S / kernel time`` averaged
over the samples taken during the op (for an op shorter than the interval,
the samples on either side of it). The kernel is benchmark code, so a change
to bsmguard cannot move it.
"""

from __future__ import annotations

import bisect
import math
import signal
import time

import numpy as np

#: A typical kernel pass on the 2-core x86-64 sandbox the benchmark was
#: tuned on (Python 3.11, numpy 2.4). It fixes the scale of the reported
#: seconds; comparisons between commits on one host do not depend on it.
REF_KERNEL_S = 0.00035

#: Seconds between kernel samples while ops run.
INTERVAL_S = 0.025


def reference_kernel() -> float:
    """Time one pass of fixed interpreter and small-array numpy work."""
    start = time.perf_counter()
    acc, text = 0.0, {}
    for i in range(200):
        x = i * 0.37
        acc += math.sqrt(x + 1.0) / (1.0 + x)
        text[i & 63] = repr(acc)
        acc -= float(text[i & 63]) * 1e-9
    a = np.linspace(0.0, 1.0, 256)
    for _ in range(4):
        a = np.sqrt(a * a + 1.0) - 0.5
    return time.perf_counter() - start


class SpeedSampler:
    """Samples the kernel from a timer signal for the life of a ``with`` block."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.kernel_s: list[float] = []
        self.stolen = 0.0  # wall time spent inside the handler so far
        self._busy = False
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        if self._busy:  # the timer fired during a direct call; keep times sorted
            return
        self._busy = True
        start = time.perf_counter()
        k = reference_kernel()
        self.times.append(start)
        self.kernel_s.append(k)
        self.stolen += time.perf_counter() - start
        self._busy = False

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> tuple[float, float]:
        """A point to time from: (clock, handler time so far)."""
        return time.perf_counter(), self.stolen

    def scaled_since(self, mark: tuple[float, float]) -> tuple[float, float]:
        """(wall, reference-speed) seconds of work since ``mark``."""
        end, stolen = time.perf_counter(), self.stolen
        start, stolen0 = mark
        wall = end - start - (stolen - stolen0)
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        if lo == hi:  # no sample inside the op: take the ones on either side
            self._sample()
            lo, hi = max(lo - 1, 0), len(self.times)
        speed = sum(REF_KERNEL_S / k for k in self.kernel_s[lo:hi]) / (hi - lo)
        return wall, wall * speed
