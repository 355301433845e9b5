"""Speed calibration: time measured at a fixed reference speed.

On a 2-vCPU Xeon VM at 2.1 GHz with Python 3.11.7, the same pure-Python
work ran at two speeds up to 1.8x apart, switching every few seconds, and
the two vCPUs switched independently (contention on shared host cores). A
fixed input timed over 25 s windows spread by 20% (quartile distance over
median) in wall time, and no run length fixes that.

So while a run is timed, a timer signal every PERIOD_S runs a fixed
reference loop and records how long it took. The calibrated duration of an
interval is its wall time, minus the time spent in those samples, times
NOMINAL_S / (reference time) averaged over the samples taken inside it (or
the nearest sample, for intervals shorter than the period). A calibrated
second is a second at the speed where the reference loop takes NOMINAL_S,
about that VM's fast state. On fixed inputs of 0.4 s and 3 s the
calibrated times spread by 2-3% where wall times spread by 10-30%. Raw wall
times are kept in the run details.
"""

from __future__ import annotations

import bisect
import signal
import time

PERIOD_S = 0.02
NOMINAL_S = 0.0003
_KEYS = {(i & 63, i >> 6): i for i in range(4096)}
_ROWS = tuple(tuple((i * j) % 7 - 3 for j in range(16)) for i in range(12))


def reference_loop() -> int:
    # Dict lookups on tuple keys and dot products over zip, the idioms of the
    # program's inner loops: a tight integer loop slowed down less than the
    # program did in the slow state and corrected only a third of the spread.
    keys, acc = _KEYS, 0
    for i in range(1000):
        acc += keys[(i & 63, (i * 7) & 63)]
    for a in _ROWS:
        for b in _ROWS[:8]:
            acc += sum(x * y for x, y in zip(a, b))
    return acc


class Calibrator:
    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._busy = [0.0]  # prefix sums of sample durations
        self._speed = [0.0]  # prefix sums of NOMINAL_S / sample duration

    def sample(self, *_signal_args):
        start = time.perf_counter()
        reference_loop()
        end = time.perf_counter()
        self.starts.append(start)
        self.ends.append(end)
        self._busy.append(self._busy[-1] + end - start)
        self._speed.append(self._speed[-1] + NOMINAL_S / (end - start))

    def __enter__(self):
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()
        return False

    def seconds(self, start: float, end: float) -> float:
        """Calibrated duration of the wall interval [start, end]."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        if hi > lo:
            busy = self._busy[hi] - self._busy[lo]
            factor = (self._speed[hi] - self._speed[lo]) / (hi - lo)
        else:
            busy = 0.0
            i = min(lo, len(self.starts) - 1)
            factor = NOMINAL_S / (self.ends[i] - self.starts[i])
        return (end - start - busy) * factor

    def factor(self) -> float:
        """Mean NOMINAL_S / reference time over all samples (1.0 = nominal)."""
        return self._speed[-1] / len(self.starts)
