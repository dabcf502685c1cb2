"""Timing in calibrated seconds.

The host this benchmark was tuned on drifts in speed by about ±20% over
minutes. For a fixed loop, the medians of 15-s windows had an
interquartile range of 24% of their median, and the medians of 30-s
windows 23%. No run length averages that out. So every timed section is
followed by a fixed calibration loop. The section's duration is then
multiplied by NOMINAL / (mean of the calibration times just before and
just after it). A section that takes 1 s while the loop takes NOMINAL
seconds reads 1 s at any host speed. On that host this cut the spread
of 15-s medians of the program's own operations from 0.08-0.25 to
0.02-0.11.  Raw seconds are kept alongside.
"""
from __future__ import annotations

import time

import numpy as np

NOMINAL = 0.012


def _loop() -> int:
    # interpreted integer arithmetic plus small numpy calls: the mix the
    # program itself runs
    s = 0
    for i in range(120000):
        s += i * i
    a = np.arange(64, dtype=np.uint64)
    for i in range(400):
        a = (a ^ (a >> np.uint64(1))) + np.uint64(i)
    return s + int(a[0])


class Clock:
    def __init__(self):
        self.scales: list[float] = []
        self._before = self._calibrate()

    def _calibrate(self) -> float:
        t0 = time.perf_counter()
        _loop()
        return time.perf_counter() - t0

    def timed(self, fn, *args, **kwargs):
        """(fn's result, calibrated seconds, raw seconds) of one call."""
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        raw = time.perf_counter() - t0
        after = self._calibrate()
        scale = NOMINAL / ((self._before + after) / 2)
        self._before = after
        self.scales.append(scale)
        return result, raw * scale, raw
