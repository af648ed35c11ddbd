"""Reference time: wall time scaled to a fixed speed of the CPU.

On a shared host the CPU a process gets runs faster or slower for seconds
at a time (another tenant on the same core, a frequency change), and every
wall-clock duration moves with it, by up to half. `RefClock` runs a fixed
calibration kernel, which uses nothing of mvmae, at operation boundaries at
least every INTERVAL_S of wall time. It converts each stretch of wall time
between two kernel runs to reference time: the stretch times
KERNEL_REFERENCE_MS over the mean kernel time at its two ends. The kernel
runs themselves count as no time. A change to the program moves reference
time as it moves wall time; a change in the host's speed slows the kernel
by as much and cancels out.

`WallClock` has the same interface and measures plain wall time.
"""

from __future__ import annotations

import bisect
from time import perf_counter

import numpy as np

# the kernel's time in ms on the machine the benchmark was tuned on, when
# that machine was not slowed; reference ms read as wall ms there
KERNEL_REFERENCE_MS = 4.0
INTERVAL_S = 0.25  # wall time between kernel runs, at most ~2% overhead


def kernel() -> float:
    """Fixed work of the same kind as the program's: an interpreter loop and
    small numpy operations."""
    total = 0
    for i in range(40_000):
        total += i * i % 7
    a = np.arange(64 * 64, dtype=np.float64).reshape(64, 64) / 4096.0
    for _ in range(60):
        a = np.tanh(a @ a.T * 0.01 + a)
    return total + float(a.sum())


class WallClock:
    """Plain wall time; `tick` and `calibrate` do nothing."""

    def tick(self) -> None:
        pass

    def calibrate(self) -> None:
        pass

    def seconds(self, start: float, end: float) -> float:
        return end - start


class RefClock:
    """Reference time between perf_counter timestamps taken in this process
    while the clock was calibrating."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.marks: list[tuple[float, float]] = []  # (start, end) of each kernel run
        self._table: tuple[list[float], list[float], float, float] | None = None

    def calibrate(self) -> None:
        start = perf_counter()
        kernel()
        self.marks.append((start, perf_counter()))
        self._table = None

    def tick(self) -> None:
        """Run the kernel if INTERVAL_S has passed since it last ran."""
        if not self.marks or perf_counter() - self.marks[-1][1] >= self.interval:
            self.calibrate()

    def kernel_ms(self) -> list[float]:
        return [1e3 * (end - start) for start, end in self.marks]

    def _build(self) -> tuple[list[float], list[float], float, float]:
        # knots at each kernel run's start and end; reference time is flat
        # across a kernel run and rises between runs at the stretch's rate
        if len(self.marks) < 2:
            raise ValueError("reference time needs at least two calibrations")
        ms = self.kernel_ms()
        rates = [2 * KERNEL_REFERENCE_MS / (a + b) for a, b in zip(ms, ms[1:])]
        knots, values = [], []
        total = 0.0
        for i, (start, end) in enumerate(self.marks):
            if i:
                total += (start - knots[-1]) * rates[i - 1]
            knots += [start, end]
            values += [total, total]
        return knots, values, rates[0], rates[-1]

    def reference(self, t: float) -> float:
        """Reference seconds from the first calibration to wall time `t`;
        outside the calibrated stretch, extrapolated at the nearest rate."""
        if self._table is None:
            self._table = self._build()
        knots, values, first_rate, last_rate = self._table
        if t <= knots[0]:
            return (t - knots[0]) * first_rate
        if t >= knots[-1]:
            return values[-1] + (t - knots[-1]) * last_rate
        i = bisect.bisect_right(knots, t) - 1
        return values[i] + (values[i + 1] - values[i]) * (t - knots[i]) / (knots[i + 1] - knots[i])

    def seconds(self, start: float, end: float) -> float:
        return self.reference(end) - self.reference(start)
