"""Machine-speed reference for the timing metrics.

The shared machine the baseline was measured on (2 vCPUs) changes speed by
tens of per cent within seconds to minutes: one 1.2 s operation, repeated
for 40 s at a time, had medians from 0.89 s to 1.23 s, and ten raw `duals`
runs had a quartile spread of 0.21 in pass time.  So the benchmark times a
fixed numpy kernel, which does not use `ncgabor`, before the first
operation and after every operation, and scales each operation's wall time
by NOMINAL_S over the median kernel time within WINDOW_S seconds of the
operation.  A slower machine slows both and cancels; a slower `ncgabor`
does not.  The kernel mixes what the workloads spend their time on: FFTs,
complex arithmetic, a GEMM, sorts (one by rows, as in sparse-sequence
canonicalisation), a Python loop, and for about half its time streaming
over an 8 MB array, which tracks the memory-bound operations (Moyal
phase-space sums, continuous_chern) that the rest misses.  The raw wall
times are reported too; the array adds 8 MB to the process's memory.
"""

from __future__ import annotations

import statistics
from time import perf_counter

# Median kernel time on the baseline machine (2 vCPUs, numpy 2.4, OpenBLAS
# on one thread); scaled times read as seconds at that speed.
NOMINAL_S = 0.0137
WINDOW_S = 10.0


class Reference:
    """The kernel, and its timings as (time taken, median kernel seconds)."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._x = rng.normal(size=(16, 512)) + 1j * rng.normal(size=(16, 512))
        self._keys = rng.random(131072)
        self._idx = rng.integers(-60, 61, size=(6000, 2))
        self._stream = np.ones(1 << 20)
        self.samples = []

    def _once(self):
        np = self._np
        t0 = perf_counter()
        f = np.fft.ifft(np.fft.fft(self._x, axis=1) * np.exp(1j * self._x[0].real), axis=1)
        f @ f.conj().T
        np.sort(self._keys)
        np.unique(self._idx, axis=0)
        total = 0
        for i in range(1500):
            total += i * i
        for _ in range(12):
            np.multiply(self._stream, 1.0, out=self._stream)
        return perf_counter() - t0

    def measure(self, reps=3):
        """Record the median time of `reps` kernel runs."""
        seconds = statistics.median(self._once() for _ in range(reps))
        self.samples.append((perf_counter(), seconds))

    def factor(self, start, end):
        """Speed relative to nominal around [start, end]: NOMINAL_S / median."""
        near = [s for t, s in self.samples
                if start - WINDOW_S <= t <= end + WINDOW_S]
        return NOMINAL_S / statistics.median(near)
