"""Host-speed calibration: a fixed kernel timed beside every measured operation.

On a shared host the speed of a vCPU moves by 1.4-2x within seconds as
neighbouring machines come and go, and every timing moves with it: on
a 2-vCPU Xeon host, 30-second medians of the same call spread by up
to 0.47 of their median, so two sets of runs of the same code could
disagree by more than any useful regression bound. This module times
a fixed kernel right before and right after each measured operation
and scales the operation's time by ``CAL_NS`` over the geometric mean
of the two kernel times. A reported time is then what the operation
would take with the kernel at ``CAL_NS``; on the same host, this cut
the spread of 30-second medians by 2-3x. The correction is partial:
between the host's fast and slow states the kernel slows by about
1.5x, while the benchmark's calls slow by 1.1x (naive dot products
over 2^16 samples) to 1.9x (per-token steps of small numpy calls).

The kernel uses Python and numpy only, never streamconv, so no change
to the program can move it. Its mix follows the benchmark's work:
interpreter steps, small numpy calls, mid-size FFTs and a dot product
over a 2^16-sample operand.
"""

from __future__ import annotations

import math
import time

import numpy as np

now = time.perf_counter_ns

# The kernel's median time on the 2-vCPU Xeon host the bounds were set
# on. Any fixed value would do: only ratios between runs are compared.
CAL_NS = 20_000_000


class Calibration:
    """Times the kernel and scales operation times to the nominal speed."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._fft_in = rng.random(4096)
        self._big = rng.random(1 << 16)
        self._small = rng.random(8)
        self._mat = rng.random((8, 8))
        for _ in range(3):  # warm-up: first calls pay for allocation and plans
            self.kernel_ns()
        self._last = self.kernel_ns()
        self.samples: list = []

    def kernel_ns(self) -> int:
        t0 = now()
        acc, s = [], 0.0
        for i in range(30_000):
            s = s * 0.5 + i
            acc.append(s)
        small, mat = self._small, self._mat
        for _ in range(2_000):
            small.dot(small)
            mat @ small
        for _ in range(40):
            np.fft.irfft(np.fft.rfft(self._fft_in, 8192), 8192)
        big = self._big
        for _ in range(200):
            big.dot(big)
        return now() - t0

    def run(self, fn):
        """Run ``fn()``; return its result and the factor for its times.

        The factor is ``CAL_NS`` over the geometric mean of the kernel
        times right before and right after ``fn``. The kernel time
        after one operation serves as the time before the next.
        """
        before = self._last
        result = fn()
        self._last = after = self.kernel_ns()
        self.samples.append(after)
        return result, CAL_NS / math.sqrt(before * after)
