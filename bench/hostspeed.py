"""Host speed, measured by a fixed kernel that never calls the program.

On a shared host the speed of one core drifts by tens of percent over a
few minutes, as other tenants come and go, and the drift moves a whole
run at once, so no amount of repetition inside a run averages it out.
The benchmark therefore times a fixed reference kernel between operations,
for a fixed share of the time that has passed, and reports its times in
*reference seconds*: measured seconds times ``REFERENCE_KERNEL_S`` over the
run's mean kernel time. A change to the program moves these figures as it
moves raw time; a slower host slows the kernel too and cancels out. Raw
seconds and the factor are printed on the detail line.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# About the kernel's median time on the reference host (2 CPUs, Python 3.11,
# numpy 2.4 with one OpenBLAS thread); it only sets the scale.
REFERENCE_KERNEL_S = 0.016
# Kernel time as a share of the time since the previous sample: samples are
# spread over the run in proportion to time, and one 16 ms sample varies by
# +-20%, so a run needs a hundred or more of them.
KERNEL_SHARE = 0.1


class HostSpeed:
    """Samples of the reference kernel's time over one run."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._small = rng.normal(size=(96, 96))
        self._basis = rng.normal(size=(200, 200))
        self._diag = rng.normal(size=200)
        self._large = rng.normal(size=1 << 22)          # 32 MiB, past L2
        self.samples: list[float] = []
        self._last = time.perf_counter()

    def _kernel(self) -> None:
        # The mix the program runs: interpreted float arithmetic, rotations
        # of matrix columns (the shape of a QL sweep), small dense products
        # and streaming through memory larger than the core's cache. Its time
        # tracked both a 200-node eigensolve and a flocking training step
        # over 10-20 s windows about as well as the best of the mixes tried.
        acc = 0.0
        for i in range(40000):
            acc += (i % 7) * 0.5
        v, d = self._basis, self._diag
        for _ in range(2):
            g, s, c = 0.3, 1.0, 1.0
            for i in range(v.shape[1] - 2, -1, -1):
                f = s * d[i]
                r = np.hypot(f, g)
                s, c, g = f / r, g / r, d[i + 1] - 0.1 * r
                col = v[:, i + 1].copy()
                v[:, i + 1] = s * v[:, i] + c * col
                v[:, i] = c * v[:, i] - s * col
        for _ in range(40):
            self._small @ self._small
        for _ in range(2):
            np.negative(self._large, out=self._large)

    def sample(self) -> None:
        start = time.perf_counter()
        self._kernel()
        end = time.perf_counter()
        self.samples.append(end - start)
        self._last = end

    def catch_up(self) -> None:
        """Sample until the kernel has run for its share of the time since
        the last sample."""
        target = KERNEL_SHARE * (time.perf_counter() - self._last)
        spent = 0.0
        while spent < target:
            self.sample()
            spent += self.samples[-1]

    @property
    def factor(self) -> float:
        """Reference seconds per measured second over the run so far."""
        return REFERENCE_KERNEL_S / statistics.fmean(self.samples)
