"""A fixed kernel that gauges how fast the shared host runs at the moment.

The host this benchmark runs on is shared, and its speed drifts by 20-30 %
over minutes: the same call on the same bundle took 203 ms in one run and
281 ms in a run five minutes later, and processor time moved with the wall
time, so the drift is slower processors, not time stolen from the process.
No run length averages that out. So the timed loop runs this kernel between
every two calls, and a call's wall time is scaled by ``REFERENCE_MS`` over the
mean of the kernel times just before and just after it: the result is the
call's time on a host where the kernel takes ``REFERENCE_MS``.

The kernel mixes what a triad call does: elementwise numpy arithmetic on
VGA-sized arrays, a sort of unordered values (as in the rank
correlation), a small matrix product and an interpreted loop. It uses numpy
alone and never triad, so no change to triad moves it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# About the median kernel time (17-19 ms) in the runs behind the baselines in
# README.md, on 2 vCPUs of a shared Intel Xeon VM. It only sets the unit: the
# scaled times are milliseconds on a host where the kernel takes this long.
REFERENCE_MS = 20.0

WARMUP_RUNS = 3
SHAPE = (480, 640)
SORT_SIZE = 100_000


class Kernel:
    """The kernel's arrays, allocated once, so that each run allocates nothing.

    A run that allocated would time the allocator too, and how fast that is
    depends on the heap the preceding triad call left behind.
    """

    def __init__(self):
        self.start = np.linspace(0.1, 5.0, SHAPE[0] * SHAPE[1]).reshape(SHAPE)
        self.a, self.b, self.c = np.empty(SHAPE), np.empty(SHAPE), np.empty(SHAPE)
        self.unordered = np.sin(np.arange(SORT_SIZE) * 0.37)
        self.ordered = np.empty(SORT_SIZE)
        self.product = np.empty((SHAPE[0], 64))

    def run(self) -> float:
        a, b, c = self.a, self.b, self.c
        np.copyto(a, self.start)
        for _ in range(3):  # a = b / (1 + b^2) + a / 2 with b = 1.5 sqrt(a) + exp(-a)
            np.sqrt(a, out=b)
            b *= 1.5
            np.negative(a, out=c)
            np.exp(c, out=c)
            b += c
            np.multiply(b, b, out=c)
            c += 1.0
            np.divide(b, c, out=b)
            a *= 0.5
            a += b
        np.copyto(self.ordered, self.unordered)
        self.ordered.sort(kind="stable")
        np.matmul(a, a[:64].T, out=self.product)
        x = 0
        for i in range(30000):
            x += i * i % 7
        return float(a[0, 0]) + float(self.ordered[0]) + float(self.product[0, 0]) + x


_kernel = Kernel()


def time_kernel() -> float:
    """Wall time of one kernel run, in ms."""
    start = time.perf_counter()
    _kernel.run()
    return (time.perf_counter() - start) * 1e3


def warm_up() -> None:
    for _ in range(WARMUP_RUNS):
        _kernel.run()


def median_ms(runs: int) -> float:
    """Median of ``runs`` kernel times, in ms."""
    return statistics.median(time_kernel() for _ in range(runs))
