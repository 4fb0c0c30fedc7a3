"""Row bands on the run's workers: one band size, one band split, one task runner.

Triangulation and every refinement pass walk a map in the bands of
``row_bands``, which depend only on the map's size: refinement's objective is
summed band by band, so one split keeps its last digits the same for any
worker count. ``split`` gives each of at most ``workers`` threads a run of
bands, and ``run`` runs one task per group, or scoring's two tasks, on a
``pool`` of one thread fewer, the calling thread running the last task.
A task that runs on a pool must not wait on that same pool, so nested tasks
start from the calling thread's task, as scoring's rank pair does.

Every array a band pass writes with ``out=`` comes from ``empty``, whose data
starts on a 64-byte boundary, one cache line. glibc and numpy align large
blocks to 16 bytes only, and a numpy binary ufunc whose output starts
elsewhere in a line splits one store in each vector across two lines: on an
AVX-512 host (numpy 2.4) ``np.add(x, y, out=z)`` on 30 720 float64 took
9.5 us with z aligned and 17-24 us with z 8-48 bytes past a line boundary.
Alignment changes no value, only the time: ufuncs, np.einsum and the band
solve give the same bits for any data address, as the tests check with
buffers moved off the boundary.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from concurrent.futures import Executor, ThreadPoolExecutor
from contextlib import nullcontext

import numpy as np

# Pixels per row band: the smallest band whose refinement passes gain from a
# second thread (the refinement module tabulates 8k to 64k).
BAND_PIXELS = 1 << 15

# Byte alignment of every array from empty: one cache line.
ALIGN = 64


def empty(shape, dtype=np.float64) -> np.ndarray:
    """An uninitialised C-contiguous array whose data starts on an ALIGN-byte boundary.

    It is a view into a uint8 block ALIGN bytes longer than its data. Each
    buffer of a set is its own call, so each starts aligned.
    """
    dtype = np.dtype(dtype)
    nbytes = math.prod((shape,) if isinstance(shape, (int, np.integer)) else shape) * dtype.itemsize
    block = np.empty(nbytes + ALIGN, dtype=np.uint8)
    # built at an offset rather than sliced, so a zero-size view keeps the
    # aligned address too (an empty slice of the block would not)
    return np.ndarray(shape, dtype, buffer=block, offset=-block.ctypes.data % ALIGN)


def row_bands(height: int, width: int) -> list[slice]:
    """The fewest bands of at most about BAND_PIXELS pixels, at least one row each, rows split evenly."""
    count = min(height, -(-height * width // BAND_PIXELS))
    edges = [height * i // count for i in range(count + 1)] if count else []
    return [slice(a, b) for a, b in zip(edges[:-1], edges[1:])]


def split(bands: Sequence, workers: int) -> list:
    """At most ``workers`` contiguous groups of ``bands``, in order, none empty."""
    count = min(max(1, int(workers)), len(bands))
    return [bands[len(bands) * g // count : len(bands) * (g + 1) // count] for g in range(count)]


def pool(n: int, name: str):
    """A pool of n - 1 threads named ``name``_*, for ``run`` with n tasks; no pool when n is 1."""
    return ThreadPoolExecutor(max_workers=n - 1, thread_name_prefix=name) if n > 1 else nullcontext()


def run(executor: Executor | None, tasks: Sequence[Callable]) -> list:
    """Every task's result, in task order: all but the last on the executor, the last here.

    Without an executor the tasks run here in order. Either way the first
    error in task order wins when several tasks raise, and every task has
    finished when this returns or raises.
    """
    if executor is None:
        return [task() for task in tasks]
    pending = [executor.submit(task) for task in tasks[:-1]]
    try:
        last = tasks[-1]()
    finally:
        # wait for every task; an error read here replaces the last task's
        for future in pending:
            future.exception()
        results = [future.result() for future in pending]
    return [*results, last]
