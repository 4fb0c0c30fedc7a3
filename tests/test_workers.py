"""The one way row bands and tasks are run on workers: bands, groups and the task runner."""

import threading
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from triad.workers import ALIGN, BAND_PIXELS, empty, pool, row_bands, run, split


shapes = st.one_of(st.integers(0, 300), st.lists(st.integers(0, 40), max_size=3).map(tuple))


class TestEmpty:
    @given(shapes, st.sampled_from([np.float64, np.float32, np.bool_]))
    def test_shape_dtype_and_alignment(self, shape, dtype):
        array = empty(shape, dtype)
        assert array.shape == np.empty(shape, dtype).shape
        assert array.dtype == dtype
        assert array.flags.c_contiguous and array.flags.writeable
        assert array.ctypes.data % ALIGN == 0
        # one block per array, at most ALIGN bytes longer than its data
        assert array.base.nbytes == array.nbytes + ALIGN

    @given(shapes, st.sampled_from([np.float64, np.float32, np.bool_]), st.integers(2, 8))
    def test_every_buffer_of_a_set_is_aligned_and_its_own(self, shape, dtype, count):
        buffers = [empty(shape, dtype) for _ in range(count)]
        assert all(buffer.ctypes.data % ALIGN == 0 for buffer in buffers)
        for i, buffer in enumerate(buffers):
            assert not any(np.shares_memory(buffer, other) for other in buffers[i + 1 :])
        for i, buffer in enumerate(buffers):
            buffer.reshape(-1)[:] = i % 2
        assert all(np.all(buffer == i % 2) for i, buffer in enumerate(buffers))


class TestRowBands:
    @given(st.integers(1, 1200), st.integers(1, 1600))
    def test_bands_cover_every_row_once_in_order(self, height, width):
        bands = row_bands(height, width)
        assert [y for rows in bands for y in range(rows.start, rows.stop)] == list(range(height))
        sizes = [rows.stop - rows.start for rows in bands]
        # the fewest bands of at most about BAND_PIXELS pixels, rows split evenly
        assert len(bands) == min(height, -(-height * width // BAND_PIXELS))
        assert max(sizes) - min(sizes) <= 1
        assert all(size == 1 or size * width < BAND_PIXELS + width for size in sizes)

    def test_vga_and_qvga(self):
        assert [rows.stop - rows.start for rows in row_bands(480, 640)] == [48] * 10
        assert [rows.stop - rows.start for rows in row_bands(240, 320)] == [80] * 3
        assert row_bands(120, 160) == [slice(0, 120)]


class TestSplit:
    @given(st.integers(1, 1200), st.integers(1, 1600), st.integers(1, 32))
    def test_groups_are_the_bands_in_order_and_none_is_empty(self, height, width, workers):
        bands = row_bands(height, width)
        groups = split(bands, workers)
        assert [band for group in groups for band in group] == bands
        assert len(groups) == min(workers, len(bands))
        assert all(groups)


class TestRun:
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_results_in_task_order(self, n):
        def task(i):
            # later tasks finish first
            time.sleep(0.002 * (n - i))
            return i

        with pool(n, "test") as executor:
            assert run(executor, [lambda i=i: task(i) for i in range(n)]) == list(range(n))

    def test_without_executor_tasks_run_here_in_order(self):
        ran = []

        def task(i):
            ran.append((i, threading.current_thread()))
            return i

        assert run(None, [lambda i=i: task(i) for i in range(4)]) == [0, 1, 2, 3]
        assert ran == [(i, threading.current_thread()) for i in range(4)]

    def test_last_task_runs_on_the_calling_thread(self):
        with pool(3, "test") as executor:
            threads = run(executor, [threading.current_thread] * 3)
        assert threads[-1] is threading.current_thread()
        assert all(thread.name.startswith("test") for thread in threads[:-1])

    @pytest.mark.parametrize("executor_threads", [0, 2])
    def test_first_error_in_task_order_wins(self, executor_threads):
        def fail(i, delay):
            time.sleep(delay)
            raise ValueError(i)

        # the later failures come first in time
        tasks = [lambda: 0, lambda: fail(1, 0.05), lambda: fail(2, 0.0), lambda: fail(3, 0.0)]
        with pool(executor_threads + 1, "test") as executor:
            with pytest.raises(ValueError) as caught:
                run(executor, tasks)
        assert caught.value.args == (1,)

    @pytest.mark.parametrize("last_fails", [False, True])
    def test_every_task_has_finished_on_return_or_raise(self, last_fails):
        finished = threading.Event()

        def slow():
            time.sleep(0.1)
            finished.set()

        def here():
            if last_fails:
                raise ValueError("here")

        with pool(3, "test") as executor:
            try:
                run(executor, [lambda: 0, slow, here])
                raised = False
            except ValueError:
                raised = True
            # checked before the pool's shutdown could wait for the task
            assert finished.is_set()
        assert raised == last_fails
