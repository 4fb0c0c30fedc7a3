"""pytest-benchmark timings of the whole estimate command, at 320x240 and 640x480.

Each bundle is a 5-frame sideways pass over the default synthetic scene,
estimated from the 4 frames next to the middle one. The 640x480 bundle runs
with 1 and 2 workers, so the timings show what the second thread gives to
triangulation's and refinement's row bands and to scoring (one pool of one
thread per stage, see ``triad.workers``). A few rounds each, so the test run stays short; for
steadier numbers run ``pytest tests/test_bench_estimate.py --benchmark-only``
with more rounds, or the end-to-end workloads in ``perfbench/``.
"""

import pytest

from triad.cli import main

SIZES = {"qvga": (320, 240, 400.0), "vga": (640, 480, 800.0)}


def size_opts(size):
    width, height, focal = SIZES[size]
    opts = {"width": width, "height": height, "fx": focal, "fy": focal, "vx": 0.05, "fixed_step": 1}
    return [f"--opt={key}={value}" for key, value in opts.items()]


@pytest.fixture(scope="module")
def bundles(tmp_path_factory):
    roots = {}
    for size in SIZES:
        roots[size] = tmp_path_factory.mktemp(size)
        assert main(["synth", "--root", str(roots[size]), *size_opts(size)]) == 0
    return roots


@pytest.mark.parametrize("size, workers", [("qvga", 1), ("vga", 1), ("vga", 2)])
def test_estimate(benchmark, bundles, size, workers):
    argv = ["estimate", "--root", str(bundles[size]), *size_opts(size), f"--opt=workers={workers}"]
    code = benchmark.pedantic(main, args=(argv,), rounds=3, warmup_rounds=1)
    assert code == 0
    assert (bundles[size] / "out" / "sweep.csv").is_file()
