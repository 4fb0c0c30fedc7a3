"""pytest-benchmark timings on a 640x480 map: build_weights, and refine at 7 and 40 iterations and 40 on two workers.

A few rounds each, so the test run stays short; they give the weights' and
refinement's time per call next to the end-to-end perfbench workloads. For steadier numbers run
``pytest tests/test_bench_refine.py --benchmark-only`` with more rounds.
"""

import numpy as np
import pytest

from triad import RefineConfig, build_weights, refine

from test_refine import random_initial


@pytest.fixture(scope="module")
def vga_maps():
    rng = np.random.default_rng(9)
    init = random_initial(rng, height=480, width=640, valid_fraction=0.8)
    intensity = rng.uniform(0, 1, init.depth.shape)
    return init, intensity, build_weights(init, intensity, RefineConfig())


def test_build_weights_vga(benchmark, vga_maps):
    # data weights, mu-scaled edge maps and their checks: the set-up refine's iterations read
    init, intensity, weights = vga_maps
    result = benchmark.pedantic(build_weights, args=(init, intensity, RefineConfig()), rounds=3, warmup_rounds=1)
    for name in ("w", "mu_gh", "mu_gv"):
        assert getattr(result, name).tobytes() == getattr(weights, name).tobytes()


@pytest.mark.parametrize("iterations", [7, 40])
def test_refine_vga(benchmark, vga_maps, iterations):
    init, _, weights = vga_maps
    cfg = RefineConfig(iterations=iterations)
    result = benchmark.pedantic(refine, args=(init, weights, cfg), rounds=3, warmup_rounds=1)
    assert len(result.objective) == iterations + 1
    assert result.objective[-1] < result.objective[0]


def test_refine_vga_40_iterations_two_workers(benchmark, vga_maps):
    # the threaded band pass, next to test_refine_vga[40] on one worker
    init, _, weights = vga_maps
    cfg = RefineConfig(iterations=40)
    result = benchmark.pedantic(refine, args=(init, weights, cfg), kwargs={"workers": 2}, rounds=3, warmup_rounds=1)
    assert result.objective == refine(init, weights, cfg).objective
