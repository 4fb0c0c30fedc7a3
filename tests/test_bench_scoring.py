"""pytest-benchmark timings of the estimate command's scoring on 640x480 maps, serial and with the scoring pool.

The maps are held as estimate holds them: a float32 ground truth and
initial map, a float64 refined map and sigma. One call scores the initial
map's report and the refined map's report, Spearman rho and sweep
(``pipeline._score_maps``). A few rounds each, so the test run stays short;
for steadier numbers run ``pytest tests/test_bench_scoring.py
--benchmark-only`` with more rounds.
"""

import numpy as np
import pytest

from triad.metrics import SWEEP_THRESHOLDS, Scorer
from triad.pipeline import _score_maps
from triad.workers import pool


@pytest.fixture(scope="module")
def vga_maps():
    h, w = 480, 640
    rng = np.random.default_rng(11)
    gt = rng.uniform(1.0, 4.0, (h, w)).astype(np.float32)
    initial = (gt * rng.uniform(0.9, 1.1, (h, w))).astype(np.float32)
    initial[rng.random((h, w)) < 0.1] = np.nan
    refined = gt * rng.uniform(0.97, 1.03, (h, w))
    sigma = rng.uniform(0.05, 0.6, (h, w))
    return Scorer(gt, np.isfinite(initial)), initial, refined, sigma


@pytest.mark.parametrize("workers", [1, 2])
def test_score_maps_vga(benchmark, vga_maps, workers):
    scorer, initial, refined, sigma = vga_maps
    thresholds = list(SWEEP_THRESHOLDS)
    serial = _score_maps(scorer, initial, refined, sigma, thresholds, None)
    with pool(workers, "score") as executor:
        args = (scorer, initial, refined, sigma, thresholds, executor)
        result = benchmark.pedantic(_score_maps, args=args, rounds=3, warmup_rounds=1)
    assert result == serial
    assert result[1][1].defined
