"""pytest-benchmark timings of the estimate command's scoring on 640x480 maps, serial and with the scoring pool.

The maps are held as estimate holds them: a float32 ground truth and
initial map, a float64 refined map and sigma. One call scores the initial
map's report and the refined map's report, Spearman rho and sweep
(``pipeline._score_maps``). The float32 initial map's report
(``Scorer.report``) is timed on its own, and so is one rank pass
(``metrics._average_ranks``), on 640x480 distinct values and on the same
values rounded to float32, which gives ties. A few rounds each, so the test run
stays short; for steadier numbers run ``pytest tests/test_bench_scoring.py
--benchmark-only`` with more rounds.
"""

import numpy as np
import pytest

from triad.metrics import SWEEP_THRESHOLDS, Scorer, _average_ranks
from triad.pipeline import _score_maps
from triad.workers import pool

from helpers import average_ranks_reference


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


def test_float32_report_vga(benchmark, vga_maps):
    scorer, initial, _, _ = vga_maps
    assert initial.dtype == np.float32 and scorer.g.dtype == np.float32
    want = scorer.report(initial)
    report = benchmark.pedantic(scorer.report, args=(initial,), rounds=10, warmup_rounds=1)
    assert report == want


@pytest.mark.parametrize("rounding", [np.float64, np.float32], ids=["distinct", "float32"])
def test_rank_pass_vga(benchmark, rounding):
    x = np.random.default_rng(12).uniform(0.39, 0.68, 480 * 640).astype(rounding).astype(np.float64)
    ranks = benchmark.pedantic(_average_ranks, args=(x,), rounds=10, warmup_rounds=1)
    assert ranks.tobytes() == average_ranks_reference(x).tobytes()
