"""pytest-benchmark timings of the synth command, at 320x240 (9 frames) and 640x480 (5 frames).

Each bundle is the room-scale suite scene moving sideways with 1 px flow
noise and 3 % outliers, as in the end-to-end workloads: 8 and 4 adjacent
frames are rendered, corrupted and written, exact and noisy. Every round
writes into the same root, as a rerun does. A few rounds each, so the test
run stays short; for steadier numbers run
``pytest tests/test_bench_synth.py --benchmark-only`` with more rounds.
"""

import pytest

from triad.pipeline import cmd_synth, load_run_config

from helpers import SUITE_OUTLIER_RATE, SUITE_SCENE, SUITE_SIGMA_FLOW

SIZES = {"qvga_9": (320, 240, 400.0, 9), "vga_5": (640, 480, 800.0, 5)}


@pytest.mark.parametrize("size", list(SIZES))
def test_synth(benchmark, tmp_path, size):
    width, height, focal, n_frames = SIZES[size]
    values = {
        **SUITE_SCENE,
        "width": width,
        "height": height,
        "fx": focal,
        "fy": focal,
        "n_frames": n_frames,
        "vx": 0.05,
        "sigma_flow": SUITE_SIGMA_FLOW,
        "outlier_rate": SUITE_OUTLIER_RATE,
    }
    cfg = load_run_config(None, [f"{key}={value}" for key, value in values.items()], {})
    summary = benchmark.pedantic(cmd_synth, args=(cfg, tmp_path), rounds=3, warmup_rounds=1)
    assert len(summary["files"]) == 4 + 2 * (n_frames - 1)
    assert all((tmp_path / name).is_file() for name in summary["files"])
