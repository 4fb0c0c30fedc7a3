"""pytest-benchmark timings of triangulate_map alone on 4 VGA frames, with 1 and 2 workers,
of epipolar_loss on the first of those frames, and of triangulate_map on 8 QVGA
frames read from their .flo files.

The VGA frames are the 4 around the keyframe of a 5-frame ROOM_SUITE pass at
640x480, as in TestBandPassMemory, held in memory. The QVGA frames are the 8
around the keyframe of a 9-frame pass at 320x240, the shape of perfbench's
``estimate_qvga_8view``, read through ``FlowFile`` one row band at a time as
``estimate`` reads them, so that timing holds each band's read and decode.
A few rounds each, so the test run stays short; they give the triangulation
layer's time next to the end-to-end perfbench workloads. For steadier
numbers run ``pytest tests/test_bench_triangulate.py --benchmark-only`` with
more rounds.
"""

import pytest

from triad import TriangulationInput, epipolar_loss, triangulate_map
from triad.fileio import read_intrinsics, read_trajectory
from triad.flow import FlowFile
from triad.pipeline import ROOM_SUITE, RunConfig, _flow_path, cmd_synth, synthesize

CHANNELS = ("depth", "conf_h", "conf_r", "valid")


@pytest.fixture(scope="module")
def vga_case():
    """The VGA triangulation input and the keyframe's ground-truth depth."""
    cfg = RunConfig(**ROOM_SUITE, width=640, height=480, fx=800.0, fy=800.0)
    k, _, scene, _, frames = synthesize(cfg)
    inp = TriangulationInput(k, tuple((noisy, pose) for _, pose, _, noisy in frames))
    assert len(inp.observations) == 4
    return inp, scene.depth_map()


@pytest.mark.parametrize("workers", [1, 2])
def test_triangulate_map_vga(benchmark, vga_case, workers):
    vga_input, _ = vga_case
    first = triangulate_map(vga_input, workers=workers)
    assert first.valid.mean() > 0.5
    result = benchmark.pedantic(triangulate_map, args=(vga_input,), kwargs={"workers": workers}, rounds=3)
    for name in CHANNELS:
        assert getattr(result, name).tobytes() == getattr(first, name).tobytes()


def test_epipolar_loss_vga(benchmark, vga_case):
    inp, gt = vga_case
    field, pose = inp.observations[0]
    args = (field, pose, gt, inp.intrinsics)
    first_total, first_map = epipolar_loss(*args)
    assert first_total > 0.0
    total, per_pixel = benchmark.pedantic(epipolar_loss, args=args, rounds=3)
    assert total == first_total
    assert per_pixel.tobytes() == first_map.tobytes()


@pytest.fixture(scope="module")
def qvga_8view_files(tmp_path_factory):
    """The triangulation input of 8 noisy .flo files on disk, as FlowFile sources."""
    root = tmp_path_factory.mktemp("qvga_8view")
    cfg = RunConfig(**ROOM_SUITE, width=320, height=240, fx=400.0, fy=400.0, n_frames=9)
    keyframe = cmd_synth(cfg, root)["keyframe"]
    traj = read_trajectory(root / cfg.trajectory)
    observations = tuple(
        (FlowFile(_flow_path(root, cfg, "noisy", index)), traj.relative_pose(keyframe, index))
        for index in range(len(traj))
        if index != keyframe
    )
    return TriangulationInput(read_intrinsics(root / cfg.intrinsics), observations)


def test_triangulate_map_qvga_8view_files(benchmark, qvga_8view_files):
    assert len(qvga_8view_files.observations) == 8
    first = triangulate_map(qvga_8view_files, workers=1)
    assert first.valid.mean() > 0.5
    result = benchmark.pedantic(triangulate_map, args=(qvga_8view_files,), kwargs={"workers": 1}, rounds=3)
    for name in CHANNELS:
        assert getattr(result, name).tobytes() == getattr(first, name).tobytes()
