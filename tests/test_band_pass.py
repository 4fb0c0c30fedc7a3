"""triangulate_map's buffered band pass against the expression-per-term form it replaced.

The reference below is the earlier implementation: every term a fresh
temporary, invalid flow masked with np.where and ufunc where=, and an int64
observation count. The band pass must reproduce it bit for bit on invalid
flow of every kind, for any band size and worker count.
"""

import functools
import tracemalloc

import numpy as np
import pytest

import triad.triangulate as triangulate_module
from triad import FlowField, RelativePose, TriangulationInput, triangulate_map
from triad.flow import INVALID_FLOW
from triad.pipeline import ROOM_SUITE, RunConfig, synthesize
from triad.triangulate import DEFAULT_D_MAX, DEFAULT_H_EPS, _accumulate_rows

from helpers import suite_case


def _reference_observation_rays(flow_field, k, rows):
    valid = flow_field.valid[rows]
    x = np.where(valid, flow_field.vectors[rows, :, 0], 0.0)
    x += np.arange(k.width, dtype=np.float64)[None, :]
    x -= k.cx
    x /= k.fx
    y = np.where(valid, flow_field.vectors[rows, :, 1], 0.0)
    y += np.arange(k.height, dtype=np.float64)[rows, None]
    y -= k.cy
    y /= k.fy
    return x, y


def _reference_accumulate_rows(inp, xm, ym, rows):
    ym = ym[rows, None]
    shape = (ym.shape[0], xm.shape[0])
    h_acc = np.zeros(shape)
    beta = np.zeros(shape)
    gamma = np.zeros(shape)
    n_obs = np.zeros(shape, dtype=np.int64)
    for flow_field, pose in inp.observations:
        valid = flow_field.valid[rows]
        nx, ny = _reference_observation_rays(flow_field, inp.intrinsics, rows)
        r, p = pose.rotation, pose.translation
        rm0, rm1, rm2 = (r[i, 0] * xm + r[i, 2] + r[i, 1] * ym for i in range(3))
        c = r.T @ p
        rm_p = c[0] * xm + c[2] + c[1] * ym
        rm_sq = rm0 * rm0 + rm1 * rm1 + rm2 * rm2
        inv_n_sq = 1.0 / (nx * nx + ny * ny + 1.0)
        n_rm = nx * rm0 + ny * rm1 + rm2
        n_p = nx * p[0] + ny * p[1] + p[2]
        np.add(h_acc, rm_sq - n_rm * n_rm * inv_n_sq, out=h_acc, where=valid)
        np.add(beta, rm_p - n_rm * n_p * inv_n_sq, out=beta, where=valid)
        np.add(gamma, p @ p - n_p * n_p * inv_n_sq, out=gamma, where=valid)
        n_obs += valid
    return h_acc, beta, gamma, n_obs


def _grid(k):
    xm = (np.arange(k.width, dtype=np.float64) - k.cx) / k.fx
    ym = (np.arange(k.height, dtype=np.float64) - k.cy) / k.fy
    return xm, ym


def _reference_map(inp, h_eps=DEFAULT_H_EPS, d_max=DEFAULT_D_MAX):
    """(depth, conf_h, conf_r, valid) in one band over the whole map."""
    xm, ym = _grid(inp.intrinsics)
    h_acc, beta, gamma, n_obs = _reference_accumulate_rows(inp, xm, ym, slice(None))
    solvable = (n_obs >= 1) & (h_acc >= h_eps)
    safe_h = np.where(solvable, h_acc, 1.0)
    d = -beta / safe_h
    ok = solvable & (d > 0.0) & (d <= d_max)
    residual = np.sqrt(np.maximum(0.0, gamma - beta * beta / safe_h))
    return (
        np.where(ok, d, np.nan),
        np.where(ok, np.sqrt(safe_h), np.nan),
        np.where(ok, residual, np.nan),
        ok,
    )


@functools.cache
def _invalid_flow_case(seed):
    """A noisy suite case whose four frames carry invalid flow of every kind.

    Frame 0 is decoded from a raster holding NaN, +inf, -inf and the +-1e10
    sentinel in either component; frame 1 is built by the constructor with
    NaN, +inf and -inf in its invalid vectors; frame 2 has no valid pixel;
    frame 3 is the suite's own corrupted flow. The suite moves along x
    without turning, which leaves most pose entries zero and would let a
    reordered sum round the same, so every pose gets a small rotation and
    translation in all three axes.
    """
    case = suite_case(seed)
    k = case["intrinsics"]
    rng = np.random.default_rng(100 + seed)
    poses = []
    for _, pose in case["observations"]:
        turn = np.linalg.qr(np.eye(3) + 0.02 * rng.standard_normal((3, 3)))[0]
        turn *= np.sign(np.diag(turn))
        poses.append(RelativePose(turn @ pose.rotation, pose.translation + 0.01 * rng.standard_normal(3)))
    f0, f1, _, f3 = (field for field, _ in case["observations"])
    p0, p1, p2, p3 = poses
    n = k.height * k.width
    raster = f0.to_raster()
    hit = rng.choice(n, n // 10, replace=False)
    poison = np.array([np.nan, np.inf, -np.inf, INVALID_FLOW, -INVALID_FLOW], dtype=np.float32)
    raster.reshape(-1, 2)[hit, rng.integers(0, 2, hit.size)] = poison[np.arange(hit.size) % poison.size]
    decoded = FlowField.from_raster(raster)
    valid = f1.valid & (rng.random(f1.valid.shape) >= 0.1)
    vectors = f1.vectors.copy()
    vectors[~valid] = np.nan
    vectors[~valid & (rng.random(valid.shape) < 0.5), 1] = np.inf
    vectors[~valid & (rng.random(valid.shape) < 0.5), 0] = -np.inf
    built = FlowField(vectors, valid)
    empty = FlowField(np.full((k.height, k.width, 2), np.nan), np.zeros((k.height, k.width), dtype=bool))
    observations = ((decoded, p0), (built, p1), (empty, p2), (f3, p3))
    return TriangulationInput(k, observations)


class TestBandPassMatchesReference:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_coefficients_bit_identical(self, seed):
        inp = _invalid_flow_case(seed)
        xm, ym = _grid(inp.intrinsics)
        rows = slice(None)
        h_acc, beta, gamma, any_obs = _accumulate_rows(inp, xm, ym, rows)
        want = _reference_accumulate_rows(inp, xm, ym, rows)
        for got, ref in zip((h_acc, beta, gamma), want):
            assert got.tobytes() == ref.tobytes()
        assert np.array_equal(any_obs, want[3] >= 1)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("band_pixels", [1, 3, triangulate_module.BAND_PIXELS])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_map_bit_identical(self, seed, band_pixels, workers, monkeypatch):
        inp = _invalid_flow_case(seed)
        monkeypatch.setattr(triangulate_module, "BAND_PIXELS", band_pixels)
        got = triangulate_map(inp, workers=workers)
        depth, conf_h, conf_r, valid = _reference_map(inp)
        assert got.depth.tobytes() == depth.tobytes()
        assert got.conf_h.tobytes() == conf_h.tobytes()
        assert got.conf_r.tobytes() == conf_r.tobytes()
        assert np.array_equal(got.valid, valid)
        # the case has both valid and invalid pixels
        assert 0 < np.count_nonzero(valid) < valid.size

    def test_all_invalid_input_gives_all_invalid_map(self):
        inp = _invalid_flow_case(0)
        empty = inp.observations[2]
        only_empty = TriangulationInput(inp.intrinsics, (empty, empty))
        got = triangulate_map(only_empty, workers=2)
        assert not got.valid.any()
        for channel in (got.depth, got.conf_h, got.conf_r):
            assert channel.tobytes() == np.full(channel.shape, np.nan).tobytes()


# Peak traced memory of triangulate_map on 4 VGA frames with one worker: the
# three output channels and the mask (7.7 MB) plus one band's sums and work
# buffers. Measured at 13.27 MB (numpy 2.4, Python 3.11); the bound allows
# 9.3 % more. The expression-per-term form peaked at 16.18 MB.
VGA_TRIANGULATION_PEAK_BYTES = 14_500_000


class TestBandPassMemory:
    def test_vga_peak_within_bound(self):
        cfg = RunConfig(**ROOM_SUITE, width=640, height=480, fx=800.0, fy=800.0, noise_seed=0)
        k, _, _, _, frames = synthesize(cfg)
        inp = TriangulationInput(k, tuple((noisy, pose) for _, pose, _, noisy in frames))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            init = triangulate_map(inp, workers=1)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert init.valid.mean() > 0.5
        assert peak <= VGA_TRIANGULATION_PEAK_BYTES, peak / 1e6
