"""triangulate_map's buffered band pass against the expression-per-term form it replaced.

The reference below is the earlier implementation: every term a fresh
temporary, invalid flow masked with np.where and ufunc where=, and an int64
observation count. The band pass must reproduce it bit for bit on invalid
flow of every kind, for any band size and worker count.
"""

import functools

import numpy as np
import pytest

import triad.workers as workers_module
from triad import FlowField, RelativePose, TriangulationInput, triangulate_map
from triad.fileio import write_flow
from triad.flow import FlowFile
from triad.pipeline import ROOM_SUITE, RunConfig, _triangulate_stage, cmd_synth, synthesize
from triad.triangulate import DEFAULT_D_MAX, DEFAULT_H_EPS, _accumulate_rows, _frame_terms

from helpers import poison_flow, suite_case, traced_peak


def _reference_observation_rays(flow_field, k, rows):
    valid = flow_field.valid[rows]
    x = np.where(valid, flow_field.vectors[rows, :, 0].astype(np.float64), 0.0)
    x += np.arange(k.width, dtype=np.float64)[None, :]
    x -= k.cx
    x /= k.fx
    y = np.where(valid, flow_field.vectors[rows, :, 1].astype(np.float64), 0.0)
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
    raster = f0.to_raster()
    poison_flow(raster, rng)
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

    # at 320 wide, 1 (like any count up to a row) gives one-row bands, 640
    # two-row bands and 1000 77 bands of 3-4 rows
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("band_pixels", [1, 640, 1000, workers_module.BAND_PIXELS, 1 << 16])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_map_bit_identical(self, seed, band_pixels, workers, monkeypatch):
        inp = _invalid_flow_case(seed)
        monkeypatch.setattr(workers_module, "BAND_PIXELS", band_pixels)
        got = triangulate_map(inp, workers=workers)
        depth, conf_h, conf_r, valid = _reference_map(inp)
        # the float64 solve, rounded to float32 as it is stored
        assert got.depth.tobytes() == depth.astype(np.float32).tobytes()
        assert got.conf_h.tobytes() == conf_h.astype(np.float32).tobytes()
        assert got.conf_r.tobytes() == conf_r.astype(np.float32).tobytes()
        assert np.array_equal(got.valid, valid)
        # the case has both valid and invalid pixels
        assert 0 < np.count_nonzero(valid) < valid.size

    @pytest.mark.parametrize("rounds", ["down", "up"])
    def test_validity_is_decided_before_rounding(self, rounds):
        # a d_max between a pixel's float64 depth and its float32 rounding:
        # the float64 depth decides, so the pixel is invalid when rounding
        # down would bring it under d_max and valid when rounding up would
        # take it over
        inp = _invalid_flow_case(0)
        depth = _reference_map(inp)[0]
        narrow = depth.astype(np.float32).astype(np.float64)
        edge = (narrow < depth) if rounds == "down" else (narrow > depth)
        y, x = np.argwhere(edge)[0]
        d_max = float(narrow[y, x] if rounds == "down" else depth[y, x])
        got = triangulate_map(inp, d_max=d_max)
        assert np.array_equal(got.valid, _reference_map(inp, d_max=d_max)[3])
        assert got.valid[y, x] == (rounds == "up")

    def test_all_invalid_input_gives_all_invalid_map(self):
        inp = _invalid_flow_case(0)
        empty = inp.observations[2]
        only_empty = TriangulationInput(inp.intrinsics, (empty, empty))
        got = triangulate_map(only_empty, workers=2)
        assert not got.valid.any()
        for channel in (got.depth, got.conf_h, got.conf_r):
            assert channel.tobytes() == np.full(channel.shape, np.nan, dtype=np.float32).tobytes()


@functools.cache
def _poisoned_frames(width, height):
    """(intrinsics, one (float32 raster, pose) per frame) of a noisy room case at this size, each raster poisoned."""
    cfg = RunConfig(**ROOM_SUITE, width=width, height=height, fx=1.25 * width, fy=1.25 * width, noise_seed=0)
    k, _, _, _, frames = synthesize(cfg)
    rng = np.random.default_rng(width)
    rasters = []
    for _, pose, _, noisy in frames:
        raster = noisy.to_raster()
        poison_flow(raster, rng)
        rasters.append((raster, pose))
    return k, tuple(rasters)


class TestFileBackedMatchesInMemory:
    """Flow read from .flo files a band at a time triangulates to the bits of the same flow decoded whole."""

    # at 161x121, 1000 pixels gives 20 bands of 6-7 rows and the default one band
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("band_pixels", [1000, workers_module.BAND_PIXELS])
    @pytest.mark.parametrize("size", [(161, 121), (320, 240)], ids=["odd", "qvga"])
    def test_map_bit_identical(self, tmp_path, monkeypatch, size, band_pixels, workers):
        k, frames = _poisoned_frames(*size)
        in_memory, from_files = [], []
        for i, (raster, pose) in enumerate(frames):
            write_flow(raster, tmp_path / f"{i}.flo")
            in_memory.append((FlowField.from_raster(raster), pose))
            from_files.append((FlowFile(tmp_path / f"{i}.flo"), pose))
        monkeypatch.setattr(workers_module, "BAND_PIXELS", band_pixels)
        want = triangulate_map(TriangulationInput(k, tuple(in_memory)), workers=workers)
        got = triangulate_map(TriangulationInput(k, tuple(from_files)), workers=workers)
        for channel in ("depth", "conf_h", "conf_r"):
            assert getattr(got, channel).tobytes() == getattr(want, channel).tobytes()
        assert 0 < np.count_nonzero(got.valid) < got.valid.size


class TestFrameTerms:
    """_frame_terms gives each frame's own terms, the ones the reference adds for that frame."""

    @pytest.mark.parametrize("band_pixels", [1, 640, 1000, workers_module.BAND_PIXELS])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_terms_bit_identical_on_valid_pixels(self, seed, band_pixels, monkeypatch):
        inp = _invalid_flow_case(seed)
        k = inp.intrinsics
        xm, ym = _grid(k)
        monkeypatch.setattr(workers_module, "BAND_PIXELS", band_pixels)
        for observation in inp.observations:
            alone = TriangulationInput(k, (observation,))
            for rows in workers_module.row_bands(k.height, k.width):
                buffers = [np.empty((rows.stop - rows.start, k.width)) for _ in range(8)]
                field, pose = observation
                *terms, bad = _frame_terms(field.band(rows), pose, k, xm, ym, rows, buffers)
                want = _reference_accumulate_rows(alone, xm, ym, rows)
                valid = observation[0].valid[rows]
                assert np.array_equal(bad, np.flatnonzero(~valid))
                for got, ref in zip(terms, want):
                    assert got[valid].tobytes() == ref[valid].tobytes()


# Peak traced memory of triangulate_map on 4 VGA frames with one worker: the
# three float32 output channels and the mask (4.0 MB) plus one band's sums
# and work buffers. Measured at 6.83 MB (numpy 2.4, Python 3.11); the bound
# allows 9.8 % more. Float64 channels peaked at 10.52 MB, and the
# expression-per-term form at 16.18 MB.
VGA_TRIANGULATION_PEAK_BYTES = 7_500_000


class TestBandPassMemory:
    def test_vga_peak_within_bound(self):
        cfg = RunConfig(**ROOM_SUITE, width=640, height=480, fx=800.0, fy=800.0, noise_seed=0)
        k, _, _, _, frames = synthesize(cfg)
        inp = TriangulationInput(k, tuple((noisy, pose) for _, pose, _, noisy in frames))
        init, peak = traced_peak(lambda: triangulate_map(inp, workers=1))
        assert init.valid.mean() > 0.5
        assert peak <= VGA_TRIANGULATION_PEAK_BYTES, peak / 1e6

    @pytest.fixture(scope="class")
    @staticmethod
    def qvga_stage_peaks(tmp_path_factory):
        """Traced peaks of _triangulate_stage selecting 8 and then 4 views of one 9-frame QVGA bundle."""
        root = tmp_path_factory.mktemp("qvga")
        settings = dict(width=320, height=240, fx=400.0, fy=400.0, n_frames=9, fixed_step=1, workers=1)
        cmd_synth(RunConfig(**settings), root)
        peaks = {}
        for views in (8, 4):
            cfg = RunConfig(**settings, sel_n_frames=views + 1)
            (_, selection, _, _), peaks[views] = traced_peak(lambda: _triangulate_stage(cfg, root))
            assert len(selection.indices) == views
        return peaks

    def test_qvga_view_holds_its_float32_raster_and_mask(self, qvga_stage_peaks):
        # the 4 extra views may cost at most 10 % more than their float32
        # flow and masks (8 + 1 bytes per pixel). Read a band at a time they
        # cost 0.02 times that (numpy 2.4, Python 3.11); decoded whole, 1.02
        # times, and with float64 vectors 1.91.
        peaks = qvga_stage_peaks
        per_view = 320 * 240 * (2 * np.dtype(np.float32).itemsize + 1)
        assert peaks[8] - peaks[4] <= 4 * 1.1 * per_view, (peaks[8] - peaks[4]) / (4 * per_view)

    def test_qvga_eight_views_peak_within_one_band_of_four(self, qvga_stage_peaks):
        # each frame's flow is read a band at a time and dropped before the
        # next frame's, so 4 more views may add at most one band's float32
        # raster and mask. Measured at 0.24 of that (numpy 2.4, Python 3.11);
        # decoded whole, the 4 extra views took 12.2 bands.
        peaks = qvga_stage_peaks
        rows = max(band.stop - band.start for band in workers_module.row_bands(240, 320))
        per_band = rows * 320 * (2 * np.dtype(np.float32).itemsize + 1)
        assert peaks[8] - peaks[4] <= per_band, (peaks[8] - peaks[4]) / per_band
