"""Band-pass buffers start on a cache line, and no result depends on where they start.

workers.empty aligns every buffer that triangulation's and refinement's band
passes write with out=. The layout tests record those buffers on odd map
sizes; the bit tests move every one of them 8, 16 or 32 bytes off the
boundary, through a patched allocator, and require the same bytes as aligned
buffers give: alignment may change the time a pass takes, never its values.
"""

import numpy as np
import pytest

from triad import RefineConfig, TriangulationInput, build_weights, refine, triangulate_map
from triad import refinement, triangulate
from triad.pipeline import ROOM_SUITE, RunConfig, synthesize
from triad.workers import ALIGN, empty

from helpers import refine_iterates
from test_refine import random_initial

ODD_SIZES = [(1, 1), (3, 5), (31, 97)]


def _aligned(array: np.ndarray) -> bool:
    return array.ctypes.data % ALIGN == 0


def _recording(made: list):
    """workers.empty, appending every array it returns to ``made``."""

    def allocate(shape, dtype=np.float64):
        made.append(empty(shape, dtype))
        return made[-1]

    return allocate


def _offset(offset: int):
    """workers.empty with every array starting ``offset`` bytes past a cache-line boundary."""

    def allocate(shape, dtype=np.float64):
        dtype = np.dtype(dtype)
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        array = empty(offset + nbytes, np.uint8)[offset:].view(dtype).reshape(shape)
        assert array.ctypes.data % ALIGN == offset
        return array

    return allocate


def _triangulation_input(height: int, width: int) -> TriangulationInput:
    cfg = RunConfig(**dict(ROOM_SUITE, width=width, height=height, fx=40.0, fy=40.0, seed=3))
    k, _, _, _, frames = synthesize(cfg)
    return TriangulationInput(k, tuple((noisy, pose) for _, pose, _, noisy in frames))


def _refine_case(height: int, width: int):
    rng = np.random.default_rng(height * 1000 + width)
    init = random_initial(rng, height=height, width=width, valid_fraction=0.7)
    return init, rng.uniform(0, 1, init.depth.shape)


class TestLayout:
    @pytest.mark.parametrize("height, width", ODD_SIZES)
    @pytest.mark.parametrize("workers", [1, 2])
    def test_triangulation_buffers_are_aligned(self, height, width, workers, monkeypatch):
        made = []
        monkeypatch.setattr(triangulate, "empty", _recording(made))
        triangulate_map(_triangulation_input(height, width), workers=workers)
        # three sums, eight work buffers and the solve's beta^2 / H per band, each a band of rows
        assert len(made) == 12
        assert all(array.shape == (height, width) and array.dtype == np.float64 for array in made)
        assert all(_aligned(array) for array in made)

    # 131 rows of 509 pixels make three bands, so two workers run two groups
    @pytest.mark.parametrize("height, width", [*ODD_SIZES, (131, 509)])
    def test_weights_band_buffers_and_iterates_are_aligned(self, height, width):
        init, intensity = _refine_case(height, width)
        weights = build_weights(init, intensity, RefineConfig())
        assert all(_aligned(array) for array in (weights.w, weights.mu_gh, weights.mu_gv))
        band_pass = refinement._BandPass(np.zeros((height, width)), weights, workers=2)
        assert len(band_pass.buffers) == (2 if height == 131 else 1)
        assert all(len(group) == 4 and all(_aligned(buffer) for buffer in group) for group in band_pass.buffers)
        seen = []
        result = refine(init.depth, weights, RefineConfig(iterations=3), on_iterate=lambda k, d: seen.append(d))
        assert len(seen) == 4
        assert all(_aligned(iterate) and iterate.flags.c_contiguous for iterate in [*seen, result.depth])


class TestBitsDoNotDependOnAlignment:
    @pytest.mark.parametrize("offset", [8, 16, 32])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_refine(self, offset, workers, monkeypatch):
        init, intensity = _refine_case(131, 509)
        cfg = RefineConfig(iterations=6)

        def run():
            weights = build_weights(init, intensity, cfg)
            return weights, *refine_iterates(init.depth, weights, cfg, workers)

        weights, aligned, aligned_iterates = run()
        monkeypatch.setattr(refinement, "empty", _offset(offset))
        moved_weights, moved, moved_iterates = run()
        for name in ("w", "mu_gh", "mu_gv"):
            assert getattr(moved_weights, name).tobytes() == getattr(weights, name).tobytes()
        assert [d.tobytes() for d in moved_iterates] == [d.tobytes() for d in aligned_iterates]
        assert moved.depth.tobytes() == aligned.depth.tobytes()
        assert moved.uncertainty.tobytes() == aligned.uncertainty.tobytes()
        assert np.array(moved.objective).tobytes() == np.array(aligned.objective).tobytes()

    @pytest.mark.parametrize("offset", [8, 16, 32])
    @pytest.mark.parametrize("height, width", [(31, 97), (240, 320)])
    def test_triangulate_map(self, offset, height, width, monkeypatch):
        inp = _triangulation_input(height, width)
        aligned = triangulate_map(inp, workers=2)
        monkeypatch.setattr(triangulate, "empty", _offset(offset))
        moved = triangulate_map(inp, workers=2)
        assert aligned.valid.any()
        for name in ("depth", "conf_h", "conf_r", "valid"):
            assert getattr(moved, name).tobytes() == getattr(aligned, name).tobytes()
