import math

import numpy as np
import pytest

import triad.workers as workers_module
from triad import FlowField, FormatError, InputError
from triad.fileio import read_flow, write_flow
from triad.flow import INVALID_FLOW, INVALID_FLOW_THRESHOLD, FlowFile


def _reference_decode(raster):
    """Pixel-by-pixel decode: valid iff both components are finite and within the threshold."""
    height, width = raster.shape[:2]
    vectors = np.zeros((height, width, 2))
    valid = np.zeros((height, width), dtype=bool)
    for y in range(height):
        for x in range(width):
            components = [float(c) for c in raster[y, x]]
            if all(math.isfinite(c) and abs(c) <= INVALID_FLOW_THRESHOLD for c in components):
                valid[y, x] = True
                vectors[y, x] = components
    return vectors, valid


# (component value, valid?) for each special value, placed in either component
SPECIAL = [
    (np.nan, False),
    (np.inf, False),
    (-np.inf, False),
    (INVALID_FLOW, False),
    (-INVALID_FLOW, False),
    (INVALID_FLOW_THRESHOLD, True),
    (-INVALID_FLOW_THRESHOLD, True),
]


class TestFromRaster:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("component", [0, 1])
    @pytest.mark.parametrize("value, expect_valid", SPECIAL)
    def test_special_component_values(self, dtype, component, value, expect_valid):
        raster = np.full((3, 4, 2), 1.5, dtype=dtype)
        raster[1, 2, component] = value
        field = FlowField.from_raster(raster)
        assert field.valid[1, 2] == expect_valid
        assert field.valid.sum() == 11 + expect_valid
        want = np.float64(dtype(value)) if expect_valid else 0.0
        assert field.vectors[1, 2, component] == want

    @pytest.mark.parametrize("component", [0, 1])
    @pytest.mark.parametrize(
        "value, expect_valid", [(np.nan, False), (np.inf, False), (-np.inf, False), (65504.0, True), (-65504.0, True)]
    )
    def test_float16_special_component_values(self, component, value, expect_valid):
        # the threshold is infinite in float16, so an infinite component
        # would pass a float16 comparison (with an overflow warning)
        raster = np.full((3, 4, 2), 1.5, dtype=np.float16)
        raster[1, 2, component] = value
        field = FlowField.from_raster(raster)
        assert field.valid[1, 2] == expect_valid
        assert field.valid.sum() == 11 + expect_valid
        assert field.vectors.dtype == np.float64
        assert field.vectors[1, 2, component] == (value if expect_valid else 0.0)
        assert np.all(np.isfinite(field.vectors))

    @pytest.mark.parametrize("shape", [(4, 5), (4, 5, 3), (4, 5, 1), (4, 5, 2, 1), (8,)])
    def test_wrong_shape_rejected(self, shape):
        with pytest.raises(InputError, match=r"shape \(H, W, 2\)"):
            FlowField.from_raster(np.zeros(shape, dtype=np.float32))

    def _mixed_raster(self):
        rng = np.random.default_rng(3)
        raster = rng.uniform(-40, 40, (9, 11, 2)).astype(np.float32)
        cells = rng.choice(9 * 11, 30, replace=False)
        for cell, (value, _) in zip(cells, SPECIAL * 5):
            raster[cell // 11, cell % 11, int(cell % 2)] = value
        return raster

    def test_matches_pixel_by_pixel_reference(self):
        raster = self._mixed_raster()
        field = FlowField.from_raster(raster)
        vectors, valid = _reference_decode(raster)
        assert np.array_equal(field.valid, valid)
        assert np.array_equal(field.vectors, vectors)

    def test_float32_and_its_float64_widening_decode_alike(self):
        raster = self._mixed_raster()
        narrow, wide = FlowField.from_raster(raster), FlowField.from_raster(raster.astype(np.float64))
        assert np.array_equal(narrow.valid, wide.valid)
        assert narrow.vectors.astype(np.float64).tobytes() == wide.vectors.tobytes()

    def test_vectors_float32_and_zero_where_invalid(self):
        field = FlowField.from_raster(self._mixed_raster())
        assert field.vectors.dtype == np.float32
        assert field.valid.dtype == bool
        assert (~field.valid).any()
        assert np.all(field.vectors[~field.valid] == 0.0)
        assert np.all(np.isfinite(field.vectors))

    def test_equals_validating_constructor(self):
        field = FlowField.from_raster(self._mixed_raster())
        built = FlowField(field.vectors, field.valid)
        assert type(field) is FlowField
        assert field.vectors.dtype == np.float32
        assert np.array_equal(built.vectors, field.vectors)
        assert np.array_equal(built.valid, field.valid)
        assert built.vectors.dtype == field.vectors.dtype
        assert built.valid.dtype == field.valid.dtype

    @pytest.mark.parametrize("dtype", [np.int16, np.float32, np.float64])
    def test_keeps_the_raster_precision(self, dtype):
        raster = np.full((2, 3, 2), 3.1, dtype=dtype)
        field = FlowField.from_raster(raster)
        assert field.vectors.dtype == (np.float32 if dtype == np.float32 else np.float64)
        assert np.array_equal(field.vectors, raster)

    def test_does_not_alias_the_raster(self):
        raster = np.ones((2, 3, 2))
        field = FlowField.from_raster(raster)
        raster[0, 0] = 7.0
        assert field.vectors[0, 0, 0] == 1.0


class TestVectorDtype:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_float32_and_float64_kept_as_given(self, dtype):
        vectors = np.zeros((3, 4, 2), dtype=dtype)
        field = FlowField(vectors, np.ones((3, 4), dtype=bool))
        assert field.vectors is vectors

    @pytest.mark.parametrize("dtype", [np.float16, np.int32, np.int64, np.uint8])
    def test_other_dtypes_become_float64(self, dtype):
        vectors = np.arange(24, dtype=dtype).reshape(3, 4, 2)
        field = FlowField(vectors, np.ones((3, 4), dtype=bool))
        assert field.vectors.dtype == np.float64
        assert np.array_equal(field.vectors, vectors)


def _raster_with_specials(height, width, seed):
    """A float32 raster holding every SPECIAL value in either component, among random valid ones."""
    rng = np.random.default_rng(seed)
    raster = rng.uniform(-40, 40, (height, width, 2)).astype(np.float32)
    hit = rng.choice(height * width, 4 * len(SPECIAL), replace=False)
    values = np.array([value for value, _ in SPECIAL], dtype=np.float32)
    raster.reshape(-1, 2)[hit, np.arange(hit.size) % 2] = values[np.arange(hit.size) % values.size]
    return raster


def _same_field(got, want):
    assert type(got) is FlowField
    assert got.vectors.dtype == want.vectors.dtype and got.vectors.tobytes() == want.vectors.tobytes()
    assert got.valid.dtype == bool and np.array_equal(got.valid, want.valid)


class TestFlowSources:
    """A FlowField's band is views of its rows; a FlowFile's band is those rows read from its file and decoded."""

    def test_field_band_is_views_of_its_rows(self):
        field = FlowField.from_raster(_raster_with_specials(9, 11, 0))
        band = field.band(slice(2, 5))
        _same_field(band, FlowField._unchecked(field.vectors[2:5], field.valid[2:5]))
        assert np.shares_memory(band.vectors, field.vectors) and np.shares_memory(band.valid, field.valid)

    @pytest.mark.parametrize("band_pixels", [1, 25, 1000, workers_module.BAND_PIXELS])
    def test_file_band_equals_the_decoded_field_band(self, tmp_path, monkeypatch, band_pixels):
        path = tmp_path / "f.flo"
        write_flow(_raster_with_specials(31, 23, 1), path)
        whole = FlowField.from_raster(read_flow(path))
        source = FlowFile(path)
        assert (source.width, source.height) == (23, 31)
        monkeypatch.setattr(workers_module, "BAND_PIXELS", band_pixels)
        for rows in workers_module.row_bands(31, 23):
            _same_field(source.band(rows), whole.band(rows))

    def test_bad_file_fails_when_built_with_the_reader_message(self, tmp_path):
        path = tmp_path / "f.flo"
        write_flow(np.zeros((4, 4, 2), dtype=np.float32), path)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(FormatError) as want:
            read_flow(path)
        with pytest.raises(FormatError) as got:
            FlowFile(path)
        assert str(got.value) == str(want.value) == f"{path}: truncated flow payload (135 < 140 bytes)"

    def test_file_that_shrinks_after_its_check_fails_as_truncated(self, tmp_path):
        path = tmp_path / "f.flo"
        write_flow(np.zeros((4, 4, 2), dtype=np.float32), path)
        source = FlowFile(path)
        path.write_bytes(path.read_bytes()[:-5])
        # every band read checks the whole file again, so even rows it still holds fail
        with pytest.raises(FormatError) as caught:
            source.band(slice(0, 1))
        assert str(caught.value) == f"{path}: truncated flow payload (135 < 140 bytes)"

    def test_each_band_read_opens_the_file_again(self, tmp_path):
        # a descriptor kept from the check would still read the unlinked file
        path = tmp_path / "f.flo"
        write_flow(np.zeros((4, 4, 2), dtype=np.float32), path)
        source = FlowFile(path)
        path.unlink()
        write_flow(np.full((4, 4, 2), 2.5, dtype=np.float32), path)
        assert np.all(source.band(slice(None)).vectors == 2.5)
