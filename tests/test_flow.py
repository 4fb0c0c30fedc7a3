import math

import numpy as np
import pytest

from triad import FlowField, InputError
from triad.flow import INVALID_FLOW, INVALID_FLOW_THRESHOLD


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
