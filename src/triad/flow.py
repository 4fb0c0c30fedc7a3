"""Dense 2D displacement fields with a per-pixel validity mask, and the sources that give them a band at a time.

A flow field stores, for each keyframe pixel, the displacement to its
corresponding pixel in an adjacent frame. On disk (see fileio.read_flow)
invalid pixels carry components with magnitude above INVALID_FLOW_THRESHOLD;
in memory they are tracked with an explicit boolean mask.

Triangulation reads its flow one row band at a time through ``band(rows)``,
which both kinds of flow source have: a FlowField gives views of its rows,
and a FlowFile reads and decodes just those rows of its .flo file, so no
whole decoded field of a file is ever held. Both give the same band bit for
bit, since decoding is elementwise.

The vectors are float32 or float64, and all arithmetic on them is float64.
A float32 array stays float32 and any other dtype becomes float64, so a
field decoded from a .flo raster keeps the file's float32 precision and
holds half the bytes of a float64 copy, while the synthetic fields are
float64. Widening float32 to float64 is exact, so either kind of field
gives the same results bit for bit.

Constructing a FlowField checks the shapes and that every valid vector is
finite. Fields whose invariants hold by construction skip that check
through ``FlowField._unchecked``: ``from_raster``, whose validity rule
admits only finite components, and the synthetic renderer and noise model
(see synth), whose valid vectors are finite by their own arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import fileio
from .errors import InputError

INVALID_FLOW = 1e10
INVALID_FLOW_THRESHOLD = 1e9


def _vector_dtype(dtype: np.dtype) -> type:
    """The dtype vectors of ``dtype`` are stored in: float32 stays, anything else is float64."""
    return np.float32 if dtype == np.float32 else np.float64


@dataclass(frozen=True)
class FlowField:
    """Per-pixel displacement (H, W, 2) plus validity mask (H, W).

    ``vectors`` is float32 or float64: float32 input is kept as given and
    any other dtype is converted to float64.
    """

    vectors: np.ndarray
    valid: np.ndarray

    def __post_init__(self):
        vec = np.asarray(self.vectors)
        vec = np.asarray(vec, dtype=_vector_dtype(vec.dtype))
        val = np.asarray(self.valid, dtype=bool)
        if vec.ndim != 3 or vec.shape[2] != 2:
            raise InputError(f"flow vectors must have shape (H, W, 2), got {vec.shape}")
        if val.shape != vec.shape[:2]:
            raise InputError("validity mask shape must match the flow field")
        if not np.all(np.isfinite(vec[val])):
            raise InputError("flow must be finite on valid pixels")
        object.__setattr__(self, "vectors", vec)
        object.__setattr__(self, "valid", val)

    @property
    def height(self) -> int:
        return self.vectors.shape[0]

    @property
    def width(self) -> int:
        return self.vectors.shape[1]

    def band(self, rows: slice) -> "FlowField":
        """Rows ``rows`` (a slice with step 1) of the field, as views of its arrays."""
        return FlowField._unchecked(self.vectors[rows], self.valid[rows])

    @classmethod
    def _unchecked(cls, vectors: np.ndarray, valid: np.ndarray) -> "FlowField":
        """A field stored as given, without the constructor's checks.

        The caller guarantees what the constructor would check: ``vectors``
        is float32 or float64 of shape (H, W, 2), ``valid`` is bool of shape
        (H, W), and every valid vector is finite.
        """
        field = object.__new__(cls)
        object.__setattr__(field, "vectors", vectors)
        object.__setattr__(field, "valid", valid)
        return field

    @classmethod
    def from_raster(cls, raster: np.ndarray) -> "FlowField":
        """Interpret a raw (H, W, 2) raster, treating huge components as invalid.

        A pixel is valid when both components are at most INVALID_FLOW_THRESHOLD
        in magnitude; the comparison is false for NaN and infinities, so one
        pass finds every invalid pixel. The vectors are a copy that shares no
        memory with the raster, at the raster's precision by the class's
        dtype rule: a float32 raster (as ``fileio.read_flow`` returns) gives
        float32 vectors. The invalid pixels are zeroed in the copy through
        their flat indices, which touches only those pixels. Valid vectors
        are finite by that rule and invalid ones are zero, so the result
        skips the constructor's re-validation.
        """
        raw = np.asarray(raster)
        if raw.ndim != 3 or raw.shape[2] != 2:
            raise InputError(f"flow vectors must have shape (H, W, 2), got {raw.shape}")
        # compared in float32 or wider: the threshold rounds to infinity in
        # float16 and is exact in float32
        wide = np.promote_types(raw.dtype, np.float32)
        within = np.ascontiguousarray(np.abs(raw, dtype=wide) <= wide.type(INVALID_FLOW_THRESHOLD))
        # a pixel's two flags, read as one uint16, are 0x0101 when both hold
        # (a 1 in each byte, so in either byte order)
        valid = within.view(np.uint16)[..., 0] == 0x0101
        vectors = raw.astype(_vector_dtype(raw.dtype), order="C")
        vectors.reshape(-1, 2)[np.flatnonzero(~valid)] = 0.0
        return cls._unchecked(vectors, valid)

    def to_raster(self) -> np.ndarray:
        """Raw float32 raster with the invalid-pixel sentinel filled in.

        One copy cast to float32, then the sentinel written over the invalid
        pixels through their flat indices; both round the same values as
        casting the filled field would.
        """
        raster = self.vectors.astype(np.float32, order="C")
        raster.reshape(-1, 2)[np.flatnonzero(~self.valid)] = INVALID_FLOW
        return raster


@dataclass(frozen=True)
class FlowFile:
    """A .flo file as a flow source: checked when it is built, read a band of rows at a time.

    Building one reads the header and makes every check ``fileio.read_flow``
    makes before it reads a row, with the same errors, so a bad file fails
    before any band is read. ``band(rows)`` is
    ``FlowField.from_raster(fileio.read_flow(path, rows))``: it reads only
    those rows, opening and closing the file, so no file stays open between
    bands. Both names are looked up at each call, so a wrapper patched onto
    either sees every band read. A file that shrinks after it was checked
    fails its band read as a truncated payload.
    """

    path: Path
    width: int = field(init=False)
    height: int = field(init=False)

    def __post_init__(self):
        width, height = fileio.flow_size(self.path)
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "height", height)

    def band(self, rows: slice) -> FlowField:
        """Rows ``rows`` (a slice with step 1) read from the file and decoded by FlowField.from_raster."""
        return FlowField.from_raster(fileio.read_flow(self.path, rows))
