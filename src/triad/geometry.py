"""Camera intrinsics, rigid poses, trajectories, and the transform algebra everything else uses.

Conventions: right-handed camera frame with +z forward, so depth is the +z
coordinate of a point in the camera frame. Angles are radians, distances are
meters. Rotations are stored as 3x3 matrices; quaternions appear only at file
boundaries. All types here are immutable after construction and all functions
are pure, so they can be shared freely across parallel workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError

ORTHONORMAL_TOL = 1e-9


def _frozen_array(value, shape, name: str) -> np.ndarray:
    arr = np.array(value, dtype=np.float64)
    if arr.shape != shape:
        raise InputError(f"{name} must have shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{name} must be finite")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Intrinsics:
    """Pinhole intrinsics of one camera, in pixel units."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if not (0 < self.fx < math.inf and 0 < self.fy < math.inf):
            raise InputError("focal lengths must be positive and finite")
        if not (0 < self.cx < self.width and 0 < self.cy < self.height):
            raise InputError("principal point must lie strictly inside the image")
        if self.width < 1 or self.height < 1:
            raise InputError("image size must be at least 1x1")


@dataclass(frozen=True)
class RelativePose:
    """Rigid transform taking points of a source frame into a target frame.

    ``x_target = rotation @ x_source + translation``. Stored with the rotation
    orthonormal to within 1e-9 and det = +1; construction rejects anything
    else rather than silently re-orthonormalizing.
    """

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rotation", _frozen_array(self.rotation, (3, 3), "rotation"))
        object.__setattr__(self, "translation", _frozen_array(self.translation, (3,), "translation"))
        err = np.abs(self.rotation.T @ self.rotation - np.eye(3)).max()
        if err > ORTHONORMAL_TOL:
            raise InputError(f"rotation is not orthonormal (max deviation {err:.3e})")
        det = float(np.linalg.det(self.rotation))
        if abs(det - 1.0) > ORTHONORMAL_TOL:
            raise InputError(f"rotation must have determinant +1, got {det!r}")

    @classmethod
    def _unchecked(cls, rotation, translation) -> "RelativePose":
        """A pose derived from validated ones, stored as construction stores it but not re-checked."""
        pose = object.__new__(cls)
        for name, value in (("rotation", rotation), ("translation", translation)):
            arr = np.array(value, dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(pose, name, arr)
        return pose


def relative_angle_translation(a: RelativePose, b: RelativePose) -> tuple[float, float]:
    """Rotation angle in [0, pi] and translation distance between two poses.

    Both are properties of the relative transform between the frames, so the
    result is symmetric in (a, b). The angle uses an atan2 form that stays
    accurate near 0 and pi.
    """
    r = a.rotation @ b.rotation.T
    t = a.translation - r @ b.translation
    cos_term = (np.trace(r) - 1.0) / 2.0
    skew = np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])
    sin_term = float(np.linalg.norm(skew)) / 2.0
    angle = math.atan2(sin_term, cos_term)
    return angle, float(np.linalg.norm(t))


def normalized_axes(K: Intrinsics) -> tuple[np.ndarray, np.ndarray]:
    """The camera-normalized x' of every pixel column and y' of every pixel row."""
    xs = (np.arange(K.width, dtype=np.float64) - K.cx) / K.fx
    ys = (np.arange(K.height, dtype=np.float64) - K.cy) / K.fy
    return xs, ys


def normalized_grid(K: Intrinsics) -> np.ndarray:
    """Camera-normalized homogeneous coordinates for every pixel, shape (H, W, 3)."""
    xs, ys = normalized_axes(K)
    grid = np.empty((K.height, K.width, 3), dtype=np.float64)
    grid[..., 0] = xs[None, :]
    grid[..., 1] = ys[:, None]
    grid[..., 2] = 1.0
    return grid


def quaternion_to_rotation(qx: float, qy: float, qz: float, qw: float) -> np.ndarray:
    """Rotation matrix of a unit quaternion (x, y, z, w)."""
    n = math.sqrt(qx * qx + qy * qy + qz * qz + qw * qw)
    if n == 0.0:
        raise InputError("zero quaternion")
    x, y, z, w = qx / n, qy / n, qz / n, qw / n
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
            [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
            [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
        ]
    )


def rotation_to_quaternion(r: np.ndarray) -> tuple[float, float, float, float]:
    """Quaternion (x, y, z, w) of a rotation matrix, largest-pivot branch."""
    r = np.asarray(r, dtype=np.float64)
    tr = r[0, 0] + r[1, 1] + r[2, 2]
    if tr > 0.0:
        s = math.sqrt(tr + 1.0) * 2.0
        w = 0.25 * s
        x = (r[2, 1] - r[1, 2]) / s
        y = (r[0, 2] - r[2, 0]) / s
        z = (r[1, 0] - r[0, 1]) / s
    elif r[0, 0] >= r[1, 1] and r[0, 0] >= r[2, 2]:
        s = math.sqrt(1.0 + r[0, 0] - r[1, 1] - r[2, 2]) * 2.0
        w = (r[2, 1] - r[1, 2]) / s
        x = 0.25 * s
        y = (r[0, 1] + r[1, 0]) / s
        z = (r[0, 2] + r[2, 0]) / s
    elif r[1, 1] >= r[2, 2]:
        s = math.sqrt(1.0 + r[1, 1] - r[0, 0] - r[2, 2]) * 2.0
        w = (r[0, 2] - r[2, 0]) / s
        x = (r[0, 1] + r[1, 0]) / s
        y = 0.25 * s
        z = (r[1, 2] + r[2, 1]) / s
    else:
        s = math.sqrt(1.0 + r[2, 2] - r[0, 0] - r[1, 1]) * 2.0
        w = (r[1, 0] - r[0, 1]) / s
        x = (r[0, 2] + r[2, 0]) / s
        y = (r[1, 2] + r[2, 1]) / s
        z = 0.25 * s
    return float(x), float(y), float(z), float(w)


@dataclass(frozen=True)
class Trajectory:
    """Timestamped world-from-camera poses, ordered by strictly increasing finite time."""

    timestamps: np.ndarray
    poses: tuple[RelativePose, ...]

    def __post_init__(self):
        ts = np.asarray(self.timestamps, dtype=np.float64).copy()
        ts.setflags(write=False)
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "poses", tuple(self.poses))
        if ts.ndim != 1 or len(ts) != len(self.poses):
            raise InputError("need one timestamp per pose")
        if not np.all(np.isfinite(ts)):
            raise InputError("timestamps must be finite")
        if len(ts) and not np.all(np.diff(ts) > 0):
            raise InputError("timestamps must be strictly increasing")

    def __len__(self) -> int:
        return len(self.poses)

    def relative_pose(self, src: int, dst: int) -> RelativePose:
        """Transform taking points in camera ``src`` coordinates into camera ``dst``.

        Camera ``src`` to world, then world to camera ``dst``: equal bit for
        bit to compose(poses[src], inverse(poses[dst])) of the test helpers.
        Both poses were validated at construction, so the derived one skips
        the orthonormality checks.
        """
        a, b = self.poses[src], self.poses[dst]
        # b's inverse is (R^T, -R^T t), its rotation stored as construction stores it
        inv_rotation = np.array(b.rotation.T)
        inv_translation = -b.rotation.T @ b.translation
        return RelativePose._unchecked(inv_rotation @ a.rotation, inv_rotation @ a.translation + inv_translation)
