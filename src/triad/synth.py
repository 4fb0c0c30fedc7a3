"""Synthetic scenes, trajectories, exact flow rendering, and controlled corruption.

Everything downstream of the flow network is testable against these
generators: the scene provides ground-truth depth, the renderer produces the
exact displacement field implied by that depth and a relative pose, and the
noise model corrupts it in a controlled, seeded way. All generators are pure
given their seed; per-pixel rendering is vectorized and independent of any
partitioning.

Pose-independent work is done once: a scene computes its depth map on first
use and keeps it read-only, and ``render_flows`` back-projects the keyframe
once for all the poses it renders. The fields that ``render_flows`` and
``corrupt_flow`` return skip FlowField's finiteness check, because their
valid vectors are finite by construction: a rendered vector is valid only
when its reprojection lands inside the image, and NoiseModel keeps its noise
scales finite and bounded, so noise added to a finite vector stays finite.
Every other FlowField is still checked when it is built.
``check_scene_settings`` rejects scene settings that would give a
non-finite depth map or texture; the pipeline runs it, and builds the noise
model and the trajectory, when the config loads.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .flow import INVALID_FLOW_THRESHOLD, FlowField
from .geometry import Intrinsics, RelativePose, Trajectory, normalized_grid


@dataclass(frozen=True)
class SyntheticScene:
    """A textured depth surface over the keyframe image.

    Depth is a base plane plus a sum of Gaussian bumps, clipped to
    [depth_min, depth_max]; the texture is a band-limited random field in
    [0, 1]. Identical seeds produce identical scenes.
    """

    width: int
    height: int
    base_depth: float
    bump_centers: np.ndarray  # (G, 2) pixel coordinates (x, y)
    bump_sigmas: np.ndarray  # (G,) pixels
    bump_amplitudes: np.ndarray  # (G,) meters, signed
    texture: np.ndarray  # (H, W) in [0, 1]
    depth_min: float
    depth_max: float
    seed: int

    def __post_init__(self):
        if not (0 < self.depth_min <= self.depth_max):
            raise InputError("need 0 < depth_min <= depth_max")
        if self.texture.shape != (self.height, self.width):
            raise InputError("texture shape must match the scene size")

    def depth_map(self) -> np.ndarray:
        """Ground-truth depth for every keyframe pixel, shape (H, W), meters.

        Computed on the first call and kept; the array is read-only, so a
        caller that writes into it must copy it first.
        """
        depth = self.__dict__.get("_depth")
        if depth is None:
            xs = np.arange(self.width, dtype=np.float64)[None, :]
            ys = np.arange(self.height, dtype=np.float64)[:, None]
            depth = np.full((self.height, self.width), self.base_depth)
            bump = np.empty_like(depth)
            for (cx, cy), sigma, amp in zip(self.bump_centers, self.bump_sigmas, self.bump_amplitudes):
                # amp * exp(-r2 / (2 sigma^2)), one buffer; r2 / -s rounds as -r2 / s does
                np.add((xs - cx) ** 2, (ys - cy) ** 2, out=bump)
                bump /= -(2.0 * sigma * sigma)
                np.exp(bump, out=bump)
                bump *= amp
                depth += bump
            np.clip(depth, self.depth_min, self.depth_max, out=depth)
            depth.setflags(write=False)
            object.__setattr__(self, "_depth", depth)
        return depth


@dataclass(frozen=True)
class NoiseModel:
    """Seeded flow corruption: i.i.d. Gaussian noise plus uniform outliers.

    Both scales lie in [0, INVALID_FLOW_THRESHOLD] pixels: noise beyond the
    threshold that marks invalid flow on disk would make a pixel read back
    as invalid, and the bound keeps every corrupted vector finite.
    """

    sigma_flow: float = 0.0  # pixels, per component
    outlier_rate: float = 0.0
    outlier_span: float = 8.0  # pixels, uniform replacement range
    seed: int = 0

    def __post_init__(self):
        # written so that NaN fails every check
        if not (0.0 <= self.sigma_flow <= INVALID_FLOW_THRESHOLD):
            raise InputError(f"sigma_flow must be in [0, {INVALID_FLOW_THRESHOLD:g}] pixels")
        if not (0.0 <= self.outlier_rate <= 1.0):
            raise InputError("outlier_rate must be in [0, 1]")
        if not (0.0 <= self.outlier_span <= INVALID_FLOW_THRESHOLD):
            raise InputError(f"outlier_span must be in [0, {INVALID_FLOW_THRESHOLD:g}] pixels")


def _bandlimited_field(height: int, width: int, rng: np.random.Generator, cutoff: float) -> np.ndarray:
    """Low-pass filtered white noise, rescaled to [0, 1]."""
    noise = rng.standard_normal((height, width))
    fy = np.fft.fftfreq(height)[:, None]
    fx = np.fft.fftfreq(width)[None, :]
    lowpass = np.exp(-(fx * fx + fy * fy) / (2.0 * cutoff * cutoff))
    field = np.fft.ifft2(np.fft.fft2(noise) * lowpass).real
    span = np.ptp(field)
    if span == 0.0:
        return np.full((height, width), 0.5)
    return (field - field.min()) / span


def check_scene_settings(
    n_bumps: int,
    base_depth: float,
    bump_amplitude: float,
    bump_sigma_lo: float,
    bump_sigma_hi: float,
    texture_cutoff: float,
) -> None:
    """Raise InputError unless make_scene's shape settings give a finite scene.

    The base depth and the bump sigmas must be positive and finite, with
    lo <= hi; the amplitude finite and nonnegative; the texture cutoff
    positive and finite; the bump count nonnegative.
    """
    # written so that NaN fails every check
    if n_bumps < 0:
        raise InputError("n_bumps must be nonnegative")
    if not (0.0 < base_depth < math.inf):
        raise InputError("base_depth must be positive and finite")
    if not (0.0 <= bump_amplitude < math.inf):
        raise InputError("bump_amplitude must be finite and nonnegative")
    if not (0.0 < bump_sigma_lo <= bump_sigma_hi < math.inf):
        raise InputError("need 0 < bump_sigma_lo <= bump_sigma_hi, both finite")
    if not (0.0 < texture_cutoff < math.inf):
        raise InputError("texture_cutoff must be positive and finite")


def make_scene(
    width: int,
    height: int,
    seed: int,
    n_bumps: int = 5,
    base_depth: float = 2.0,
    bump_amplitude: float = 0.15,
    bump_sigma_lo: float = 0.12,
    bump_sigma_hi: float = 0.3,
    depth_min: float = 0.25,
    depth_max: float = 50.0,
    texture_cutoff: float = 0.06,
) -> SyntheticScene:
    """Draw a random scene from a 64-bit seed.

    Bump sigmas are fractions of the smaller image dimension. The defaults
    give a gently sloped desk-scale surface; larger amplitudes with wider
    sigma ranges produce room-scale depth spreads. The shape settings are
    checked by ``check_scene_settings`` before anything is drawn.
    """
    check_scene_settings(n_bumps, base_depth, bump_amplitude, bump_sigma_lo, bump_sigma_hi, texture_cutoff)
    rng = np.random.default_rng(seed)
    centers = rng.uniform([0, 0], [width, height], size=(n_bumps, 2))
    sigmas = rng.uniform(bump_sigma_lo, bump_sigma_hi, size=n_bumps) * min(width, height)
    amplitudes = rng.uniform(-bump_amplitude, bump_amplitude, size=n_bumps)
    texture = _bandlimited_field(height, width, rng, texture_cutoff)
    return SyntheticScene(
        width=width,
        height=height,
        base_depth=base_depth,
        bump_centers=centers,
        bump_sigmas=sigmas,
        bump_amplitudes=amplitudes,
        texture=texture,
        depth_min=depth_min,
        depth_max=depth_max,
        seed=seed,
    )


def render_flows(
    scene: SyntheticScene,
    k: Intrinsics,
    poses: Iterable[RelativePose],
    z_eps: float = 1e-6,
) -> Iterator[FlowField]:
    """Exact keyframe -> adjacent-frame flow for each pose, yielded one field at a time.

    Each keyframe pixel is back-projected with its ground-truth depth once,
    here; then, per pose, transformed by it (keyframe coordinates into the
    adjacent frame) and reprojected. Pixels landing behind the camera
    (z <= z_eps) or outside the image are marked invalid rather than raising.
    A valid vector ends inside the image, so it is finite, and the field
    skips FlowField's re-validation.
    """
    if (k.width, k.height) != (scene.width, scene.height):
        raise InputError("intrinsics size must match the scene")
    points = normalized_grid(k)
    points *= scene.depth_map()[..., None]
    return _reprojected(points, k, poses, z_eps)


def _reprojected(points: np.ndarray, k: Intrinsics, poses: Iterable[RelativePose], z_eps: float):
    # work buffers shared by every pose; each field gets its own vectors
    transformed = np.empty_like(points)
    u = np.empty(points.shape[:2])
    v = np.empty(points.shape[:2])
    xs = np.arange(k.width, dtype=np.float64)[None, :]
    ys = np.arange(k.height, dtype=np.float64)[:, None]
    for pose in poses:
        np.matmul(points, pose.rotation.T, out=transformed)
        for axis in range(3):  # one strided add per axis beats a broadcast over the last one
            transformed[..., axis] += pose.translation[axis]
        z = transformed[..., 2]
        in_front = z > z_eps
        safe_z = np.where(in_front, z, 1.0)
        np.multiply(transformed[..., 0], k.fx, out=u)
        u /= safe_z
        u += k.cx
        np.multiply(transformed[..., 1], k.fy, out=v)
        v /= safe_z
        v += k.cy
        # pixel-footprint bounds: pixel centers live on [0, n-1], footprints on [-0.5, n-0.5]
        valid = in_front & (u >= -0.5) & (u <= k.width - 0.5) & (v >= -0.5) & (v <= k.height - 0.5)
        vectors = np.empty(points.shape[:2] + (2,))
        np.subtract(u, xs, out=vectors[..., 0])
        np.subtract(v, ys, out=vectors[..., 1])
        vectors.reshape(-1, 2)[np.flatnonzero(~valid)] = 0.0
        yield FlowField._unchecked(vectors, valid)


def render_flow(
    scene: SyntheticScene,
    k: Intrinsics,
    pose_k: RelativePose,
    z_eps: float = 1e-6,
) -> FlowField:
    """Exact keyframe -> adjacent-frame flow for one pose: ``render_flows`` with one pose."""
    return next(render_flows(scene, k, (pose_k,), z_eps))


def corrupt_flow(flow: FlowField, model: NoiseModel) -> FlowField:
    """Apply the noise model to valid pixels; invalid pixels pass through untouched.

    The draws are, in order: Gaussian noise for every component (when
    sigma_flow > 0), then an outlier flag per pixel and a uniform
    replacement for every component (when outlier_rate > 0). A valid
    output vector is either a finite input vector plus sigma_flow times a
    normal variate, or a replacement within the outlier span. The noise is
    below 14 * INVALID_FLOW_THRESHOLD in magnitude (numpy's normal variates
    stay below 14), and a finite float64 plus anything smaller than 2**970
    (half the float spacing at the float64 maximum, about 1e292) cannot
    round to infinity, even at the float64 maximum. Either vector is finite,
    so the field skips FlowField's re-validation.
    """
    rng = np.random.default_rng(model.seed)
    shape = flow.vectors.shape
    if model.sigma_flow > 0:
        out = rng.normal(0.0, model.sigma_flow, size=shape)
        out += flow.vectors
    else:
        out = flow.vectors.copy()
    pairs = out.reshape(-1, 2)
    if model.outlier_rate > 0:
        outliers = np.flatnonzero(rng.random(shape[:2]) < model.outlier_rate)
        replacement = rng.uniform(-model.outlier_span, model.outlier_span, size=shape)
        pairs[outliers] = replacement.reshape(-1, 2)[outliers]
    invalid = np.flatnonzero(~flow.valid)
    pairs[invalid] = flow.vectors.reshape(-1, 2)[invalid]
    return FlowField._unchecked(out, flow.valid)


def _yaw_matrix(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def _timestamps(n_frames: int, dt: float) -> np.ndarray:
    if n_frames < 1:
        raise InputError("need at least one frame")
    if not (0.0 < dt < math.inf):  # NaN fails too; an infinite dt would make the first time inf * 0
        raise InputError("dt must be positive and finite")
    return dt * np.arange(n_frames)


def constant_velocity_trajectory(
    n_frames: int,
    velocity=(0.05, 0.0, 0.0),
    dt: float = 1.0,
    yaw_rate: float = 0.0,
) -> Trajectory:
    """Camera translating by ``velocity`` meters per frame (optionally yawing)."""
    timestamps = _timestamps(n_frames, dt)
    v = np.asarray(velocity, dtype=np.float64)
    if not (np.isfinite(v).all() and math.isfinite(yaw_rate)):
        raise InputError("velocity and yaw_rate must be finite")
    poses = [
        RelativePose(_yaw_matrix(yaw_rate * i), i * v)
        for i in range(n_frames)
    ]
    return Trajectory(timestamps, tuple(poses))


def stop_and_go_trajectory(
    n_frames: int,
    velocity=(0.05, 0.0, 0.0),
    move: int = 1,
    dwell: int = 3,
    dt: float = 1.0,
) -> Trajectory:
    """Camera advancing for ``move`` frames then holding pose for ``dwell`` frames."""
    timestamps = _timestamps(n_frames, dt)
    if move < 1 or dwell < 0:
        raise InputError("need move >= 1 and dwell >= 0")
    v = np.asarray(velocity, dtype=np.float64)
    if not np.isfinite(v).all():
        raise InputError("velocity must be finite")
    cycle = move + dwell
    poses = []
    steps = 0
    for i in range(n_frames):
        if i > 0 and (i - 1) % cycle < move:
            steps += 1
        poses.append(RelativePose(np.eye(3), steps * v))
    return Trajectory(timestamps, tuple(poses))


def orbit_trajectory(n_frames: int, radius: float, dt: float = 1.0) -> Trajectory:
    """Camera on a circle of given radius, yawing by 2*pi/n_frames per step."""
    timestamps = _timestamps(n_frames, dt)
    poses = []
    for i in range(n_frames):
        phi = 2.0 * math.pi * i / n_frames
        position = np.array([radius * math.sin(phi), 0.0, radius * (1.0 - math.cos(phi))])
        poses.append(RelativePose(_yaw_matrix(phi), position))
    return Trajectory(timestamps, tuple(poses))


def make_trajectory(kind: str, n_frames: int, params: dict | None = None) -> Trajectory:
    """Dispatch on trajectory kind: constant_velocity, stop_and_go, or orbit."""
    params = dict(params or {})
    if kind == "constant_velocity":
        return constant_velocity_trajectory(n_frames, **params)
    if kind == "stop_and_go":
        return stop_and_go_trajectory(n_frames, **params)
    if kind == "orbit":
        return orbit_trajectory(n_frames, **params)
    raise InputError(f"unknown trajectory kind {kind!r}")
