"""Shared test utilities: random geometry, reference oracles, and the synthetic suites.

The oracles are second constructions of what the package computes another
way, kept here because no command needs them: the cross-product
triangulation of one pixel against triangulate_map's dot-product form, the
cross-product epipolar loss of one pixel against epipolar_loss's, pose
composition and inversion against Trajectory.relative_pose, and C(d)
alone against refine's band pass.
"""

import math
import tracemalloc

import numpy as np

from triad import (
    InputError,
    Intrinsics,
    RefineConfig,
    RelativePose,
    TriangulationInput,
    WeightMaps,
    build_weights,
    refine,
    triangulate_map,
)
from triad.pipeline import ROOM_SUITE, RunConfig, synthesize
from triad.refinement import _BandPass
from triad.triangulate import DEFAULT_D_MAX, DEFAULT_H_EPS


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform-ish random rotation via a normalized random quaternion."""
    q = rng.standard_normal(4)
    while np.linalg.norm(q) < 1e-3:
        q = rng.standard_normal(4)
    x, y, z, w = q / np.linalg.norm(q)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
            [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
            [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
        ]
    )


def random_pose(rng: np.random.Generator, t_scale: float = 1.0) -> RelativePose:
    return RelativePose(random_rotation(rng), t_scale * rng.uniform(-1.0, 1.0, 3))


def pose_matrix(pose: RelativePose) -> np.ndarray:
    m = np.eye(4)
    m[:3, :3] = pose.rotation
    m[:3, 3] = pose.translation
    return m


def golden_section_argmin(f, lo: float, hi: float, tol: float = 1e-10) -> float:
    """1-D golden-section search for the minimizer of a unimodal function."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def apply(pose: RelativePose, points) -> np.ndarray:
    """Transform an array of points with shape (..., 3)."""
    pts = np.asarray(points, dtype=np.float64)
    return pts @ pose.rotation.T + pose.translation


def identity_pose() -> RelativePose:
    return RelativePose(np.eye(3), np.zeros(3))


def compose(a: RelativePose, b: RelativePose) -> RelativePose:
    """Pose applying ``a`` first, then ``b``."""
    return RelativePose(b.rotation @ a.rotation, b.rotation @ a.translation + b.translation)


def inverse(p: RelativePose) -> RelativePose:
    rt = p.rotation.T
    return RelativePose(rt, -rt @ p.translation)


def pixel_to_normalized(u, K: Intrinsics) -> np.ndarray:
    """Map a pixel (x, y) to the homogeneous camera-normalized vector [x', y', 1].

    Raises InputError when the pixel lies outside [0, width) x [0, height).
    """
    x, y = float(u[0]), float(u[1])
    if not (0.0 <= x < K.width and 0.0 <= y < K.height):
        raise InputError(f"pixel ({x}, {y}) outside {K.width}x{K.height} image")
    return np.array([(x - K.cx) / K.fx, (y - K.cy) / K.fy, 1.0])


def triangulate_pixel(m, observations, h_eps: float = DEFAULT_H_EPS, d_max: float = DEFAULT_D_MAX):
    """Solve one pixel's scalar least squares in the cross-product form of the triangulate module.

    ``m`` is the keyframe direction as [x', y', 1] (camera-normalized, z = 1,
    so the recovered depth is the +z coordinate); ``observations`` is a
    sequence of (ray, pose) pairs whose rays are unit-normalized internally.
    Returns (depth, hessian, residual), or None when the pixel is degenerate
    (no baseline, or the minimizer violates cheirality / exceeds d_max).
    """
    m = np.asarray(m, dtype=np.float64)
    if not observations:
        raise InputError("need at least one observation")
    h_acc = 0.0
    beta = 0.0
    gamma = 0.0
    for ray, pose in observations:
        s = np.asarray(ray, dtype=np.float64)
        s = s / np.linalg.norm(s)
        a = np.cross(s, pose.rotation @ m)
        b = np.cross(s, pose.translation)
        h_acc += float(a @ a)
        beta += float(a @ b)
        gamma += float(b @ b)
    if h_acc < h_eps:
        return None
    depth = -beta / h_acc
    if not (0.0 < depth <= d_max):
        return None
    residual = np.sqrt(max(0.0, gamma - beta * beta / h_acc))
    return depth, h_acc, residual


def cross_product_loss(m, ray, pose: RelativePose, depth: float):
    """One pixel's epipolar loss in the cross-product form of the triangulate module, and |q|^2.

    ``m`` is the keyframe direction [x', y', 1], ``ray`` the observed ray
    (unit-normalized here) and q = R m depth + p the point in the frame.
    Returns (|s x q|^2, |q|^2), the second being the scale of the module's
    stated bound on epipolar_loss.
    """
    s = np.asarray(ray, dtype=np.float64)
    s = s / np.linalg.norm(s)
    q = pose.rotation @ np.asarray(m, dtype=np.float64) * depth + pose.translation
    r = np.cross(s, q)
    return float(r @ r), float(q @ q)


def objective_value(d: np.ndarray, dbar_filled: np.ndarray, weights: WeightMaps) -> float:
    """C(d) from refine's band pass without a step; dbar_filled must be finite everywhere (ignored where w = 0)."""
    return _BandPass(dbar_filled, weights)(d)


def _chain_case(cfg: RunConfig, refine_cfg: RefineConfig | None = None):
    """One full in-memory chain run on ``synthesize(cfg)``; returns everything the assertions need."""
    k, traj, scene, keyframe, frames = synthesize(cfg)
    observations = [(noisy, pose) for _, pose, _, noisy in frames]
    init = triangulate_map(TriangulationInput(k, tuple(observations)))
    refine_cfg = refine_cfg or RefineConfig()
    weights = build_weights(init, scene.texture, refine_cfg)
    result = refine(init.depth, weights, refine_cfg)
    gt = scene.depth_map()
    mask = init.valid & np.isfinite(gt)
    return {
        "intrinsics": k,
        "scene": scene,
        "trajectory": traj,
        "keyframe": keyframe,
        "gt": gt,
        "observations": observations,
        "init": init,
        "weights": weights,
        "result": result,
        "mask": mask,
    }


def suite_case(seed: int, refine_cfg: RefineConfig | None = None, **settings):
    """The noisy evaluation suite, ROOM_SUITE at 320x240 on five frames; ``settings`` override RunConfig keys."""
    return _chain_case(RunConfig(**dict(ROOM_SUITE, seed=seed, **settings)), refine_cfg)


def exact_flow_case(seed: int, **settings):
    """Noise-free chain on the default desk-scale scene at 160x120, for exactness properties."""
    exact = dict(width=160, height=120, fx=200.0, fy=200.0, vx=0.05, sigma_flow=0.0, outlier_rate=0.0)
    return _chain_case(RunConfig(**dict(exact, seed=seed, **settings)))


def weight_maps(w, g_h, g_v, mu: float = 1.0) -> WeightMaps:
    """WeightMaps from unscaled edge weights g_h (H, W-1) and g_v (H-1, W), scaled and padded as build_weights does."""
    w = np.asarray(w, dtype=np.float64)
    mu_gh = np.zeros(w.shape)
    np.multiply(g_h, mu, out=mu_gh[:, :-1])
    return WeightMaps(w=w, mu_gh=mu_gh, mu_gv=np.multiply(g_v, mu, dtype=np.float64))


def traced_peak(call):
    """(call(), the peak bytes traced during the call above what was traced when it started)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def read_keyvalues(path) -> dict[str, str]:
    values = {}
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line or "=" not in line:
                continue
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values
