"""Shared test utilities: random geometry, oracles, and the synthetic suites."""

import math
import tracemalloc

import numpy as np

from triad import RefineConfig, RelativePose, TriangulationInput, WeightMaps, build_weights, refine, triangulate_map
from triad.pipeline import ROOM_SUITE, RunConfig, synthesize


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


def _chain_case(cfg: RunConfig, refine_cfg: RefineConfig | None = None):
    """One full in-memory chain run on ``synthesize(cfg)``; returns everything the assertions need."""
    k, traj, scene, keyframe, frames = synthesize(cfg)
    observations = [(noisy, pose) for _, pose, _, noisy in frames]
    init = triangulate_map(TriangulationInput(k, tuple(observations)))
    refine_cfg = refine_cfg or RefineConfig()
    weights = build_weights(init, scene.texture, refine_cfg)
    result = refine(init, weights, refine_cfg)
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
