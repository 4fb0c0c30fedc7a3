"""Shared test utilities: random geometry, oracles, and the synthetic suites."""

import math

import numpy as np

from triad import (
    FlowField,
    Intrinsics,
    NoiseModel,
    RefineConfig,
    RelativePose,
    TriangulationInput,
    build_weights,
    corrupt_flow,
    make_scene,
    refine,
    render_flows,
    triangulate_map,
)
from triad.synth import constant_velocity_trajectory


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


# The noisy evaluation suite: a room-scale depth spread (errors genuinely
# heteroscedastic) with 1 px flow noise and 3% outliers on a five-frame
# constant-velocity trajectory.
SUITE_SCENE = dict(
    n_bumps=7,
    base_depth=2.2,
    bump_amplitude=1.5,
    bump_sigma_lo=0.25,
    bump_sigma_hi=0.55,
    texture_cutoff=0.03,
)
SUITE_SIGMA_FLOW = 1.0
SUITE_OUTLIER_RATE = 0.03
SUITE_OUTLIER_SPAN = 8.0


def suite_case(
    seed: int,
    sigma_flow: float = SUITE_SIGMA_FLOW,
    outlier_rate: float = SUITE_OUTLIER_RATE,
    width: int = 320,
    height: int = 240,
    fx: float = 400.0,
    speed: float = 0.05,
    scene_kw: dict | None = None,
    refine_cfg: RefineConfig | None = None,
):
    """One full in-memory chain run; returns everything the assertions need."""
    scene_kw = SUITE_SCENE if scene_kw is None else scene_kw
    k = Intrinsics(fx, fx, width / 2, height / 2, width, height)
    scene = make_scene(width, height, seed, **scene_kw)
    traj = constant_velocity_trajectory(5, (speed, 0.0, 0.0))
    keyframe = 2
    gt = scene.depth_map()
    others = [index for index in range(5) if index != keyframe]
    poses = [traj.relative_pose(keyframe, index) for index in others]
    observations = []
    for index, pose, field in zip(others, poses, render_flows(scene, k, poses)):
        if sigma_flow > 0 or outlier_rate > 0:
            field = corrupt_flow(
                field,
                NoiseModel(sigma_flow, outlier_rate, SUITE_OUTLIER_SPAN, seed=seed + 1 + index),
            )
        observations.append((field, pose))
    init = triangulate_map(TriangulationInput(k, tuple(observations)))
    cfg = refine_cfg or RefineConfig()
    weights = build_weights(init, scene.texture, cfg)
    result = refine(init, weights, cfg)
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


def exact_flow_case(seed: int, width: int = 160, height: int = 120, fx: float = 200.0, speed: float = 0.05):
    """Noise-free chain at a smaller size, for exactness properties."""
    return suite_case(
        seed,
        sigma_flow=0.0,
        outlier_rate=0.0,
        width=width,
        height=height,
        fx=fx,
        speed=speed,
        scene_kw={},
    )


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
