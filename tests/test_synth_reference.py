"""The bundle-level synthesis path against the earlier per-frame one, bit for bit.

``render_flows`` back-projects the keyframe once for all poses, the scene
caches its depth map, and the renderer and noise model write their vectors
in place and skip FlowField's re-validation. The reference functions below
are the earlier per-frame bodies: each rebuilds the depth map and the
back-projected grid, and builds its result with ``np.stack`` and
``np.where``. Vectors, masks and rasters must match them exactly.

``pipeline.synthesize``, the chain built from a RunConfig, must match the
hand-built chains it replaced in poses, depth map, texture and fields.
"""

import numpy as np
import pytest

from triad import FlowField, Intrinsics, NoiseModel, corrupt_flow, make_scene, render_flow, render_flows
from triad.flow import INVALID_FLOW
from triad.geometry import normalized_grid
from triad.pipeline import ROOM_SUITE, RunConfig, synthesize
from triad.synth import constant_velocity_trajectory, orbit_trajectory, stop_and_go_trajectory

ROOM_SCENE = RunConfig(**ROOM_SUITE).scene_settings()
NOISE = (1.0, 0.03, 8.0)  # sigma_flow, outlier_rate and outlier_span of the suite


def reference_depth_map(scene):
    xs = np.arange(scene.width, dtype=np.float64)[None, :]
    ys = np.arange(scene.height, dtype=np.float64)[:, None]
    depth = np.full((scene.height, scene.width), scene.base_depth)
    for (cx, cy), sigma, amp in zip(scene.bump_centers, scene.bump_sigmas, scene.bump_amplitudes):
        r2 = (xs - cx) ** 2 + (ys - cy) ** 2
        depth += amp * np.exp(-r2 / (2.0 * sigma * sigma))
    return np.clip(depth, scene.depth_min, scene.depth_max)


def reference_render_flow(scene, k, pose_k, z_eps=1e-6):
    depth = reference_depth_map(scene)
    points = normalized_grid(k) * depth[..., None]
    transformed = points @ pose_k.rotation.T + pose_k.translation
    z = transformed[..., 2]
    in_front = z > z_eps
    safe_z = np.where(in_front, z, 1.0)
    u = k.fx * transformed[..., 0] / safe_z + k.cx
    v = k.fy * transformed[..., 1] / safe_z + k.cy
    in_bounds = (u >= -0.5) & (u <= k.width - 0.5) & (v >= -0.5) & (v <= k.height - 0.5)
    valid = in_front & in_bounds
    xs = np.arange(k.width, dtype=np.float64)[None, :]
    ys = np.arange(k.height, dtype=np.float64)[:, None]
    vectors = np.stack([u - xs, v - ys], axis=-1)
    return FlowField(np.where(valid[..., None], vectors, 0.0), valid), int((~in_front).sum())


def reference_corrupt_flow(flow, model):
    rng = np.random.default_rng(model.seed)
    shape = flow.vectors.shape
    out = flow.vectors.copy()
    if model.sigma_flow > 0:
        out = out + rng.normal(0.0, model.sigma_flow, size=shape)
    if model.outlier_rate > 0:
        outliers = rng.random(shape[:2]) < model.outlier_rate
        replacement = rng.uniform(-model.outlier_span, model.outlier_span, size=shape)
        out = np.where(outliers[..., None], replacement, out)
    out = np.where(flow.valid[..., None], out, flow.vectors)
    return FlowField(out, flow.valid)


def reference_to_raster(flow):
    out = np.where(flow.valid[..., None], flow.vectors, INVALID_FLOW)
    return out.astype(np.float32)


def assert_same_field(got, want):
    assert got.vectors.dtype == want.vectors.dtype and got.vectors.shape == want.vectors.shape
    assert got.vectors.tobytes() == want.vectors.tobytes()
    assert np.array_equal(got.valid, want.valid)
    assert got.to_raster().tobytes() == reference_to_raster(want).tobytes()
    # the unchecked field would pass the constructor's checks
    FlowField(got.vectors, got.valid)


SMALL = Intrinsics(100.0, 100.0, 48.0, 36.0, 96, 72)
SUITE = Intrinsics(400.0, 400.0, 160.0, 120.0, 320, 240)

# (scene seed, intrinsics, scene settings, trajectory, keyframe, noise scales)
CASES = {
    **{
        f"suite_seed{seed}": (
            seed, SUITE, ROOM_SCENE, constant_velocity_trajectory(5, (0.05, 0.0, 0.0)), 2, NOISE,
        )
        for seed in range(3)
    },
    "yawing": (3, SMALL, {}, constant_velocity_trajectory(6, (0.04, 0.01, 0.02), yaw_rate=0.05), 2, (0.8, 0.05, 6.0)),
    "stop_and_go": (4, SMALL, {}, stop_and_go_trajectory(7, move=1, dwell=2), 3, (1.0, 0.03, 8.0)),
    "orbit": (5, SMALL, ROOM_SCENE, orbit_trajectory(8, radius=1.5), 0, (0.5, 0.1, 4.0)),
    "sigma_zero": (6, SMALL, {}, constant_velocity_trajectory(5), 2, (0.0, 0.2, 5.0)),
    "outliers_zero": (7, SMALL, {}, constant_velocity_trajectory(5), 2, (1.5, 0.0, 5.0)),
    "outliers_all": (8, SMALL, {}, constant_velocity_trajectory(5), 2, (1.0, 1.0, 3.0)),
    "noise_free": (9, SMALL, {}, constant_velocity_trajectory(5), 2, (0.0, 0.0, 8.0)),
    "clipped_depth": (
        10, SMALL, dict(n_bumps=9, base_depth=0.4, bump_amplitude=1.0), constant_velocity_trajectory(5), 2,
        (1.0, 0.03, 8.0),
    ),
}


@pytest.mark.parametrize("name", list(CASES))
def test_bundle_matches_per_frame_reference(name):
    seed, k, scene_kw, traj, keyframe, (sigma, rate, span) = CASES[name]
    scene = make_scene(k.width, k.height, seed, **scene_kw)
    others = [i for i in range(len(traj)) if i != keyframe]
    poses = [traj.relative_pose(keyframe, i) for i in others]
    assert scene.depth_map().tobytes() == reference_depth_map(scene).tobytes()
    behind = 0
    for index, pose, exact in zip(others, poses, render_flows(scene, k, poses), strict=True):
        want, n_behind = reference_render_flow(scene, k, pose)
        behind += n_behind
        assert_same_field(exact, want)
        assert_same_field(render_flow(scene, k, pose), want)
        model = NoiseModel(sigma, rate, span, seed=seed + 1 + index)
        assert_same_field(corrupt_flow(exact, model), reference_corrupt_flow(want, model))
    if name == "clipped_depth":
        assert (scene.depth_map() == scene.depth_min).any()
    if name == "orbit":
        # the orbit must exercise both ways a pixel leaves the adjacent frame
        assert behind > 0
        assert not all(field.valid.all() for field in render_flows(scene, k, poses))
    if name == "stop_and_go":
        # a zero-baseline frame: identity pose, flow zero up to reprojection rounding
        held = [f for f in render_flows(scene, k, poses) if np.abs(f.vectors).max() < 1e-9]
        assert held and all(f.valid.all() for f in held)


def test_invalid_input_vectors_pass_through_corruption():
    rng = np.random.default_rng(11)
    vectors = rng.uniform(-3, 3, (20, 30, 2))
    valid = rng.random((20, 30)) < 0.6
    vectors[~valid] = np.nan
    field = FlowField(vectors, valid)
    for model in (NoiseModel(1.0, 0.3, 4.0, seed=2), NoiseModel(0.0, 0.0, 4.0, seed=2), NoiseModel(0.0, 1.0, 1.0)):
        assert_same_field(corrupt_flow(field, model), reference_corrupt_flow(field, model))


def test_noise_at_the_float64_maximum_stays_finite():
    # the largest noise, about 14 * 1e9, is far below the 2**970 needed to round past the maximum
    big = np.finfo(np.float64).max
    vectors = np.zeros((20, 30, 2))
    vectors[::2, :, 0], vectors[1::2, :, 1] = big, -big
    field = FlowField(vectors, np.ones((20, 30), dtype=bool))
    model = NoiseModel(sigma_flow=1e9, seed=4)
    got = corrupt_flow(field, model)
    want = reference_corrupt_flow(field, model)  # the reference re-validates
    assert np.isfinite(got.vectors).all()
    assert got.vectors.tobytes() == want.vectors.tobytes()


def test_cached_depth_map_is_read_only_and_computed_once():
    scene = make_scene(40, 30, seed=1)
    depth = scene.depth_map()
    assert scene.depth_map() is depth
    assert not depth.flags.writeable
    with pytest.raises(ValueError):
        depth[0, 0] = 1.0
    assert depth.tobytes() == reference_depth_map(scene).tobytes()


def test_fields_do_not_share_vectors():
    scene = make_scene(40, 30, seed=2)
    k = Intrinsics(50.0, 50.0, 20.0, 15.0, 40, 30)
    traj = constant_velocity_trajectory(4)
    fields = list(render_flows(scene, k, [traj.relative_pose(0, i) for i in range(1, 4)]))
    for a in range(3):
        for b in range(a + 1, 3):
            assert not np.shares_memory(fields[a].vectors, fields[b].vectors)
    assert not np.array_equal(fields[0].vectors, fields[2].vectors)



def reference_chain(seed, k, scene_kw, traj, noise, noise_seed):
    """The hand-built chains synthesize replaced, rendering one pose at a time.

    helpers.suite_case skipped noise-free corruption; criterion 7b and the
    policy script seeded each frame's noise with ``seed * 100 + index``.
    """
    scene = make_scene(k.width, k.height, seed, **scene_kw)
    keyframe = len(traj) // 2
    frames = []
    for index in (i for i in range(len(traj)) if i != keyframe):
        pose = traj.relative_pose(keyframe, index)
        exact = render_flow(scene, k, pose)
        noisy = corrupt_flow(exact, NoiseModel(*noise, seed=noise_seed + index)) if noise[:2] != (0, 0) else exact
        frames.append((index, pose, exact, noisy))
    return scene, keyframe, frames


SMALL_CAMERA = {"width": 96, "height": 72, "fx": 100.0, "fy": 100.0}  # SMALL as config keys
STOP_AND_GO = {"n_frames": 25, "trajectory_kind": "stop_and_go", "vx": 0.08, "move": 1, "dwell": 3}

# name: (config keys; the reference's intrinsics, scene settings, trajectory, noise and noise seed)
CHAIN_CASES = {
    **{
        f"suite_seed{seed}": (
            dict(ROOM_SUITE, seed=seed), SUITE, ROOM_SCENE, constant_velocity_trajectory(5, (0.05, 0, 0)), NOISE,
            seed + 1,
        )
        for seed in range(3)
    },
    "noise_free": (
        dict(SMALL_CAMERA, seed=3, sigma_flow=0.0, outlier_rate=0.0), SMALL, {},
        constant_velocity_trajectory(5, (0.0625, 0, 0)), (0.0, 0.0, 8.0), 4,
    ),
    "orbit": (
        dict(SMALL_CAMERA, seed=4, n_frames=8, trajectory_kind="orbit", orbit_radius=1.5), SMALL, {},
        orbit_trajectory(8, radius=1.5), NOISE, 5,
    ),
    **{
        f"stop_and_go_seed{seed}": (
            dict(SMALL_CAMERA, **STOP_AND_GO, seed=seed, noise_seed=seed * 100), SMALL, {},
            stop_and_go_trajectory(25, velocity=(0.08, 0, 0), move=1, dwell=3), NOISE, seed * 100,
        )
        for seed in (0, 1)
    },
}


def pose_bytes(pose):
    return pose.rotation.tobytes() + pose.translation.tobytes()


@pytest.mark.parametrize("name", list(CHAIN_CASES))
def test_synthesize_matches_hand_built_chain(name):
    settings, k, scene_kw, traj, noise, noise_seed = CHAIN_CASES[name]
    got_k, got_traj, scene, keyframe, frames = synthesize(RunConfig(**settings))
    want_scene, want_keyframe, want_frames = reference_chain(settings["seed"], k, scene_kw, traj, noise, noise_seed)
    assert (got_k, keyframe) == (k, want_keyframe)
    assert got_traj.timestamps.tobytes() == traj.timestamps.tobytes()
    assert [pose_bytes(p) for p in got_traj.poses] == [pose_bytes(p) for p in traj.poses]
    assert scene.depth_map().tobytes() == want_scene.depth_map().tobytes()
    assert scene.texture.tobytes() == want_scene.texture.tobytes()
    for (index, pose, exact, noisy), want in zip(frames, want_frames, strict=True):
        assert (index, pose_bytes(pose)) == (want[0], pose_bytes(want[1]))
        assert_same_field(exact, want[2])
        assert_same_field(noisy, want[3])
