import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from triad import (
    InputError,
    Intrinsics,
    NoiseModel,
    RelativePose,
    TriangulationInput,
    compose,
    corrupt_flow,
    make_scene,
    make_trajectory,
    render_flow,
    triangulate_map,
)
from triad.pipeline import RunConfig, synthesize
from triad.synth import (
    constant_velocity_trajectory,
    orbit_trajectory,
    stop_and_go_trajectory,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _plane_scene(width=64, height=48, depth=2.0):
    return make_scene(width, height, seed=0, n_bumps=0, base_depth=depth)


class TestScene:
    def test_deterministic_under_seed(self):
        a = make_scene(80, 60, seed=42)
        b = make_scene(80, 60, seed=42)
        assert np.array_equal(a.depth_map(), b.depth_map())
        assert np.array_equal(a.texture, b.texture)

    def test_different_seeds_differ(self):
        a = make_scene(80, 60, seed=1)
        b = make_scene(80, 60, seed=2)
        assert not np.array_equal(a.depth_map(), b.depth_map())

    @given(seeds)
    @settings(max_examples=10)
    def test_depth_within_declared_bounds(self, seed):
        scene = make_scene(50, 40, seed=seed, bump_amplitude=5.0, depth_min=0.5, depth_max=3.0)
        depth = scene.depth_map()
        assert depth.min() >= 0.5 and depth.max() <= 3.0

    def test_texture_in_unit_interval(self):
        scene = make_scene(64, 48, seed=3)
        assert scene.texture.min() >= 0.0 and scene.texture.max() <= 1.0


class TestRenderFlow:
    def test_identity_pose_zero_flow_all_valid(self):
        scene = make_scene(64, 48, seed=5)
        k = Intrinsics(100, 100, 32, 24, 64, 48)
        field = render_flow(scene, k, RelativePose(np.eye(3), np.zeros(3)))
        assert field.valid.all()
        assert np.allclose(field.vectors, 0.0, atol=1e-12)

    def test_pure_translation_fronto_parallel_constant_flow(self):
        # camera translating by -0.1 m in x; plane at 2 m; fx = 500
        scene = _plane_scene(width=200, height=100, depth=2.0)
        k = Intrinsics(500, 500, 100, 50, 200, 100)
        traj = constant_velocity_trajectory(2, velocity=(-0.1, 0.0, 0.0))
        pose = traj.relative_pose(0, 1)
        field = render_flow(scene, k, pose)
        assert field.valid.any()
        u = field.vectors[..., 0][field.valid]
        v = field.vectors[..., 1][field.valid]
        assert np.allclose(u, 500 * 0.1 / 2.0, atol=1e-9)  # = 25 px
        assert np.allclose(v, 0.0, atol=1e-9)

    def test_pure_rotation_flow_is_depth_free(self):
        near = _plane_scene(depth=1.5)
        far = _plane_scene(depth=4.0)
        yaw = Rotation.from_euler("y", 0.03).as_matrix()
        pose = RelativePose(yaw, np.zeros(3))
        k = Intrinsics(100, 100, 32, 24, 64, 48)
        f_near = render_flow(near, k, pose)
        f_far = render_flow(far, k, pose)
        assert np.array_equal(f_near.valid, f_far.valid)
        assert np.allclose(f_near.vectors[f_near.valid], f_far.vectors[f_far.valid], atol=1e-9)

    def test_behind_camera_pixels_masked(self):
        scene = _plane_scene(depth=2.0)
        pose = RelativePose(np.eye(3), (0.0, 0.0, -2.5))  # camera frame 2.5 m ahead
        k = Intrinsics(100, 100, 32, 24, 64, 48)
        field = render_flow(scene, k, pose)
        assert not field.valid.any()

    def test_size_mismatch_rejected(self):
        scene = _plane_scene()
        k = Intrinsics(100, 100, 16, 12, 32, 24)
        with pytest.raises(InputError):
            render_flow(scene, k, RelativePose(np.eye(3), np.zeros(3)))


class TestCorruptFlow:
    def test_zero_noise_is_identity(self):
        scene = make_scene(64, 48, seed=6)
        k = Intrinsics(100, 100, 32, 24, 64, 48)
        field = render_flow(scene, k, RelativePose(np.eye(3), (0.05, 0, 0)))
        out = corrupt_flow(field, NoiseModel(0.0, 0.0, 8.0, seed=1))
        assert np.array_equal(out.vectors, field.vectors)
        assert np.array_equal(out.valid, field.valid)

    def test_gaussian_sigma_statistics(self):
        # >= 1e5 samples; sample std within 2% of the nominal sigma
        scene = make_scene(400, 300, seed=7)
        k = Intrinsics(400, 400, 200, 150, 400, 300)
        field = render_flow(scene, k, RelativePose(np.eye(3), np.zeros(3)))
        out = corrupt_flow(field, NoiseModel(1.0, 0.0, 8.0, seed=2))
        diffs = (out.vectors - field.vectors)[field.valid]
        assert diffs.size >= 2e5
        assert 0.98 <= diffs.std() <= 1.02

    def test_deterministic_under_seed(self):
        scene = make_scene(64, 48, seed=8)
        k = Intrinsics(100, 100, 32, 24, 64, 48)
        field = render_flow(scene, k, RelativePose(np.eye(3), (0.02, 0, 0)))
        model = NoiseModel(0.5, 0.1, 4.0, seed=3)
        assert np.array_equal(corrupt_flow(field, model).vectors, corrupt_flow(field, model).vectors)

    def test_invalid_pixels_untouched(self):
        vectors = np.ones((10, 10, 2))
        valid = np.zeros((10, 10), dtype=bool)
        valid[2:8, 2:8] = True
        from triad import FlowField

        field = FlowField(vectors, valid)
        out = corrupt_flow(field, NoiseModel(2.0, 0.5, 9.0, seed=4))
        assert np.array_equal(out.vectors[~valid], vectors[~valid])

    def test_outlier_rate_and_span(self):
        vectors = np.zeros((300, 300, 2))
        valid = np.ones((300, 300), dtype=bool)
        from triad import FlowField

        out = corrupt_flow(FlowField(vectors, valid), NoiseModel(0.0, 0.2, 5.0, seed=5))
        moved = np.any(out.vectors != 0.0, axis=2)
        rate = moved.mean()
        assert 0.18 <= rate <= 0.22
        assert np.abs(out.vectors).max() <= 5.0


class TestTrajectories:
    def test_constant_velocity_zero_speed_stationary(self):
        traj = constant_velocity_trajectory(6, velocity=(0.0, 0.0, 0.0))
        for pose in traj.poses:
            assert np.array_equal(pose.translation, np.zeros(3))
            assert np.array_equal(pose.rotation, np.eye(3))

    def test_constant_velocity_translation_arithmetic(self):
        traj = constant_velocity_trajectory(10, velocity=(0.05, 0.0, 0.0))
        assert traj.poses[9].translation[0] == pytest.approx(0.45, abs=1e-12)

    def test_stop_and_go_hold_pattern(self):
        traj = stop_and_go_trajectory(7, velocity=(1.0, 0, 0), move=1, dwell=2)
        xs = [p.translation[0] for p in traj.poses]
        assert xs == [0, 1, 1, 1, 2, 2, 2]

    def test_orbit_consecutive_relative_angle(self):
        n = 12
        traj = orbit_trajectory(n, radius=2.0)
        from triad import relative_angle_translation

        for i in range(n - 1):
            angle, _ = relative_angle_translation(traj.poses[i], traj.poses[i + 1])
            assert angle == pytest.approx(2 * math.pi / n, abs=1e-9)
            # axis-angle oracle
            rel = traj.poses[i + 1].rotation @ traj.poses[i].rotation.T
            assert Rotation.from_matrix(rel).magnitude() == pytest.approx(2 * math.pi / n, abs=1e-9)

    def test_dispatcher(self):
        assert len(make_trajectory("constant_velocity", 4, {"velocity": (0, 0, 0)})) == 4
        assert len(make_trajectory("stop_and_go", 4, {})) == 4
        assert len(make_trajectory("orbit", 4, {"radius": 1.0})) == 4
        with pytest.raises(InputError):
            make_trajectory("spiral", 4, {})


class TestEndToEndConsistency:
    @given(seeds)
    @settings(max_examples=10)
    def test_noise_free_flow_triangulates_to_ground_truth(self, seed):
        rng = np.random.default_rng(seed)
        vx, vy, vz = rng.uniform(-0.06, 0.06, 3) * [1, 1, 0.3]
        cfg = RunConfig(
            width=80, height=60, fx=120.0, fy=120.0, seed=seed, n_frames=4, keyframe=1,
            vx=vx, vy=vy, vz=vz, yaw_rate=rng.uniform(-0.01, 0.01), sigma_flow=0.0, outlier_rate=0.0,
        )
        k, _, scene, _, frames = synthesize(cfg)
        init = triangulate_map(TriangulationInput(k, tuple((exact, pose) for _, pose, exact, _ in frames)))
        gt = scene.depth_map()
        if not init.valid.any():
            return  # degenerate draw (near-zero motion); nothing to check
        rel_err = np.abs(init.depth[init.valid] - gt[init.valid]) / gt[init.valid]
        assert rel_err.max() < 1e-6

    def test_flow_of_composed_motion_matches_composed_pose(self):
        scene = make_scene(64, 48, seed=9)
        k = Intrinsics(100, 100, 32, 24, 64, 48)
        rng = np.random.default_rng(10)
        traj = constant_velocity_trajectory(3, velocity=(0.03, -0.01, 0.02), yaw_rate=0.02)
        a = traj.relative_pose(0, 1)
        b = traj.relative_pose(1, 2)
        direct = render_flow(scene, k, traj.relative_pose(0, 2))
        via_compose = render_flow(scene, k, compose(a, b))
        assert np.array_equal(direct.valid, via_compose.valid)
        assert np.allclose(
            direct.vectors[direct.valid], via_compose.vectors[direct.valid], atol=1e-9
        )
