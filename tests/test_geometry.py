import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from triad import (
    InputError,
    Intrinsics,
    RelativePose,
    Trajectory,
    normalized_grid,
    relative_angle_translation,
)
from triad.geometry import quaternion_to_rotation, rotation_to_quaternion

from helpers import apply, compose, identity_pose, inverse, pixel_to_normalized, pose_matrix, random_pose

seeds = st.integers(min_value=0, max_value=2**32 - 1)


class TestIntrinsics:
    def test_valid(self):
        k = Intrinsics(500, 500, 320, 240, 640, 480)
        assert k.fx == 500

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(fx=0, fy=500, cx=320, cy=240, width=640, height=480),
            dict(fx=500, fy=-1, cx=320, cy=240, width=640, height=480),
            dict(fx=math.inf, fy=500, cx=320, cy=240, width=640, height=480),
            dict(fx=500, fy=500, cx=0, cy=240, width=640, height=480),
            dict(fx=500, fy=500, cx=640, cy=240, width=640, height=480),
            dict(fx=500, fy=500, cx=320, cy=500, width=640, height=480),
        ],
    )
    def test_invariants_rejected(self, kwargs):
        with pytest.raises(InputError):
            Intrinsics(**kwargs)


class TestPixelToNormalized:
    def test_principal_point_maps_to_optical_axis(self):
        k = Intrinsics(500, 500, 320, 240, 640, 480)
        assert np.array_equal(pixel_to_normalized((320, 240), k), [0.0, 0.0, 1.0])

    def test_one_focal_length_off_axis(self):
        k = Intrinsics(500, 500, 320, 240, 1000, 480)
        assert np.allclose(pixel_to_normalized((820, 240), k), [1.0, 0.0, 1.0])

    def test_out_of_bounds_pixel(self):
        k = Intrinsics(500, 500, 320, 240, 640, 480)
        with pytest.raises(InputError):
            pixel_to_normalized((640, 0), k)
        with pytest.raises(InputError):
            pixel_to_normalized((10, -1), k)

    @given(seeds)
    def test_matches_direct_recomputation(self, seed):
        rng = np.random.default_rng(seed)
        width, height = int(rng.integers(2, 2000)), int(rng.integers(2, 2000))
        k = Intrinsics(
            fx=rng.uniform(10, 2000),
            fy=rng.uniform(10, 2000),
            cx=rng.uniform(0.5, width - 0.5),
            cy=rng.uniform(0.5, height - 0.5),
            width=width,
            height=height,
        )
        u = (rng.uniform(0, width - 1e-9), rng.uniform(0, height - 1e-9))
        got = pixel_to_normalized(u, k)
        assert got[0] == (u[0] - k.cx) / k.fx
        assert got[1] == (u[1] - k.cy) / k.fy
        assert got[2] == 1.0

    def test_grid_matches_pixelwise(self):
        k = Intrinsics(123.0, 77.0, 3.5, 2.5, 8, 6)
        grid = normalized_grid(k)
        for y in range(k.height):
            for x in range(k.width):
                assert np.array_equal(grid[y, x], pixel_to_normalized((x, y), k))


class TestPoseAlgebra:
    def test_rotation_invariants_rejected(self):
        with pytest.raises(InputError):
            RelativePose(np.eye(3) * 1.001, np.zeros(3))
        with pytest.raises(InputError):
            RelativePose(np.diag([1.0, 1.0, -1.0]), np.zeros(3))  # det = -1

    def test_compose_identity_element(self):
        rng = np.random.default_rng(7)
        p = random_pose(rng)
        left = compose(identity_pose(), p)
        assert np.array_equal(left.rotation, p.rotation)
        assert np.array_equal(left.translation, p.translation)

    def test_compose_with_inverse_is_identity(self):
        rng = np.random.default_rng(8)
        p = random_pose(rng)
        ident = compose(p, inverse(p))
        assert np.allclose(ident.rotation, np.eye(3), atol=1e-9)
        assert np.allclose(ident.translation, 0.0, atol=1e-9)

    @given(seeds)
    def test_compose_matches_matrix_product(self, seed):
        rng = np.random.default_rng(seed)
        a, b = random_pose(rng), random_pose(rng)
        got = pose_matrix(compose(a, b))
        want = pose_matrix(b) @ pose_matrix(a)
        assert np.allclose(got, want, atol=1e-12)

    @given(seeds)
    def test_compose_associative(self, seed):
        rng = np.random.default_rng(seed)
        a, b, c = (random_pose(rng) for _ in range(3))
        left = compose(compose(a, b), c)
        right = compose(a, compose(b, c))
        assert np.allclose(left.rotation, right.rotation, atol=1e-9)
        assert np.allclose(left.translation, right.translation, atol=1e-9)

    @given(seeds)
    def test_compose_preserves_orthonormality(self, seed):
        rng = np.random.default_rng(seed)
        p = random_pose(rng)
        for _ in range(20):
            p = compose(p, random_pose(rng))
        assert np.abs(p.rotation.T @ p.rotation - np.eye(3)).max() < 1e-9


class TestRelativeAngleTranslation:
    def test_identical_poses(self):
        rng = np.random.default_rng(10)
        p = random_pose(rng)
        angle, dist = relative_angle_translation(p, p)
        assert angle == pytest.approx(0.0, abs=1e-12)
        assert dist == pytest.approx(0.0, abs=1e-12)

    def test_pure_quarter_yaw(self):
        yaw = RelativePose(
            np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]]), np.zeros(3)
        )
        angle, dist = relative_angle_translation(yaw, identity_pose())
        assert angle == pytest.approx(math.pi / 2, abs=1e-12)
        assert dist == 0.0

    @given(seeds)
    def test_matches_quaternion_oracle(self, seed):
        rng = np.random.default_rng(seed)
        a, b = random_pose(rng), random_pose(rng)
        angle, dist = relative_angle_translation(a, b)
        want_angle = Rotation.from_matrix(a.rotation @ b.rotation.T).magnitude()
        want_dist = np.linalg.norm(a.translation - a.rotation @ b.rotation.T @ b.translation)
        assert angle == pytest.approx(want_angle, abs=1e-9)
        assert dist == pytest.approx(want_dist, abs=1e-9)

    @given(seeds)
    def test_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        a, b = random_pose(rng), random_pose(rng)
        angle_ab, dist_ab = relative_angle_translation(a, b)
        angle_ba, dist_ba = relative_angle_translation(b, a)
        assert angle_ab == pytest.approx(angle_ba, abs=1e-9)
        assert dist_ab == pytest.approx(dist_ba, abs=1e-12)


class TestQuaternions:
    @given(seeds)
    def test_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        r = random_pose(rng).rotation
        q = rotation_to_quaternion(r)
        assert np.allclose(quaternion_to_rotation(*q), r, atol=1e-12)


class TestTrajectory:
    def test_monotone_timestamps_required(self):
        poses = (identity_pose(), identity_pose())
        with pytest.raises(InputError):
            Trajectory(np.array([0.0, 0.0]), poses)

    @pytest.mark.parametrize("timestamps", [[0.0, np.inf], [np.nan], [-np.inf, 0.0]])
    def test_finite_timestamps_required(self, timestamps):
        poses = tuple(identity_pose() for _ in timestamps)
        with pytest.raises(InputError, match="finite"):
            Trajectory(np.array(timestamps), poses)

    def test_relative_pose_to_self_is_identity(self):
        rng = np.random.default_rng(11)
        traj = Trajectory(np.array([0.0, 1.0]), (random_pose(rng), random_pose(rng)))
        rel = traj.relative_pose(1, 1)
        assert np.allclose(rel.rotation, np.eye(3), atol=1e-12)
        assert np.allclose(rel.translation, 0.0, atol=1e-12)

    def test_relative_pose_maps_between_frames(self):
        rng = np.random.default_rng(12)
        w0, w1 = random_pose(rng), random_pose(rng)
        traj = Trajectory(np.array([0.0, 1.0]), (w0, w1))
        point_cam0 = rng.uniform(-1, 1, 3)
        world = apply(w0, point_cam0)
        want = apply(inverse(w1), world)
        assert np.allclose(apply(traj.relative_pose(0, 1), point_cam0), want, atol=1e-12)

    @given(seeds)
    def test_relative_pose_is_compose_with_inverse_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        poses = tuple(random_pose(rng, t_scale=10.0) for _ in range(3))
        traj = Trajectory(np.arange(3.0), poses)
        for src in range(3):
            for dst in range(3):
                got = traj.relative_pose(src, dst)
                want = compose(poses[src], inverse(poses[dst]))
                assert np.array_equal(got.rotation, want.rotation)
                assert np.array_equal(got.translation, want.translation)
                assert not got.rotation.flags.writeable and not got.translation.flags.writeable

    def test_bad_user_pose_still_rejected_at_construction(self):
        bad = np.eye(3)
        bad[0, 1] = 1e-6  # off orthonormal by far more than ORTHONORMAL_TOL
        with pytest.raises(InputError):
            Trajectory(np.array([0.0, 1.0]), (identity_pose(), RelativePose(bad, np.zeros(3))))
