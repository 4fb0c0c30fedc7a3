import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triad import (
    FlowField,
    InputError,
    Intrinsics,
    RelativePose,
    TriangulationInput,
    epipolar_loss,
    render_flow,
    triangulate_map,
)
from triad.geometry import normalized_grid
from triad.pipeline import ROOM_SUITE, RunConfig, synthesize
from triad.triangulate import InitialDepth

from helpers import (
    apply,
    compose,
    cross_product_loss,
    exact_flow_case,
    golden_section_argmin,
    random_rotation,
    suite_case,
    traced_peak,
    triangulate_pixel,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _random_instance(rng, n_views, noise=1e-3):
    """A pixel instance with known ground-truth depth and mild observation noise."""
    depth = rng.uniform(0.5, 10.0)
    m = np.array([rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5), 1.0])
    point = m * depth
    observations = []
    while len(observations) < n_views:
        rot = random_rotation(rng)
        # small random rotation: blend toward identity to keep the point in front
        rot = np.linalg.qr(np.eye(3) + 0.1 * (rot - np.eye(3)))[0]
        if np.linalg.det(rot) < 0:
            continue
        pose = RelativePose(rot, rng.uniform(-0.5, 0.5, 3))
        transformed = apply(pose, point)
        if transformed[2] < 0.2:
            continue
        ray = transformed + noise * rng.standard_normal(3)
        observations.append((ray, pose))
    return m, observations, depth


def _cost(m, observations, d):
    total = 0.0
    for ray, pose in observations:
        s = np.asarray(ray, dtype=float)
        s = s / np.linalg.norm(s)
        total += float(np.sum(np.cross(s, pose.rotation @ m * d + pose.translation) ** 2))
    return total


class TestTriangulatePixel:
    def test_exact_two_view_geometry(self):
        # keyframe ray straight ahead, camera one unit to the right, point at (0, 0, 2)
        pose = RelativePose(np.eye(3), (-1.0, 0.0, 0.0))
        result = triangulate_pixel([0, 0, 1], [(np.array([-0.5, 0, 1.0]), pose)])
        assert result is not None
        depth, hessian, residual = result
        assert depth == pytest.approx(2.0, abs=1e-12)
        assert hessian == pytest.approx(0.2, abs=1e-12)
        assert residual == pytest.approx(0.0, abs=1e-12)

    def test_accepts_ray_objects(self):
        pose = RelativePose(np.eye(3), (-1.0, 0.0, 0.0))
        ray = np.array([-0.5, 0, 1.0])
        result = triangulate_pixel(np.array([0.0, 0.0, 1.0]), [(ray / np.linalg.norm(ray), pose)])
        assert result[0] == pytest.approx(2.0, abs=1e-12)

    def test_zero_baseline_is_degenerate(self):
        pose = RelativePose(np.eye(3), np.zeros(3))
        m = np.array([0.1, -0.2, 1.0])
        assert triangulate_pixel(m, [(m, pose)]) is None

    def test_negative_depth_is_degenerate_not_clamped(self):
        pose = RelativePose(np.eye(3), (1.0, 0.0, 0.0))  # flipped baseline
        assert triangulate_pixel([0, 0, 1], [(np.array([-0.5, 0, 1.0]), pose)]) is None

    def test_depth_beyond_dmax_is_degenerate(self):
        pose = RelativePose(np.eye(3), (-1.0, 0.0, 0.0))
        assert (
            triangulate_pixel([0, 0, 1], [(np.array([-0.5, 0, 1.0]), pose)], d_max=1.5) is None
        )

    def test_no_observations_rejected(self):
        with pytest.raises(InputError):
            triangulate_pixel([0, 0, 1], [])

    @given(seeds)
    @settings(max_examples=50)
    def test_matches_golden_section_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n_views = int(rng.integers(1, 6))
        m, observations, _ = _random_instance(rng, n_views)
        result = triangulate_pixel(m, observations)
        if result is None:
            return
        depth = result[0]
        argmin = golden_section_argmin(lambda d: _cost(m, observations, d), 1e-6, 100.0)
        assert abs(depth - argmin) <= 1e-6 * depth

    @given(seeds)
    @settings(max_examples=30)
    def test_monotone_information(self, seed):
        rng = np.random.default_rng(seed)
        m, observations, _ = _random_instance(rng, 5)
        hessians = []
        for count in range(1, 6):
            result = triangulate_pixel(m, observations[:count], d_max=np.inf)
            # H accumulates regardless of the solution; recompute directly when degenerate
            h = result[1] if result is not None else sum(
                float(np.sum(np.cross(s / np.linalg.norm(s), p.rotation @ m) ** 2))
                for s, p in (
                    (np.asarray(r, dtype=float), p) for r, p in observations[:count]
                )
            )
            hessians.append(h)
        assert all(b >= a - 1e-15 for a, b in zip(hessians, hessians[1:]))

    @given(seeds)
    @settings(max_examples=30)
    def test_scale_equivariance_exact_for_dyadic_scales(self, seed):
        rng = np.random.default_rng(seed)
        m, observations, _ = _random_instance(rng, 3)
        base = triangulate_pixel(m, observations, d_max=np.inf)
        if base is None:
            return
        for s in (0.5, 2.0, 4.0):
            scaled = [
                (ray, RelativePose(pose.rotation, s * pose.translation))
                for ray, pose in observations
            ]
            result = triangulate_pixel(m, scaled, d_max=np.inf)
            assert result is not None
            assert result[0] == s * base[0]  # depth scales exactly
            assert result[1] == base[1]  # curvature unchanged exactly
            assert result[2] == s * base[2]  # residual scales exactly


class TestTriangulateMap:
    def test_noise_free_recovers_ground_truth(self):
        case = exact_flow_case(seed=0)
        init, gt = case["init"], case["gt"]
        assert init.valid.any()
        err = init.depth[init.valid] - gt[init.valid]
        rmse = np.sqrt(np.mean(err**2))
        assert rmse < 1e-6 * gt[init.valid].mean()

    def test_residual_zero_for_consistent_flow(self):
        case = exact_flow_case(seed=1)
        init = case["init"]
        assert np.nanmax(case["init"].conf_r) < 1e-6
        assert np.all(init.conf_h[init.valid] > 0)

    def test_fully_invalid_flow_gives_fully_invalid_map(self):
        k = Intrinsics(100, 100, 32, 24, 64, 48)
        field = FlowField(np.zeros((48, 64, 2)), np.zeros((48, 64), dtype=bool))
        pose = RelativePose(np.eye(3), (0.1, 0, 0))
        init = triangulate_map(TriangulationInput(k, ((field, pose),)))
        assert not init.valid.any()
        assert np.isnan(init.depth).all()

    def test_single_identity_pose_all_degenerate(self):
        k = Intrinsics(100, 100, 32, 24, 64, 48)
        field = FlowField(np.zeros((48, 64, 2)), np.ones((48, 64), dtype=bool))
        pose = RelativePose(np.eye(3), np.zeros(3))
        init = triangulate_map(TriangulationInput(k, ((field, pose),)))
        assert not init.valid.any()

    @pytest.mark.parametrize(
        "limits, message",
        [({"h_eps": np.nan}, "h_eps must be a finite nonnegative number"),
         ({"h_eps": -1.0}, "h_eps must be a finite nonnegative number"),
         ({"d_max": np.nan}, "d_max must be positive and finite"),
         ({"d_max": -1.0}, "d_max must be positive and finite"),
         ({"d_max": np.inf}, "d_max must be positive and finite")],
    )
    def test_bad_limits_rejected(self, limits, message):
        k = Intrinsics(100, 100, 32, 24, 64, 48)
        field = FlowField(np.full((48, 64, 2), 0.5), np.ones((48, 64), dtype=bool))
        pose = RelativePose(np.eye(3), (0.1, 0, 0))
        with pytest.raises(InputError, match=f"^{message}$"):
            triangulate_map(TriangulationInput(k, ((field, pose),)), **limits)

    def test_dimension_mismatch_rejected(self):
        k = Intrinsics(100, 100, 32, 24, 64, 48)
        field = FlowField(np.zeros((10, 10, 2)), np.ones((10, 10), dtype=bool))
        pose = RelativePose(np.eye(3), (0.1, 0, 0))
        with pytest.raises(InputError):
            TriangulationInput(k, ((field, pose),))

    def test_invalid_observations_dropped_per_pixel(self):
        case = exact_flow_case(seed=2)
        k = case["intrinsics"]
        observations = list(case["observations"])
        # invalidate one frame's flow on the top half only
        field, pose = observations[0]
        valid = field.valid.copy()
        valid[: k.height // 2] = False
        observations[0] = (FlowField(field.vectors, valid), pose)
        init = triangulate_map(TriangulationInput(k, tuple(observations)))
        full = case["init"]
        # those pixels keep the other frames: still valid, with no more curvature
        top = np.zeros_like(init.valid)
        top[: k.height // 2] = True
        assert (init.valid & top).any()
        both = init.valid & full.valid & top
        assert np.all(init.conf_h[both] <= full.conf_h[both] + 1e-15)

    def test_rotated_world_frame_reproduces_depth(self):
        from triad.geometry import Trajectory

        case = exact_flow_case(seed=3)
        scene, k, keyframe = case["scene"], case["intrinsics"], case["keyframe"]
        traj = case["trajectory"]
        q = RelativePose(random_rotation(np.random.default_rng(4)), np.array([0.3, -0.2, 0.6]))
        rotated = Trajectory(traj.timestamps, tuple(compose(w, q) for w in traj.poses))
        observations = []
        for index in range(len(traj)):
            if index == keyframe:
                continue
            pose = rotated.relative_pose(keyframe, index)
            observations.append((render_flow(scene, k, pose), pose))
        init = triangulate_map(TriangulationInput(k, tuple(observations)))
        base = case["init"]
        assert np.array_equal(init.valid, base.valid)
        assert np.allclose(init.depth[init.valid], base.depth[base.valid], atol=1e-9)

    def test_workers_bit_identical(self):
        case = exact_flow_case(seed=5)
        inp = TriangulationInput(case["intrinsics"], tuple(case["observations"]))
        one = triangulate_map(inp, workers=1)
        many = triangulate_map(inp, workers=5)
        assert np.array_equal(one.depth, many.depth, equal_nan=True)
        assert np.array_equal(one.conf_h, many.conf_h, equal_nan=True)
        assert np.array_equal(one.conf_r, many.conf_r, equal_nan=True)
        assert np.array_equal(one.valid, many.valid)


class TestDotProductBound:
    def test_map_matches_cross_product_oracle_on_noisy_suite(self):
        """triangulate_map's dot-product form stays within the module's stated bound."""
        rng = np.random.default_rng(0)
        map_valid, pixel_valid, got, want = [], [], [], []
        for seed in range(3):
            case = suite_case(seed)
            k, init = case["intrinsics"], case["init"]
            m_grid = normalized_grid(k)
            for index in rng.choice(k.height * k.width, 400, replace=False):
                y, x = divmod(int(index), k.width)
                observations = []
                for field, pose in case["observations"]:
                    if field.valid[y, x]:
                        u, v = np.array([x, y]) + field.vectors[y, x]
                        observations.append(([(u - k.cx) / k.fx, (v - k.cy) / k.fy, 1.0], pose))
                result = triangulate_pixel(m_grid[y, x], observations) if observations else None
                map_valid.append(bool(init.valid[y, x]))
                pixel_valid.append(result is not None)
                if init.valid[y, x] and result is not None:
                    depth, hessian, residual = result
                    got.append((init.depth[y, x], init.conf_h[y, x], init.conf_r[y, x]))
                    want.append((depth, np.sqrt(hessian), residual))
        assert len(map_valid) >= 1000
        assert map_valid == pixel_valid
        got, want = np.array(got), np.array(want)
        assert len(got) >= 0.8 * len(map_valid)
        err = np.abs(got - want)
        # the stated float64 bound, plus the float32 rounding of the stored
        # channels (at most 2**-24 relative to the float64 value)
        rounding = 2.0**-24 * (1 + 1e-9)
        assert np.max(err[:, 0] / want[:, 0]) <= 1e-9 + rounding
        assert np.max(err[:, 1] / want[:, 1]) <= 1e-9 + rounding
        assert np.max(err[:, 2] - rounding * want[:, 2]) <= 1e-9 * (1 + rounding)


# Peak traced memory of epipolar_loss on one VGA frame: the float64 per-pixel
# map (2.46 MB), the masks and one band's eight work buffers. Measured at
# 6.74 MB (numpy 2.4, Python 3.11); the bound allows 9.8 % more. The
# cross-product form on whole (H, W, 3) maps peaked at 54.4 MB.
VGA_EPIPOLAR_LOSS_PEAK_BYTES = 7_400_000


class TestEpipolarLoss:
    def test_exact_flow_has_negligible_loss(self):
        case = exact_flow_case(seed=6)
        field, pose = case["observations"][0]
        total, per_pixel = epipolar_loss(field, pose, case["gt"], case["intrinsics"])
        n = int(field.valid.sum())
        assert total < 1e-12 * n
        assert np.nanmax(per_pixel) < 1e-12
        # rounding takes the unfloored dot form below zero on exact flow
        assert np.nanmin(per_pixel) >= 0.0

    def test_matches_row_major_recomputation(self):
        case = exact_flow_case(seed=7, width=64, height=48, fx=90.0, fy=90.0)
        k = case["intrinsics"]
        field, pose = case["observations"][1]
        rng = np.random.default_rng(8)
        noisy = FlowField(field.vectors + rng.normal(0, 2.0, field.vectors.shape), field.valid)
        total, per_pixel = epipolar_loss(noisy, pose, case["gt"], k)
        m_grid = normalized_grid(k)
        want = 0.0
        for y in range(k.height):
            for x in range(k.width):
                if not noisy.valid[y, x]:
                    assert np.isnan(per_pixel[y, x])
                    continue
                u = np.array([x, y]) + noisy.vectors[y, x]
                ray = [(u[0] - k.cx) / k.fx, (u[1] - k.cy) / k.fy, 1.0]
                contribution, q_sq = cross_product_loss(m_grid[y, x], ray, pose, case["gt"][y, x])
                # the module's stated bound
                assert abs(per_pixel[y, x] - contribution) <= 1e-14 * q_sq
                want += contribution
        assert total == pytest.approx(want, rel=1e-12)

    def test_suite_within_stated_bound(self):
        """Exact and decoded noisy flow of every suite frame: NaN, floor and per-pixel bound."""
        rng = np.random.default_rng(0)
        ratios = []
        for seed in range(3):
            k, _, scene, _, frames = synthesize(RunConfig(**ROOM_SUITE, seed=seed))
            gt = scene.depth_map()
            m_grid = normalized_grid(k)
            for _, pose, exact, noisy in frames:
                for field in (exact, FlowField.from_raster(noisy.to_raster())):
                    _, per_pixel = epipolar_loss(field, pose, gt, k)
                    assert np.array_equal(np.isnan(per_pixel), ~(field.valid & np.isfinite(gt)))
                    assert np.nanmin(per_pixel) >= 0.0
                    for index in rng.choice(k.height * k.width, 100, replace=False):
                        y, x = divmod(int(index), k.width)
                        if not field.valid[y, x]:
                            continue
                        u, v = np.array([x, y]) + field.vectors[y, x]
                        ray = [(u - k.cx) / k.fx, (v - k.cy) / k.fy, 1.0]
                        want, q_sq = cross_product_loss(m_grid[y, x], ray, pose, gt[y, x])
                        ratios.append(abs(per_pixel[y, x] - want) / q_sq)
        assert len(ratios) >= 2000
        assert max(ratios) <= 1e-14

    def test_vga_peak_within_bound(self):
        cfg = RunConfig(**ROOM_SUITE, width=640, height=480, fx=800.0, fy=800.0)
        k, _, scene, _, frames = synthesize(cfg)
        gt = scene.depth_map()
        _, pose, _, noisy = next(iter(frames))
        (total, _), peak = traced_peak(lambda: epipolar_loss(noisy, pose, gt, k))
        assert total > 0.0
        assert peak <= VGA_EPIPOLAR_LOSS_PEAK_BYTES, peak / 1e6

    @given(seeds)
    @settings(max_examples=15)
    def test_nonnegative_for_any_input(self, seed):
        rng = np.random.default_rng(seed)
        k = Intrinsics(50, 50, 16, 12, 32, 24)
        field = FlowField(
            rng.uniform(-20, 20, (24, 32, 2)), rng.random((24, 32)) < 0.8
        )
        pose = RelativePose(random_rotation(rng), rng.uniform(-1, 1, 3))
        gt = rng.uniform(0.5, 5.0, (24, 32))
        total, per_pixel = epipolar_loss(field, pose, gt, k)
        assert total >= 0.0
        assert np.nanmin(per_pixel) >= 0.0

    def test_shape_mismatch_rejected(self):
        k = Intrinsics(50, 50, 16, 12, 32, 24)
        field = FlowField(np.zeros((24, 32, 2)), np.ones((24, 32), dtype=bool))
        with pytest.raises(InputError):
            epipolar_loss(field, RelativePose(np.eye(3), (0.1, 0, 0)), np.ones((5, 5)), k)

    # a smaller field, and fields numpy would broadcast against the map
    @pytest.mark.parametrize("height, width", [(24, 32), (48, 1), (1, 64)])
    def test_flow_size_mismatch_rejected(self, height, width):
        k = Intrinsics(90, 90, 32, 24, 64, 48)
        field = FlowField(np.zeros((height, width, 2)), np.ones((height, width), dtype=bool))
        with pytest.raises(InputError, match=f"^flow field is {width}x{height}, intrinsics expect 64x48$"):
            epipolar_loss(field, RelativePose(np.eye(3), (0.1, 0, 0)), np.ones((48, 64)), k)


@functools.cache
def _decoded_and_widened(seed):
    """(intrinsics, gt, float32 observations, the same observations widened to float64).

    The float32 fields are the suite's noisy flow written to rasters, with
    the invalid sentinel, and decoded as ``triad estimate`` decodes a .flo.
    """
    cfg = RunConfig(**ROOM_SUITE, seed=seed)
    k, _, scene, _, frames = synthesize(cfg)
    narrow = tuple((FlowField.from_raster(noisy.to_raster()), pose) for _, pose, _, noisy in frames)
    wide = tuple((FlowField(field.vectors.astype(np.float64), field.valid), pose) for field, pose in narrow)
    return k, scene.depth_map(), narrow, wide


class TestFloat32Flow:
    """A float32 field gives the same bytes as the same field widened to float64."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_triangulate_map_bit_identical(self, seed, workers):
        k, _, narrow, wide = _decoded_and_widened(seed)
        assert all(field.vectors.dtype == np.float32 for field, _ in narrow)
        assert not all(field.valid.all() for field, _ in narrow)
        got = triangulate_map(TriangulationInput(k, narrow), workers=workers)
        want = triangulate_map(TriangulationInput(k, wide), workers=workers)
        for channel in ("depth", "conf_h", "conf_r"):
            assert getattr(got, channel).tobytes() == getattr(want, channel).tobytes()
        assert np.array_equal(got.valid, want.valid)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_epipolar_loss_bit_identical(self, seed):
        k, gt, narrow, wide = _decoded_and_widened(seed)
        for (field, pose), (wide_field, _) in zip(narrow, wide):
            assert field.vectors.dtype == np.float32
            total, per_pixel = epipolar_loss(field, pose, gt, k)
            want_total, want_per_pixel = epipolar_loss(wide_field, pose, gt, k)
            assert total == want_total
            assert per_pixel.tobytes() == want_per_pixel.tobytes()


class TestInitialDepthChecks:
    @staticmethod
    def _channels():
        # pixel (1, 0) is invalid, the other three valid
        depth = np.array([[2.0, 3.0], [np.nan, 4.0]])
        conf_h = np.array([[0.5, 0.1], [np.nan, 0.2]])
        conf_r = np.array([[0.0, 0.01], [np.nan, 0.03]])
        return {"depth": depth, "conf_h": conf_h, "conf_r": conf_r}

    def test_well_formed_maps_accepted(self):
        init = InitialDepth(**self._channels())
        assert np.array_equal(init.valid, [[True, True], [False, True]])

    @pytest.mark.parametrize("name", ["conf_h", "conf_r"])
    def test_shape_mismatch(self, name):
        maps = self._channels()
        maps[name] = maps[name][:, :1]
        with pytest.raises(InputError, match=f"{name} shape .* != depth shape"):
            InitialDepth(**maps)

    # a NaN depth makes its pixel invalid instead (test_depth_decides_validity)
    @pytest.mark.parametrize(
        "value, name",
        [(np.inf, "depth"), (-np.inf, "depth")]
        + [(v, n) for n in ("conf_h", "conf_r") for v in (np.nan, np.inf, -np.inf)],
    )
    def test_nonfinite_on_valid_pixel(self, name, value):
        maps = self._channels()
        maps[name][0, 1] = value
        with pytest.raises(InputError, match=f"^{name} must be finite on valid pixels$"):
            InitialDepth(**maps)

    # a depth that is not NaN makes its pixel valid (test_depth_decides_validity)
    @pytest.mark.parametrize("name", ["conf_h", "conf_r"])
    @pytest.mark.parametrize("value", [1.0, np.inf, -np.inf])
    def test_non_nan_on_invalid_pixel(self, name, value):
        maps = self._channels()
        maps[name][1, 0] = value
        with pytest.raises(InputError, match=f"^{name} must be NaN on invalid pixels$"):
            InitialDepth(**maps)

    @pytest.mark.parametrize(
        "name, value", [("depth", 0.0), ("depth", -1.0), ("conf_h", 0.0), ("conf_r", -0.5)]
    )
    def test_sign_rules_on_valid_pixels(self, name, value):
        maps = self._channels()
        maps[name][1, 1] = value
        with pytest.raises(InputError, match="valid pixels need depth > 0, conf_h > 0, conf_r >= 0"):
            InitialDepth(**maps)

    @pytest.mark.parametrize(
        "pixel, value, message",
        [
            ((0, 1), np.nan, "conf_h must be NaN on invalid pixels"),
            ((1, 0), 1.0, "conf_h must be finite on valid pixels"),
        ],
        ids=["nan-on-valid", "finite-on-invalid"],
    )
    def test_depth_decides_validity(self, pixel, value, message):
        maps = self._channels()
        maps["depth"][pixel] = value
        with pytest.raises(InputError, match=f"^{message}$"):
            InitialDepth(**maps)

    def test_first_failing_channel_named(self):
        maps = self._channels()
        maps["conf_r"][0, 0] = np.nan
        maps["conf_h"][1, 0] = 1.0
        with pytest.raises(InputError, match="^conf_h must be NaN on invalid pixels$"):
            InitialDepth(**maps)
