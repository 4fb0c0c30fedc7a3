import math
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triad import (
    InputError,
    RefineConfig,
    WeightMaps,
    build_weights,
    laplacian_nll,
    refine,
)
from triad import pipeline, refinement
from triad.pipeline import ROOM_SUITE, RunConfig, cmd_estimate, cmd_refine, cmd_synth, cmd_triangulate
from triad.refinement import WEIGHT_MODES
from triad.triangulate import InitialDepth

from helpers import objective_value, refine_iterates, suite_case, traced_peak, weight_maps

seeds = st.integers(min_value=0, max_value=2**32 - 1)

# The flux-form band pass reorders the reference's rounding, so iterates and
# objective values agree within REL relative rather than bit for bit. The
# objective also gets an absolute floor: at C = 0 a relative bound is empty,
# and mu * g can underflow to 0 where the reference's mu * sum(g dd^2) does not.
REL = 1e-12
OBJECTIVE_FLOOR = 1e-300


def make_initial(depth, valid, conf_h=None, conf_r=None):
    depth = np.asarray(depth, dtype=np.float64)
    valid = np.asarray(valid, dtype=bool)
    nan = np.nan
    conf_h = np.ones_like(depth) if conf_h is None else np.asarray(conf_h, dtype=np.float64)
    conf_r = np.zeros_like(depth) if conf_r is None else np.asarray(conf_r, dtype=np.float64)
    return InitialDepth(
        depth=np.where(valid, depth, nan),
        conf_h=np.where(valid, conf_h, nan),
        conf_r=np.where(valid, conf_r, nan),
    )


def random_initial(rng, height=6, width=7, valid_fraction=1.0):
    depth = rng.uniform(1.0, 3.0, (height, width))
    valid = rng.random((height, width)) < valid_fraction
    conf_h = rng.uniform(0.05, 0.2, (height, width))
    conf_r = rng.uniform(0.0, 0.05, (height, width))
    return make_initial(depth, valid, conf_h, conf_r)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(iterations=-1),
            dict(omega=0.0),
            dict(omega=1.5),
            dict(mu=-0.1),
            dict(kappa=0.0),
            dict(tau=0.0),
            dict(sigma_min=0.0),
            dict(weight_mode="hessian"),
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(InputError):
            RefineConfig(**kwargs)


class TestBuildWeights:
    def test_zero_residual_weight_formula(self):
        init = make_initial([[2.0]], [[True]], conf_h=[[1.0]], conf_r=[[0.0]])
        cfg = RefineConfig(tau=0.1, w_max=100.0)
        weights = build_weights(init, np.zeros((1, 1)), cfg)
        assert weights.w[0, 0] == pytest.approx(100.0, rel=1e-12)  # 1 / 0.1^2, at the clip

    def test_clip_at_w_max(self):
        init = make_initial([[2.0]], [[True]], conf_h=[[10.0]], conf_r=[[0.0]])
        cfg = RefineConfig(tau=0.01, w_max=50.0)
        weights = build_weights(init, np.zeros((1, 1)), cfg)
        assert weights.w[0, 0] == 50.0

    def test_invalid_pixel_gets_zero_weight(self):
        init = make_initial([[2.0, 2.0]], [[True, False]])
        weights = build_weights(init, np.zeros((1, 2)), RefineConfig())
        assert weights.w[0, 1] == 0.0

    def test_constant_intensity_gives_unit_edge_weights(self):
        init = random_initial(np.random.default_rng(0))
        weights = build_weights(init, np.full(init.depth.shape, 0.37), RefineConfig())
        assert np.all(weights.mu_gh[:, :-1] == 1.0)
        assert np.all(weights.mu_gh[:, -1] == 0.0)
        assert np.all(weights.mu_gv == 1.0)

    def test_edge_weights_weaken_across_edges(self):
        init = random_initial(np.random.default_rng(1), height=2, width=2)
        intensity = np.array([[0.0, 1.0], [0.0, 0.0]])
        weights = build_weights(init, intensity, RefineConfig(kappa=0.5))
        assert weights.mu_gh[0, 0] == pytest.approx(math.exp(-2.0))
        assert weights.mu_gh[1, 0] == 1.0
        assert weights.mu_gv[0, 1] == pytest.approx(math.exp(-2.0))

    def test_edge_weights_lie_in_unit_interval_and_scale_by_mu(self):
        rng = np.random.default_rng(3)
        init = random_initial(rng)
        intensity = rng.uniform(0, 1, init.depth.shape)
        unit = build_weights(init, intensity, RefineConfig())
        g_h, g_v = unit.mu_gh[:, :-1], unit.mu_gv
        assert np.all((g_h > 0) & (g_h <= 1)) and np.all((g_v > 0) & (g_v <= 1))
        scaled = build_weights(init, intensity, RefineConfig(mu=2.5))
        assert scaled.mu_gh[:, :-1].tobytes() == (2.5 * g_h).tobytes()
        assert scaled.mu_gv.tobytes() == (2.5 * g_v).tobytes()
        assert scaled.w.tobytes() == unit.w.tobytes()

    def test_ablation_weight_modes(self):
        rng = np.random.default_rng(2)
        init = random_initial(rng)
        intensity = rng.uniform(0, 1, init.depth.shape)
        tau_sq = 0.05**2
        hess = np.where(init.valid, init.conf_h, 0.0) ** 2
        res_sq = np.where(init.valid, init.conf_r, 0.0) ** 2
        expected = {
            "full": hess / (res_sq + tau_sq),
            "hessian_only": hess / tau_sq,
            "residual_only": 1.0 / (res_sq + tau_sq),
            "constant": np.ones_like(hess),
        }
        for mode, want in expected.items():
            weights = build_weights(init, intensity, RefineConfig(tau=0.05, weight_mode=mode))
            assert np.allclose(weights.w[init.valid], np.minimum(want, 1e4)[init.valid])
            assert np.all(weights.w[~init.valid] == 0.0)

    def test_symmetric_edge_weights_by_construction(self):
        with pytest.raises(InputError):
            WeightMaps(w=np.ones((3, 3)), mu_gh=np.ones((3, 2)), mu_gv=np.ones((2, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    @pytest.mark.parametrize("name", ["w", "mu_gh", "mu_gv"])
    def test_rejects_non_finite_or_negative_weights(self, name, bad):
        maps = {"w": np.ones((3, 3)), "mu_gh": np.zeros((3, 3)), "mu_gv": np.ones((2, 3))}
        maps[name][1, 1] = bad
        with pytest.raises(InputError, match=f"^{name} "):
            WeightMaps(**maps)

    def test_rejects_weight_on_the_row_end_padding(self):
        mu_gh = np.zeros((3, 3))
        mu_gh[1, -1] = 0.5
        with pytest.raises(InputError):
            WeightMaps(w=np.ones((3, 3)), mu_gh=mu_gh, mu_gv=np.ones((2, 3)))


class TestRefine:
    def test_mu_zero_is_exact_fixed_point(self):
        rng = np.random.default_rng(3)
        init = random_initial(rng)
        cfg = RefineConfig(mu=0.0, iterations=9)
        weights = build_weights(init, np.zeros(init.depth.shape), cfg)
        result = refine(init.depth, weights, cfg)
        assert np.array_equal(result.depth[init.valid], init.depth[init.valid])

    def test_zero_weights_constant_initialization_is_fixed(self):
        shape = (5, 6)
        init = make_initial(np.full(shape, 1.0), np.zeros(shape, dtype=bool))
        cfg = RefineConfig(iterations=8)
        weights = build_weights(init, np.zeros(shape), cfg)
        assert np.all(weights.w == 0.0)
        result = refine(init.depth, weights, cfg)
        assert result.objective[0] == 0.0
        assert max(result.objective) <= 1e-20
        assert np.ptp(result.depth) <= 1e-12

    def test_matches_dense_direct_solve(self):
        # 4x4 grid, uniform edge weights, long Jacobi run vs. the 16x16 solve
        rng = np.random.default_rng(4)
        h = w = 4
        depth = rng.uniform(1.0, 3.0, (h, w))
        init = make_initial(depth, np.ones((h, w), dtype=bool))
        mu, omega = 0.5, 0.9
        weights = weight_maps(rng.uniform(0.5, 2.0, (h, w)), np.ones((h, w - 1)), np.ones((h - 1, w)), mu)
        cfg = RefineConfig(mu=mu, omega=omega, iterations=500)
        result = refine(init.depth, weights, cfg)

        def flat(y, x):
            return y * w + x

        a = np.zeros((h * w, h * w))
        b = np.zeros(h * w)
        for y in range(h):
            for x in range(w):
                i = flat(y, x)
                a[i, i] += weights.w[y, x]
                b[i] += weights.w[y, x] * depth[y, x]
                for dy, dx in ((0, 1), (0, -1), (1, 0), (-1, 0)):
                    yy, xx = y + dy, x + dx
                    if 0 <= yy < h and 0 <= xx < w:
                        a[i, i] += mu
                        a[i, flat(yy, xx)] -= mu
        direct = np.linalg.solve(a, b).reshape(h, w)
        assert np.abs(result.depth - direct).max() <= 1e-6

    @given(seeds)
    @settings(max_examples=20)
    def test_monotone_descent(self, seed):
        rng = np.random.default_rng(seed)
        init = random_initial(rng, height=8, width=9, valid_fraction=0.8)
        cfg = RefineConfig(
            mu=float(rng.uniform(0.0, 3.0)),
            omega=float(rng.uniform(0.2, 1.0)),
            iterations=12,
        )
        weights = build_weights(init, rng.uniform(0, 1, init.depth.shape), cfg)
        result = refine(init.depth, weights, cfg)
        for earlier, later in zip(result.objective, result.objective[1:]):
            assert later <= earlier + 1e-9

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_monotone_descent_over_200_iterations_on_suite_map(self, seed):
        case = suite_case(seed, refine_cfg=RefineConfig(iterations=0))
        result = refine(case["init"].depth, case["weights"], RefineConfig(iterations=200))
        # near the optimum a step lowers C by less than C's rounding error
        # (about 1e-15 relative), so a later value may exceed an earlier one by that
        for earlier, later in zip(result.objective, result.objective[1:]):
            assert later <= earlier * (1.0 + REL)
        assert result.objective[-1] < 0.2 * result.objective[0]

    def test_objective_value_matches_manual(self):
        depth = np.array([[1.0, 2.0], [3.0, 4.0]])
        dbar = np.array([[1.5, 2.0], [2.0, 4.0]])
        weights = weight_maps([[1.0, 2.0], [0.5, 0.0]], [[0.5], [1.0]], [[0.25, 0.75]], mu=2.0)
        # data: 1*0.25 + 0 + 0.5*1 + 0; horizontal: 0.5*1 + 1*1; vertical: 0.25*4 + 0.75*4
        want = 0.75 + 2.0 * (1.5 + 4.0)
        assert objective_value(depth, dbar, weights) == pytest.approx(want, rel=1e-12)

    def test_anchoring_of_high_confidence_pixels(self):
        rng = np.random.default_rng(5)
        h, w = 10, 12
        depth = rng.uniform(1.0, 3.0, (h, w))
        init = make_initial(depth, np.ones((h, w), dtype=bool))
        wmap = np.full((h, w), 0.01)
        anchored = rng.random((h, w)) < 0.3
        wmap[anchored] = 1e4  # >= 100 * mu * degree for mu = 1, degree <= 4
        weights = weight_maps(wmap, np.ones((h, w - 1)), np.ones((h - 1, w)))
        cfg = RefineConfig(mu=1.0, iterations=7)
        result = refine(init.depth, weights, cfg)
        drift = np.abs(result.depth - depth)[anchored]
        assert np.all(drift <= 0.05 * depth[anchored])

    def test_maximum_principle(self):
        rng = np.random.default_rng(6)
        init = random_initial(rng, height=9, width=9, valid_fraction=0.7)
        cfg = RefineConfig(mu=2.0, iterations=20)
        weights = build_weights(init, rng.uniform(0, 1, init.depth.shape), cfg)
        _, iterates = refine_iterates(init.depth, weights, cfg)
        assert len(iterates) == 21
        lo = init.depth[init.valid].min()
        hi = init.depth[init.valid].max()
        for iterate in iterates:
            assert iterate.min() >= lo - 1e-12
            assert iterate.max() <= hi + 1e-12

    def test_median_fill_for_invalid_pixels(self):
        init = make_initial([[1.0, 2.0, 9.0]], [[True, True, False]])
        cfg = RefineConfig(iterations=0)
        weights = build_weights(init, np.zeros((1, 3)), cfg)
        _, (d0,) = refine_iterates(init.depth, weights, cfg)
        assert d0[0, 2] == 1.5  # median of the valid depths

    @pytest.mark.parametrize(
        "values",
        [[2.5], [3.0, 1.0], [1.0, 1.0], [4.0, 1.0, 3.0], [2.0, 2.0, 1.0, 2.0], [5.0, 1.0, 1.0, 5.0]]
        + [list(np.random.default_rng(n).uniform(0.1, 9.0, n)) for n in (7, 8, 1000, 1001)]
        + [list(np.random.default_rng(n).integers(1, 4, n) * 0.5) for n in (9, 10, 64)],
        ids=lambda values: f"n{len(values)}",
    )
    def test_fill_median_equals_numpy_median(self, values):
        # one partition at n // 2, plus the largest value below it for even n
        values = np.asarray(values, dtype=np.float64)
        want = np.median(values)
        got = refinement._median(values.copy())
        assert got == want and np.signbit(got) == np.signbit(want), (got, want)
        # float32 values give the median of their float64 widening
        narrow = values.astype(np.float32)
        got = refinement._median(narrow.copy())
        assert type(got) is float and got == np.median(narrow.astype(np.float64))

    def test_all_invalid_fill_is_one_meter(self):
        init = make_initial(np.full((2, 2), 5.0), np.zeros((2, 2), dtype=bool))
        cfg = RefineConfig(iterations=0)
        weights = build_weights(init, np.zeros((2, 2)), cfg)
        _, (d0,) = refine_iterates(init.depth, weights, cfg)
        assert np.all(d0 == 1.0)

    def test_unconstrained_pixel_holds_init_and_gets_sigma_cap(self):
        init = make_initial([[2.0, 3.0]], [[True, False]])
        cfg = RefineConfig(mu=0.0, iterations=5, sigma_cap=7.5)
        weights = build_weights(init, np.zeros((1, 2)), cfg)
        result = refine(init.depth, weights, cfg)
        assert result.depth[0, 1] == 2.0  # median fill, held
        assert result.uncertainty[0, 1] == 7.5

    def test_sigma_floor(self):
        init = make_initial([[2.0]], [[True]], conf_h=[[100.0]], conf_r=[[0.0]])
        cfg = RefineConfig(sigma_min=0.05, w_max=1e12)
        weights = build_weights(init, np.zeros((1, 1)), cfg)
        result = refine(init.depth, weights, cfg)
        assert result.uncertainty[0, 0] == 0.05

    def test_uncertainty_monotone_in_data_weight(self):
        h, w = 1, 64
        wmap = np.linspace(0.0, 50.0, w).reshape(h, w)
        init = make_initial(np.full((h, w), 2.0), np.ones((h, w), dtype=bool))
        weights = weight_maps(wmap, np.ones((h, w - 1)), np.ones((0, w)))
        result = refine(init.depth, weights, RefineConfig(iterations=0))
        sigma = result.uncertainty[0, 1:-1]  # interior: same smoothness degree everywhere
        assert np.all(np.diff(sigma) <= 1e-15)

    @pytest.mark.parametrize(
        "bad, message",
        [("shape", "different map size"), (np.inf, "finite or NaN"), (-np.inf, "finite or NaN")],
    )
    def test_rejects_a_depth_of_another_shape_or_with_infinities(self, bad, message):
        init = random_initial(np.random.default_rng(10))  # every pixel valid
        cfg = RefineConfig()
        weights = build_weights(init, np.zeros(init.depth.shape), cfg)
        depth = init.depth[:, :-1].copy() if bad == "shape" else init.depth.copy()
        if bad != "shape":
            depth[2, 3] = bad
        with pytest.raises(InputError, match=message):
            refine(depth, weights, cfg)

    def test_statistical_improvement_across_noise_grid(self):
        # refined beats initial in median across seeds for every noise setting
        for sigma_flow, outlier_rate in [(0.5, 0.0), (0.5, 0.05), (2.0, 0.0), (2.0, 0.05)]:
            initial_rmse, refined_rmse = [], []
            for seed in range(20):
                case = suite_case(
                    seed,
                    sigma_flow=sigma_flow,
                    outlier_rate=outlier_rate,
                    width=160,
                    height=120,
                    fx=200.0,
                    fy=200.0,
                )
                gt, mask = case["gt"], case["mask"]
                init, result = case["init"], case["result"]
                initial_rmse.append(np.sqrt(np.mean((init.depth[mask] - gt[mask]) ** 2)))
                refined_rmse.append(np.sqrt(np.mean((result.depth[mask] - gt[mask]) ** 2)))
            assert np.median(refined_rmse) < np.median(initial_rmse), (
                f"no improvement at sigma={sigma_flow}, outliers={outlier_rate}"
            )


def reference_diagonal(weights):
    """The diagonal of the normal equations: w + the sum of the mu g of each pixel's edges."""
    gh, gv = weights.mu_gh[:, :-1], weights.mu_gv
    degree = np.zeros_like(weights.w)
    degree[:, :-1] += gh
    degree[:, 1:] += gh
    degree[:-1, :] += gv
    degree[1:, :] += gv
    return weights.w + degree


def reference_jacobi(init, weights, cfg):
    """The plain damped-Jacobi update with fresh arrays for every term, on the float64 widening of the depth."""
    valid = init.valid
    depth = init.depth.astype(np.float64)
    dbar = np.where(valid, depth, 0.0)
    fill = float(np.median(depth[valid])) if np.any(valid) else 1.0
    d = np.where(valid, depth, fill)
    gh, gv = weights.mu_gh[:, :-1], weights.mu_gv
    denom = reference_diagonal(weights)
    constrained = denom > 0.0
    safe_denom = np.where(constrained, denom, 1.0)

    def objective(d):
        data = np.sum(weights.w * np.square(d - dbar))
        smooth_h = np.sum(gh * np.square(np.diff(d, axis=1)))
        smooth_v = np.sum(gv * np.square(np.diff(d, axis=0)))
        return float(data + (smooth_h + smooth_v))

    iterates, values = [d.copy()], [objective(d)]
    for _ in range(cfg.iterations):
        s = np.zeros_like(d)
        s[:, :-1] += gh * d[:, 1:]
        s[:, 1:] += gh * d[:, :-1]
        s[:-1, :] += gv * d[1:, :]
        s[1:, :] += gv * d[:-1, :]
        target_delta = (weights.w * dbar + s - denom * d) / safe_denom
        d = np.where(constrained, d + cfg.omega * target_delta, d)
        iterates.append(d.copy())
        values.append(objective(d))
    sigma = np.where(constrained, np.maximum(cfg.sigma_min, cfg.beta / np.sqrt(safe_denom)), cfg.sigma_cap)
    return iterates, values, sigma


def refine_on(init, weights, cfg):
    """(refine with one worker, the iterates it showed), after checking that 2 and 3 workers give the same bytes."""
    serial, iterates = refine_iterates(init.depth, weights, cfg)
    assert serial.depth.tobytes() == iterates[-1].tobytes()
    for workers in (2, 3):
        result, got = refine_iterates(init.depth, weights, cfg, workers)
        assert [d.tobytes() for d in got] == [d.tobytes() for d in iterates], workers
        assert result.depth.tobytes() == serial.depth.tobytes(), workers
        assert result.objective == serial.objective, workers
        assert result.uncertainty.tobytes() == serial.uncertainty.tobytes(), workers
    return serial, iterates


def assert_objective_close(got, want):
    assert len(got) == len(want)
    for g, v in zip(got, want):
        assert abs(g - v) <= REL * abs(v) + OBJECTIVE_FLOOR, (g, v)


def assert_matches_reference(result, got_iterates, iterates, values, sigma):
    """Iterates and objective within the stated bound; sigma bit for bit."""
    assert len(got_iterates) == len(iterates)
    for got, want in zip(got_iterates, iterates):
        np.testing.assert_allclose(got, want, rtol=REL, atol=0.0)
    assert_objective_close(result.objective, values)
    assert np.array_equal(result.uncertainty, sigma)


class TestBufferedJacobi:
    """refine against the reference; refine_on also checks 2 and 3 workers against 1 bit for bit."""

    @pytest.mark.parametrize(
        "seed, valid_fraction, mu, omega",
        [(0, 1.0, 1.0, 0.9), (1, 0.6, 2.5, 0.7), (2, 0.3, 0.4, 1.0), (3, 0.5, 0.0, 0.9), (4, 0.0, 1.0, 0.9)],
    )
    def test_matches_reference_bit_for_bit(self, seed, valid_fraction, mu, omega):
        rng = np.random.default_rng(seed)
        init = random_initial(rng, height=11, width=13, valid_fraction=valid_fraction)
        cfg = RefineConfig(mu=mu, omega=omega, iterations=9)
        weights = build_weights(init, rng.uniform(0, 1, init.depth.shape), cfg)
        result, got = refine_on(init, weights, cfg)
        iterates, values, sigma = reference_jacobi(init, weights, cfg)
        assert len(iterates) == 10
        # the name predates the flux form: sigma is bit for bit, the rest within REL
        assert_matches_reference(result, got, iterates, values, sigma)
        if mu == 0.0:  # invalid pixels have no constraint: held at the fill, sigma_cap
            assert np.all(result.uncertainty[~init.valid] == cfg.sigma_cap)
            assert np.all(result.depth[~init.valid] == iterates[0][~init.valid])

    def test_matches_reference_on_suite_map(self):
        case = suite_case(0, width=160, height=120, fx=200.0, fy=200.0)
        cfg = RefineConfig(iterations=12)
        init, weights = case["init"], case["weights"]
        assert_matches_reference(*refine_on(init, weights, cfg), *reference_jacobi(init, weights, cfg))

    @pytest.mark.parametrize("with_callback", [True, False])
    def test_sigma_after_no_pass_matches_reference(self, with_callback):
        rng = np.random.default_rng(9)
        init = random_initial(rng, height=11, width=13, valid_fraction=0.6)
        cfg = RefineConfig(mu=1.3, iterations=0)
        weights = build_weights(init, rng.uniform(0, 1, init.depth.shape), cfg)
        if with_callback:
            result, got = refine_on(init, weights, cfg)
        else:
            result = refine(init.depth, weights, cfg)
            got = [result.depth]  # with no pass, d(K) is d(0)
        assert_matches_reference(result, got, *reference_jacobi(init, weights, cfg))

    def test_objective_value_matches_reference(self):
        rng = np.random.default_rng(5)
        init = random_initial(rng, height=9, width=10, valid_fraction=0.7)
        cfg = RefineConfig(mu=1.7, iterations=3)
        weights = build_weights(init, rng.uniform(0, 1, init.depth.shape), cfg)
        iterates, values, _ = reference_jacobi(init, weights, cfg)
        dbar = np.where(init.valid, init.depth, 0.0)
        assert_objective_close([objective_value(d, dbar, weights) for d in iterates], values)

    def test_final_map_only_by_default(self):
        # a callback only reads the iterates: without one, refine gives the same bytes
        rng = np.random.default_rng(6)
        init = random_initial(rng, valid_fraction=0.8)
        cfg = RefineConfig(iterations=6)
        weights = build_weights(init, rng.uniform(0, 1, init.depth.shape), cfg)
        watched, _ = refine_on(init, weights, cfg)
        for workers in (1, 2, 3):
            final = refine(init.depth, weights, cfg, workers=workers)
            assert final.depth.tobytes() == watched.depth.tobytes(), workers
            assert final.uncertainty.tobytes() == watched.uncertainty.tobytes(), workers
            assert np.array(final.objective).tobytes() == np.array(watched.objective).tobytes(), workers


    @pytest.mark.parametrize("shape", [(1, 9), (9, 1), (1, 1)])
    @pytest.mark.parametrize("mu", [0.0, 1.3])
    @pytest.mark.parametrize("valid_fraction", [0.6, 0.0])
    def test_thin_maps_match_reference(self, shape, mu, valid_fraction):
        rng = np.random.default_rng(7)
        init = random_initial(rng, *shape, valid_fraction=valid_fraction)
        cfg = RefineConfig(mu=mu, iterations=5)
        weights = build_weights(init, rng.uniform(0, 1, shape), cfg)
        result, got = refine_on(init, weights, cfg)
        iterates, values, sigma = reference_jacobi(init, weights, cfg)
        assert_matches_reference(result, got, iterates, values, sigma)
        # pixels with no diagonal (all invalid ones when mu = 0) hold d(0) exactly
        held = ~(reference_diagonal(weights) > 0.0)
        assert all(np.array_equal(iterate[held], iterates[0][held]) for iterate in got)

    def test_underflowed_smoothness_holds_pixel(self):
        # mu * g rounds to 0, so the invalid middle pixel has no diagonal; with
        # neighbours of 1e-300 and 1e9 it must still hold d(0) exactly
        init = make_initial([[1e-300, 1e-300, 1.0, 1e9, 1e-300]], [[True, True, False, True, True]])
        cfg = RefineConfig(mu=5e-324, iterations=3)
        weights = weight_maps([[1.0, 1.0, 0.0, 1.0, 1.0]], np.full((1, 4), 0.2), np.empty((0, 5)), cfg.mu)
        assert reference_diagonal(weights)[0, 2] == 0.0
        result, got = refine_on(init, weights, cfg)
        iterates, values, sigma = reference_jacobi(init, weights, cfg)
        assert_matches_reference(result, got, iterates, values, sigma)
        assert all(iterate[0, 2] == iterates[0][0, 2] for iterate in got)

    def test_refine_spans_bands(self):
        rng = np.random.default_rng(8)
        init = random_initial(rng, height=300, width=400, valid_fraction=0.7)
        cfg = RefineConfig(mu=0.8, iterations=2)
        weights = build_weights(init, rng.uniform(0, 1, init.depth.shape), cfg)
        assert_matches_reference(*refine_on(init, weights, cfg), *reference_jacobi(init, weights, cfg))

    def test_groups_split_the_bands_in_order(self):
        shape = (300, 400)
        weights = weight_maps(np.ones(shape), np.full((300, 399), 0.5), np.full((299, 400), 0.5))
        (serial,) = refinement._BandPass(np.zeros(shape), weights).groups
        for workers in (2, 3):
            groups = refinement._BandPass(np.zeros(shape), weights, workers=workers).groups
            assert len(groups) == workers
            assert [band for group in groups for band in group] == serial

    def test_objective_value_spans_bands(self):
        rng = np.random.default_rng(8)
        init = random_initial(rng, height=300, width=400, valid_fraction=0.7)
        cfg = RefineConfig(mu=0.8, iterations=2)
        weights = build_weights(init, rng.uniform(0, 1, init.depth.shape), cfg)
        iterates, values, _ = reference_jacobi(init, weights, cfg)
        dbar = np.where(init.valid, init.depth, 0.0)
        assert_objective_close([objective_value(d, dbar, weights) for d in iterates], values)


class TestBufferedJacobiSmallBands(TestBufferedJacobi):
    """Every TestBufferedJacobi case again, with refine's row bands of one and of three rows."""

    @pytest.fixture(autouse=True, params=[1, 3])
    def small_bands(self, request, monkeypatch):
        def row_bands(height, width, rows=request.param):
            return [slice(y, min(y + rows, height)) for y in range(0, height, rows)]

        monkeypatch.setattr(refinement, "row_bands", row_bands)


class TestOnIterate:
    """The per-iterate callback: when it is called, where, and what it may do to the iterates.

    That it shows the same bytes for 1, 2 and 3 workers, refine_on checks on every TestBufferedJacobi case.
    """

    @staticmethod
    def case(iterations=5, seed=10):
        rng = np.random.default_rng(seed)
        # 131 rows of 509 pixels make three row bands, so two and three workers run threads
        init = random_initial(rng, height=131, width=509, valid_fraction=0.7)
        cfg = RefineConfig(mu=1.1, iterations=iterations)
        return init, build_weights(init, rng.uniform(0, 1, init.depth.shape), cfg), cfg

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_called_once_per_iterate_in_order_on_the_calling_thread(self, workers):
        init, weights, cfg = self.case()
        calls = []
        refine(init.depth, weights, cfg, workers, lambda k, d: calls.append((k, threading.get_ident())))
        assert calls == [(k, threading.get_ident()) for k in range(cfg.iterations + 1)]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_iterates_are_read_only(self, workers):
        init, weights, cfg = self.case()
        seen = []

        def write(k, d):
            seen.append(d.flags.writeable)
            with pytest.raises(ValueError):
                d[0, 0] = 0.0

        result = refine(init.depth, weights, cfg, workers, write)
        assert seen == [False] * (cfg.iterations + 1)
        # the writes were refused, so the result is that of an unwatched run
        assert result.depth.tobytes() == refine(init.depth, weights, cfg, workers).depth.tobytes()

    def test_no_iterations_show_the_filled_start(self):
        init, weights, cfg = self.case(iterations=0)
        result, iterates = refine_iterates(init.depth, weights, cfg)
        fill = np.median(init.depth[init.valid])
        assert len(iterates) == 1
        assert iterates[0].tobytes() == np.where(init.valid, init.depth, fill).tobytes()
        assert result.depth.tobytes() == iterates[0].tobytes()

    def test_two_maps_alternate(self):
        # d(k) and d(k + 2) share a map: the callback's view of d(k) is valid during its call only
        init, weights, cfg = self.case()
        addresses = []
        result = refine(init.depth, weights, cfg, on_iterate=lambda k, d: addresses.append(d.ctypes.data))
        assert addresses[2:] == addresses[:-2] and addresses[0] != addresses[1]
        assert result.depth.ctypes.data == addresses[-1]


class TestRefineMemory:
    @staticmethod
    def vga_peaks(workers):
        """Peak traced bytes of refine at 7 and 40 iterations, and the bytes of one map."""
        rng = np.random.default_rng(9)
        init = random_initial(rng, height=480, width=640, valid_fraction=0.8)
        weights = build_weights(init, rng.uniform(0, 1, init.depth.shape), RefineConfig())
        # lazy set-up outside the measurement
        refine(init.depth, weights, RefineConfig(iterations=1), workers=workers)
        peaks = {}
        for iterations in (7, 40):
            cfg = RefineConfig(iterations=iterations)
            _, peaks[iterations] = traced_peak(lambda: refine(init.depth, weights, cfg, workers=workers))
        # only the objective list grows with the iteration count
        assert abs(peaks[40] - peaks[7]) < 4096
        return peaks[7], init.depth.nbytes

    def test_vga_peak_is_bounded_and_independent_of_iterations(self):
        peak, map_bytes = self.vga_peaks(workers=1)
        # the step, d, dbar, the spare map and four band buffers; sigma comes
        # after the last pass, in the step's map
        assert peak <= 4.6 * map_bytes  # 4.41 maps measured; 5.41 with sigma held through the passes

    def test_vga_peak_with_two_workers(self):
        # each group of row bands has its own buffers: four of a 48-row band
        # plus one row, 0.41 VGA maps
        peak, map_bytes = self.vga_peaks(workers=2)
        assert peak <= 5.0 * map_bytes  # 4.82 maps measured; 5.82 with sigma held through the passes


VGA = {"width": 640, "height": 480, "fx": 800.0, "fy": 800.0}


def triangulated_bundle(root, **settings) -> RunConfig:
    """A synthetic 5-frame suite bundle under ``root``, triangulated into its out_dir; returns its config."""
    cfg = RunConfig(**dict(ROOM_SUITE, n_frames=5, fixed_step=1, **settings))
    cmd_synth(cfg, root)
    cmd_triangulate(cfg, root)
    return cfg


class TestRefineCommandMemory:
    def test_vga_peak(self, tmp_path):
        # the perfbench refine_vga_40it call: the float32 initial depth (0.5
        # maps; the confidence maps go once build_weights has read them), the
        # weights' w, mu g_h and mu g_v, the step, d, dbar and the spare map,
        # and two groups' band buffers (0.82 maps). Measured at 8.32 maps
        # (numpy 2.4, Python 3.11); the confidence maps and sigma held through
        # the passes took 10.45, and float64 initial maps, unscaled edge maps
        # kept through the iterations and six band buffers 14.36.
        cfg = triangulated_bundle(tmp_path, **VGA, workers=2, iterations=40)
        cmd_refine(cfg, tmp_path)  # lazy set-up outside the measurement
        summary, peak = traced_peak(lambda: cmd_refine(cfg, tmp_path))
        assert summary["depth"].dtype == np.float32
        assert peak <= 8.8 * 8 * 640 * 480, peak / (8 * 640 * 480)

    def test_estimate_vga_peak(self, tmp_path):
        # the perfbench estimate_vga call, whose peak is set while both maps
        # are scored on the scoring pool. Measured at 11.29 maps (numpy 2.4,
        # Python 3.11); float64 initial maps and ground truth, with log g
        # and 1/g kept through scoring, took 15.15.
        cfg = triangulated_bundle(tmp_path, **VGA, workers=2)
        cmd_estimate(cfg, tmp_path)  # lazy set-up outside the measurement
        summary, peak = traced_peak(lambda: cmd_estimate(cfg, tmp_path))
        assert summary["init"].depth.dtype == np.float32
        assert peak <= 11.7 * 8 * 640 * 480, peak / (8 * 640 * 480)

    @staticmethod
    def alive_at_each_pass(monkeypatch, command, cfg, root, picked):
        """Run ``command``; for each band pass, which of the arrays ``picked(init, intensity)`` are alive.

        The arrays are picked from the arguments of the one build_weights call.
        """
        refs = []

        def recording_build_weights(init, intensity, rc):
            refs.extend(weakref.ref(array) for array in picked(init, intensity))
            return build_weights(init, intensity, rc)

        alive = []
        band_pass = refinement._BandPass.__call__

        def checking_band_pass(self, *args, **kwargs):
            alive.append([ref() is not None for ref in refs])
            return band_pass(self, *args, **kwargs)

        monkeypatch.setattr(pipeline, "build_weights", recording_build_weights)
        monkeypatch.setattr(refinement._BandPass, "__call__", checking_band_pass)
        command(cfg, root)
        assert len(alive) == cfg.iterations + 1
        return alive

    @pytest.mark.parametrize("command", [cmd_refine, cmd_estimate])
    def test_intensity_is_freed_before_the_first_pass(self, tmp_path, monkeypatch, command):
        cfg = triangulated_bundle(tmp_path, width=160, height=120, fx=200.0, fy=200.0)
        alive = self.alive_at_each_pass(monkeypatch, command, cfg, tmp_path, lambda init, intensity: [intensity])
        assert alive[0] == [False]

    def test_refine_frees_the_confidence_maps_before_the_first_pass(self, tmp_path, monkeypatch):
        # estimate writes them after refinement, so only triad refine can let them go
        cfg = triangulated_bundle(tmp_path, width=160, height=120, fx=200.0, fy=200.0)
        alive = self.alive_at_each_pass(
            monkeypatch, cmd_refine, cfg, tmp_path, lambda init, intensity: [init.conf_h, init.conf_r]
        )
        assert alive[0] == [False, False]


def loaded_and_widened(tmp_path, parity: int):
    """(initial maps as ``triad refine`` loads them, the same widened to float64, the bundle's texture).

    The suite map of seed 0, with one valid pixel made invalid where that
    gives the valid-pixel count the wanted parity, so both branches of the
    fill median are reached.
    """
    case = suite_case(0)
    init = case["init"]
    if int(init.valid.sum()) % 2 != parity:
        y, x = np.argwhere(init.valid)[0]
        maps = {name: getattr(init, name).copy() for name in pipeline.INITIAL_FILES}
        for channel in maps.values():
            channel[y, x] = np.nan
        init = InitialDepth(**maps)
    pipeline._write_initial(init, tmp_path)
    narrow = pipeline._load_initial(tmp_path)
    wide = {name: getattr(narrow, name).astype(np.float64) for name in pipeline.INITIAL_FILES}
    return narrow, InitialDepth(**wide), case["scene"].texture


class TestFloat32Initial:
    """Float32 initial maps, as triad refine loads them, give the bytes of the same maps widened to float64."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("parity", [1, 0], ids=["odd", "even"])
    def test_refine_bit_identical(self, tmp_path, parity, workers):
        narrow, wide, texture = loaded_and_widened(tmp_path, parity)
        assert narrow.depth.dtype == np.float32 and wide.depth.dtype == np.float64
        assert int(narrow.valid.sum()) % 2 == parity and not narrow.valid.all()
        cfg = RefineConfig(iterations=12)
        got, want = (refine(init.depth, build_weights(init, texture, cfg), cfg, workers=workers) for init in (narrow, wide))
        assert got.depth.tobytes() == want.depth.tobytes()
        assert got.uncertainty.tobytes() == want.uncertainty.tobytes()
        assert got.objective == want.objective

    @pytest.mark.parametrize("mode", WEIGHT_MODES)
    def test_weights_bit_identical(self, tmp_path, mode):
        narrow, wide, texture = loaded_and_widened(tmp_path, 1)
        cfg = RefineConfig(weight_mode=mode)
        got, want = build_weights(narrow, texture, cfg), build_weights(wide, texture, cfg)
        assert got.w.dtype == np.float64
        for name in ("w", "mu_gh", "mu_gv"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


class TestLaplacianNll:
    def test_zero_for_perfect_prediction_with_unit_scale(self):
        gt = np.array([[2.0]])
        assert laplacian_nll([gt.copy()], [np.ones((1, 1))], gt) == 0.0

    def test_two_pixel_two_iteration_hand_case(self):
        gt = np.array([[2.0, 4.0]])
        depths = [np.array([[2.5, 3.0]]), np.array([[2.25, 3.5]])]
        sigmas = [np.array([[0.5, 2.0]]), np.array([[0.25, 1.0]])]
        # k=0 term: 0.5/0.5 + ln 0.5 + 1/2 + ln 2 = 1.5 exactly (logs cancel)
        # k=1 term: 0.25/0.25 + ln 0.25 + 0.5/1 + ln 1 = 1.5 + ln 0.25
        want = 0.83 * 1.5 + (1.5 + math.log(0.25))
        got = laplacian_nll(depths, sigmas, gt, lam=0.83)
        assert got == pytest.approx(want, abs=1e-12)

    def test_damping_weights_applied_over_six_iterations(self):
        # K = 5: residuals r_k = k + 1 at unit scale give sum lam^(5-k) (k+1)
        gt = np.array([[0.0]])
        depths = [np.array([[k + 1.0]]) for k in range(6)]
        sigmas = [np.ones((1, 1))] * 6
        want = sum(0.83 ** (5 - k) * (k + 1) for k in range(6))
        assert laplacian_nll(depths, sigmas, gt) == pytest.approx(want, abs=1e-12)

    def test_default_damping_constant(self):
        import inspect

        assert inspect.signature(laplacian_nll).parameters["lam"].default == 0.83

    def test_invalid_pixels_excluded(self):
        gt = np.array([[2.0, np.nan]])
        depths = [np.array([[2.0, 50.0]])]
        sigmas = [np.ones((1, 2))]
        assert laplacian_nll(depths, sigmas, gt) == 0.0

    def test_nonpositive_sigma_rejected(self):
        gt = np.array([[2.0]])
        with pytest.raises(InputError):
            laplacian_nll([gt.copy()], [np.zeros((1, 1))], gt)

    def test_nan_sigma_rejected(self):
        gt = np.array([[2.0, 3.0]])
        with pytest.raises(InputError, match="sigma"):
            laplacian_nll([gt.copy()], [np.array([[1.0, np.nan]])], gt)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_depth_on_a_scored_pixel_rejected(self, bad):
        gt = np.array([[2.0, 3.0, np.nan]])
        # off the scored pixels any depth is ignored
        assert laplacian_nll([np.array([[2.0, 3.0, bad]])], [np.ones((1, 3))], gt) == 0.0
        with pytest.raises(InputError, match="depth"):
            laplacian_nll([np.array([[2.0, bad, 1.0]])], [np.ones((1, 3))], gt)

    def test_infinite_depth_off_the_scored_pixels_is_not_read(self):
        # an infinite depth where the ground truth is infinite too would give inf - inf
        gt = np.array([[2.0, np.inf]])
        assert laplacian_nll([np.array([[2.0, np.inf]])], [np.ones((1, 2))], gt) == 0.0

    def test_infinite_sigma_on_a_scored_pixel_rejected(self):
        gt = np.array([[2.0, 3.0]])
        assert laplacian_nll([gt.copy()], [np.array([[1.0, np.inf]])], np.array([[2.0, np.nan]])) == 0.0
        with pytest.raises(InputError, match="sigma"):
            laplacian_nll([gt.copy()], [np.array([[1.0, np.inf]])], gt)

    def test_mismatched_map_counts_rejected(self):
        gt = np.array([[2.0]])
        with pytest.raises(InputError):
            laplacian_nll([gt.copy()], [np.ones((1, 1))] * 2, gt)
