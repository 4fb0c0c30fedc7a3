import importlib
import math
import tracemalloc

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
from triad.refine import objective_value
from triad.triangulate import InitialDepth

from helpers import suite_case

refine_module = importlib.import_module("triad.refine")  # triad.refine is also the function's name
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
        valid=valid,
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
        assert np.all(weights.g_h == 1.0)
        assert np.all(weights.g_v == 1.0)

    def test_edge_weights_weaken_across_edges(self):
        init = random_initial(np.random.default_rng(1), height=2, width=2)
        intensity = np.array([[0.0, 1.0], [0.0, 0.0]])
        weights = build_weights(init, intensity, RefineConfig(kappa=0.5))
        assert weights.g_h[0, 0] == pytest.approx(math.exp(-2.0))
        assert weights.g_h[1, 0] == 1.0
        assert weights.g_v[0, 1] == pytest.approx(math.exp(-2.0))

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
            WeightMaps(w=np.ones((3, 3)), g_h=np.ones((3, 3)), g_v=np.ones((2, 3)))


class TestRefine:
    def test_mu_zero_is_exact_fixed_point(self):
        rng = np.random.default_rng(3)
        init = random_initial(rng)
        cfg = RefineConfig(mu=0.0, iterations=9)
        weights = build_weights(init, np.zeros(init.depth.shape), cfg)
        result = refine(init, weights, cfg)
        assert np.array_equal(result.depth[init.valid], init.depth[init.valid])

    def test_zero_weights_constant_initialization_is_fixed(self):
        shape = (5, 6)
        init = make_initial(np.full(shape, 1.0), np.zeros(shape, dtype=bool))
        cfg = RefineConfig(iterations=8)
        weights = build_weights(init, np.zeros(shape), cfg)
        assert np.all(weights.w == 0.0)
        result = refine(init, weights, cfg)
        assert result.objective[0] == 0.0
        assert max(result.objective) <= 1e-20
        assert np.ptp(result.depth) <= 1e-12

    def test_matches_dense_direct_solve(self):
        # 4x4 grid, uniform edge weights, long Jacobi run vs. the 16x16 solve
        rng = np.random.default_rng(4)
        h = w = 4
        depth = rng.uniform(1.0, 3.0, (h, w))
        weights = WeightMaps(
            w=rng.uniform(0.5, 2.0, (h, w)), g_h=np.ones((h, w - 1)), g_v=np.ones((h - 1, w))
        )
        init = make_initial(depth, np.ones((h, w), dtype=bool))
        mu, omega = 0.5, 0.9
        cfg = RefineConfig(mu=mu, omega=omega, iterations=500)
        result = refine(init, weights, cfg)

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
        result = refine(init, weights, cfg)
        for earlier, later in zip(result.objective, result.objective[1:]):
            assert later <= earlier + 1e-9

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_monotone_descent_over_200_iterations_on_suite_map(self, seed):
        case = suite_case(seed, refine_cfg=RefineConfig(iterations=0))
        result = refine(case["init"], case["weights"], RefineConfig(iterations=200))
        # near the optimum a step lowers C by less than C's rounding error
        # (about 1e-15 relative), so a later value may exceed an earlier one by that
        for earlier, later in zip(result.objective, result.objective[1:]):
            assert later <= earlier * (1.0 + REL)
        assert result.objective[-1] < 0.2 * result.objective[0]

    def test_objective_value_matches_manual(self):
        depth = np.array([[1.0, 2.0], [3.0, 4.0]])
        dbar = np.array([[1.5, 2.0], [2.0, 4.0]])
        weights = WeightMaps(
            w=np.array([[1.0, 2.0], [0.5, 0.0]]),
            g_h=np.array([[0.5], [1.0]]),
            g_v=np.array([[0.25, 0.75]]),
        )
        # data: 1*0.25 + 0 + 0.5*1 + 0; horizontal: 0.5*1 + 1*1; vertical: 0.25*4 + 0.75*4
        want = 0.75 + 2.0 * (1.5 + 4.0)
        assert objective_value(depth, dbar, weights, mu=2.0) == pytest.approx(want, rel=1e-12)

    def test_anchoring_of_high_confidence_pixels(self):
        rng = np.random.default_rng(5)
        h, w = 10, 12
        depth = rng.uniform(1.0, 3.0, (h, w))
        init = make_initial(depth, np.ones((h, w), dtype=bool))
        wmap = np.full((h, w), 0.01)
        anchored = rng.random((h, w)) < 0.3
        wmap[anchored] = 1e4  # >= 100 * mu * degree for mu = 1, degree <= 4
        weights = WeightMaps(w=wmap, g_h=np.ones((h, w - 1)), g_v=np.ones((h - 1, w)))
        cfg = RefineConfig(mu=1.0, iterations=7)
        result = refine(init, weights, cfg)
        drift = np.abs(result.depth - depth)[anchored]
        assert np.all(drift <= 0.05 * depth[anchored])

    def test_maximum_principle(self):
        rng = np.random.default_rng(6)
        init = random_initial(rng, height=9, width=9, valid_fraction=0.7)
        cfg = RefineConfig(mu=2.0, iterations=20)
        weights = build_weights(init, rng.uniform(0, 1, init.depth.shape), cfg)
        result = refine(init, weights, cfg, keep_iterates=True)
        assert len(result.iterates) == 21
        lo = init.depth[init.valid].min()
        hi = init.depth[init.valid].max()
        for iterate in result.iterates:
            assert iterate.min() >= lo - 1e-12
            assert iterate.max() <= hi + 1e-12

    def test_median_fill_for_invalid_pixels(self):
        init = make_initial([[1.0, 2.0, 9.0]], [[True, True, False]])
        cfg = RefineConfig(iterations=0)
        weights = build_weights(init, np.zeros((1, 3)), cfg)
        result = refine(init, weights, cfg)
        assert result.iterates[0][0, 2] == 1.5  # median of the valid depths

    def test_all_invalid_fill_is_one_meter(self):
        init = make_initial(np.full((2, 2), 5.0), np.zeros((2, 2), dtype=bool))
        cfg = RefineConfig(iterations=0)
        weights = build_weights(init, np.zeros((2, 2)), cfg)
        result = refine(init, weights, cfg)
        assert np.all(result.iterates[0] == 1.0)

    def test_unconstrained_pixel_holds_init_and_gets_sigma_cap(self):
        init = make_initial([[2.0, 3.0]], [[True, False]])
        cfg = RefineConfig(mu=0.0, iterations=5, sigma_cap=7.5)
        weights = build_weights(init, np.zeros((1, 2)), cfg)
        result = refine(init, weights, cfg)
        assert result.depth[0, 1] == 2.0  # median fill, held
        assert result.uncertainty[0, 1] == 7.5

    def test_sigma_floor(self):
        init = make_initial([[2.0]], [[True]], conf_h=[[100.0]], conf_r=[[0.0]])
        cfg = RefineConfig(sigma_min=0.05, w_max=1e12)
        weights = build_weights(init, np.zeros((1, 1)), cfg)
        result = refine(init, weights, cfg)
        assert result.uncertainty[0, 0] == 0.05

    def test_uncertainty_monotone_in_data_weight(self):
        h, w = 1, 64
        wmap = np.linspace(0.0, 50.0, w).reshape(h, w)
        init = make_initial(np.full((h, w), 2.0), np.ones((h, w), dtype=bool))
        weights = WeightMaps(w=wmap, g_h=np.ones((h, w - 1)), g_v=np.ones((0, w)))
        result = refine(init, weights, RefineConfig(iterations=0))
        sigma = result.uncertainty[0, 1:-1]  # interior: same smoothness degree everywhere
        assert np.all(np.diff(sigma) <= 1e-15)

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


def reference_jacobi(init, weights, cfg):
    """The plain damped-Jacobi update with fresh arrays for every term."""
    valid = init.valid
    dbar = np.where(valid, init.depth, 0.0)
    fill = float(np.median(init.depth[valid])) if np.any(valid) else 1.0
    d = np.where(valid, init.depth, fill)
    mu = cfg.mu
    degree = np.zeros_like(d)
    degree[:, :-1] += weights.g_h
    degree[:, 1:] += weights.g_h
    degree[:-1, :] += weights.g_v
    degree[1:, :] += weights.g_v
    denom = weights.w + mu * degree
    constrained = denom > 0.0
    safe_denom = np.where(constrained, denom, 1.0)

    def objective(d):
        data = np.sum(weights.w * np.square(d - dbar))
        smooth_h = np.sum(weights.g_h * np.square(np.diff(d, axis=1)))
        smooth_v = np.sum(weights.g_v * np.square(np.diff(d, axis=0)))
        return float(data + mu * (smooth_h + smooth_v))

    iterates, values = [d.copy()], [objective(d)]
    for _ in range(cfg.iterations):
        s = np.zeros_like(d)
        s[:, :-1] += weights.g_h * d[:, 1:]
        s[:, 1:] += weights.g_h * d[:, :-1]
        s[:-1, :] += weights.g_v * d[1:, :]
        s[1:, :] += weights.g_v * d[:-1, :]
        target_delta = (weights.w * dbar + mu * s - denom * d) / safe_denom
        d = np.where(constrained, d + cfg.omega * target_delta, d)
        iterates.append(d.copy())
        values.append(objective(d))
    sigma = np.where(constrained, np.maximum(cfg.sigma_min, cfg.beta / np.sqrt(safe_denom)), cfg.sigma_cap)
    return iterates, values, sigma


def assert_objective_close(got, want):
    assert len(got) == len(want)
    for g, v in zip(got, want):
        assert abs(g - v) <= REL * abs(v) + OBJECTIVE_FLOOR, (g, v)


def assert_matches_reference(result, iterates, values, sigma):
    """Iterates and objective within the stated bound; sigma bit for bit."""
    assert len(result.iterates) == len(iterates)
    for got, want in zip(result.iterates, iterates):
        np.testing.assert_allclose(got, want, rtol=REL, atol=0.0)
    assert_objective_close(result.objective, values)
    assert np.array_equal(result.uncertainty, sigma)


class TestBufferedJacobi:
    @pytest.mark.parametrize(
        "seed, valid_fraction, mu, omega",
        [(0, 1.0, 1.0, 0.9), (1, 0.6, 2.5, 0.7), (2, 0.3, 0.4, 1.0), (3, 0.5, 0.0, 0.9), (4, 0.0, 1.0, 0.9)],
    )
    def test_matches_reference_bit_for_bit(self, seed, valid_fraction, mu, omega):
        rng = np.random.default_rng(seed)
        init = random_initial(rng, height=11, width=13, valid_fraction=valid_fraction)
        cfg = RefineConfig(mu=mu, omega=omega, iterations=9)
        weights = build_weights(init, rng.uniform(0, 1, init.depth.shape), cfg)
        result = refine(init, weights, cfg, keep_iterates=True)
        iterates, values, sigma = reference_jacobi(init, weights, cfg)
        assert len(iterates) == 10
        # the name predates the flux form: sigma is bit for bit, the rest within REL
        assert_matches_reference(result, iterates, values, sigma)
        if mu == 0.0:  # invalid pixels have no constraint: held at the fill, sigma_cap
            assert np.all(result.uncertainty[~init.valid] == cfg.sigma_cap)
            assert np.all(result.depth[~init.valid] == iterates[0][~init.valid])

    def test_matches_reference_on_suite_map(self):
        case = suite_case(0, width=160, height=120, fx=200.0, fy=200.0)
        cfg = RefineConfig(iterations=12)
        result = refine(case["init"], case["weights"], cfg, keep_iterates=True)
        iterates, values, sigma = reference_jacobi(case["init"], case["weights"], cfg)
        assert_matches_reference(result, iterates, values, sigma)

    def test_objective_value_matches_reference(self):
        rng = np.random.default_rng(5)
        init = random_initial(rng, height=9, width=10, valid_fraction=0.7)
        cfg = RefineConfig(mu=1.7, iterations=3)
        weights = build_weights(init, rng.uniform(0, 1, init.depth.shape), cfg)
        iterates, values, _ = reference_jacobi(init, weights, cfg)
        dbar = np.where(init.valid, init.depth, 0.0)
        assert_objective_close([objective_value(d, dbar, weights, cfg.mu) for d in iterates], values)

    def test_final_map_only_by_default(self):
        rng = np.random.default_rng(6)
        init = random_initial(rng, valid_fraction=0.8)
        cfg = RefineConfig(iterations=6)
        weights = build_weights(init, rng.uniform(0, 1, init.depth.shape), cfg)
        kept = refine(init, weights, cfg, keep_iterates=True)
        final = refine(init, weights, cfg)
        assert len(final.iterates) == 1
        assert np.array_equal(final.depth, kept.depth)
        assert final.objective == kept.objective
        assert np.array_equal(final.uncertainty, kept.uncertainty)


    @pytest.mark.parametrize("shape", [(1, 9), (9, 1), (1, 1)])
    @pytest.mark.parametrize("mu", [0.0, 1.3])
    @pytest.mark.parametrize("valid_fraction", [0.6, 0.0])
    def test_thin_maps_match_reference(self, shape, mu, valid_fraction):
        rng = np.random.default_rng(7)
        init = random_initial(rng, *shape, valid_fraction=valid_fraction)
        cfg = RefineConfig(mu=mu, iterations=5)
        weights = build_weights(init, rng.uniform(0, 1, shape), cfg)
        result = refine(init, weights, cfg, keep_iterates=True)
        iterates, values, sigma = reference_jacobi(init, weights, cfg)
        assert_matches_reference(result, iterates, values, sigma)
        # pixels with no diagonal (all invalid ones when mu = 0) hold d(0) exactly
        held = ~(weights.w + weights.degree(cfg.mu) > 0.0)
        assert all(np.array_equal(iterate[held], iterates[0][held]) for iterate in result.iterates)

    def test_underflowed_smoothness_holds_pixel(self):
        # mu * g rounds to 0, so the invalid middle pixel has no diagonal, but
        # mu * (g d) does not, and without being held it would move off d(0)
        init = make_initial([[1e-300, 1e-300, 1.0, 1e9, 1e-300]], [[True, True, False, True, True]])
        weights = WeightMaps(w=np.array([[1.0, 1.0, 0.0, 1.0, 1.0]]), g_h=np.full((1, 4), 0.2), g_v=np.empty((0, 5)))
        cfg = RefineConfig(mu=5e-324, iterations=3)
        assert not np.any(weights.degree(cfg.mu))
        result = refine(init, weights, cfg, keep_iterates=True)
        iterates, values, sigma = reference_jacobi(init, weights, cfg)
        assert_matches_reference(result, iterates, values, sigma)
        assert all(iterate[0, 2] == iterates[0][0, 2] for iterate in result.iterates)

    def test_objective_value_spans_bands(self):
        rng = np.random.default_rng(8)
        init = random_initial(rng, height=300, width=400, valid_fraction=0.7)
        cfg = RefineConfig(mu=0.8, iterations=2)
        weights = build_weights(init, rng.uniform(0, 1, init.depth.shape), cfg)
        iterates, values, _ = reference_jacobi(init, weights, cfg)
        dbar = np.where(init.valid, init.depth, 0.0)
        assert_objective_close([objective_value(d, dbar, weights, cfg.mu) for d in iterates], values)


class TestBufferedJacobiSmallBands(TestBufferedJacobi):
    """Every TestBufferedJacobi case again, with refine's row bands of one and of three rows."""

    @pytest.fixture(autouse=True, params=[1, 3])
    def small_bands(self, request, monkeypatch):
        monkeypatch.setattr(refine_module, "_band_rows", lambda width: request.param)


class TestRefineMemory:
    def test_vga_peak_is_bounded_and_independent_of_iterations(self):
        rng = np.random.default_rng(9)
        init = random_initial(rng, height=480, width=640, valid_fraction=0.8)
        weights = build_weights(init, rng.uniform(0, 1, init.depth.shape), RefineConfig())
        refine(init, weights, RefineConfig(iterations=1))  # lazy set-up outside the measurement
        peaks = {}
        for iterations in (7, 40):
            tracemalloc.start()
            try:
                refine(init, weights, RefineConfig(iterations=iterations))
                peaks[iterations] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        map_bytes = init.depth.nbytes
        assert peaks[7] <= 8.0 * map_bytes  # 7.33 maps measured
        # only the objective list grows with the iteration count
        assert abs(peaks[40] - peaks[7]) < 4096


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

    def test_mismatched_map_counts_rejected(self):
        gt = np.array([[2.0]])
        with pytest.raises(InputError):
            laplacian_nll([gt.copy()], [np.ones((1, 1))] * 2, gt)
