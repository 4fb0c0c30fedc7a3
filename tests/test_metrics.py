import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata, spearmanr

from triad import (
    EmptyEvaluation,
    InputError,
    error_uncertainty_correlation,
    evaluate,
    uncertainty_sweep,
)
from triad.metrics import DELTA_THRESHOLDS, SWEEP_THRESHOLDS, Scorer, _average_ranks, sweep_csv_lines

seeds = st.integers(min_value=0, max_value=2**32 - 1)


class TestEvaluate:
    def test_perfect_prediction(self):
        gt = np.array([[1.0, 2.0], [3.0, 4.0]])
        report = evaluate(gt.copy(), gt)
        assert report.abs_rel == 0.0
        assert report.sq_rel == 0.0
        assert report.log_rmse == 0.0
        assert report.irmse == 0.0
        assert report.rmse == 0.0
        assert all(p == 100.0 for p in report.delta_acc.values())
        assert report.n_evaluated == 4

    def test_delta_grid_matches_protocol(self):
        assert DELTA_THRESHOLDS == (1.05, 1.10, 1.25, 1.25**2, 1.25**3)

    def test_three_pixel_hand_case(self):
        gt = np.array([1.0, 2.0, 4.0])
        pred = np.array([1.1, 2.0, 3.0])
        report = evaluate(pred, gt)
        assert report.abs_rel == pytest.approx((0.1 / 1 + 0.0 + 1.0 / 4) / 3, abs=1e-12)
        assert report.sq_rel == pytest.approx((0.1**2 / 1 + 0.0 + 1.0 / 4) / 3, abs=1e-12)
        assert report.rmse == pytest.approx(math.sqrt((0.1**2 + 0.0 + 1.0) / 3), abs=1e-12)
        assert report.log_rmse == pytest.approx(
            math.sqrt((math.log(1.1) ** 2 + 0.0 + (math.log(3) - math.log(4)) ** 2) / 3),
            abs=1e-12,
        )
        assert report.irmse == pytest.approx(
            math.sqrt(((1 / 1.1 - 1.0) ** 2 + 0.0 + (1 / 3 - 1 / 4) ** 2) / 3), abs=1e-12
        )
        # ratios: 1.1, 1.0, 4/3; the 1.1 ratio is NOT strictly below delta = 1.10
        assert report.delta_acc[1.05] == pytest.approx(100 / 3, abs=1e-9)
        assert report.delta_acc[1.10] == pytest.approx(100 / 3, abs=1e-9)
        assert report.delta_acc[1.25] == pytest.approx(200 / 3, abs=1e-9)
        assert report.delta_acc[1.25**2] == 100.0
        assert report.delta_acc[1.25**3] == 100.0

    @given(seeds)
    @settings(max_examples=25)
    def test_delta_accuracy_monotone(self, seed):
        rng = np.random.default_rng(seed)
        gt = rng.uniform(0.5, 5.0, 300)
        pred = gt * rng.uniform(0.5, 2.0, 300)
        acc = list(evaluate(pred, gt).delta_acc.values())
        assert all(b >= a for a, b in zip(acc, acc[1:]))

    @given(seeds)
    @settings(max_examples=15)
    def test_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        gt = rng.uniform(0.5, 5.0, 400)
        pred = gt * rng.uniform(0.8, 1.2, 400)
        mask = rng.random(400) < 0.7
        perm = rng.permutation(400)
        a = evaluate(pred, gt, mask)
        b = evaluate(pred[perm], gt[perm], mask[perm])
        assert a.n_evaluated == b.n_evaluated
        assert a.rmse == pytest.approx(b.rmse, rel=1e-9)
        assert a.abs_rel == pytest.approx(b.abs_rel, rel=1e-9)
        assert a.irmse == pytest.approx(b.irmse, rel=1e-9)
        for t in DELTA_THRESHOLDS:
            assert a.delta_acc[t] == b.delta_acc[t]

    @given(seeds)
    @settings(max_examples=15)
    def test_scale_equivariance(self, seed):
        rng = np.random.default_rng(seed)
        gt = rng.uniform(0.5, 5.0, 200)
        pred = gt * rng.uniform(0.8, 1.2, 200)
        base = evaluate(pred, gt)
        for s in (0.25, 3.0):
            scaled = evaluate(s * pred, s * gt)
            assert scaled.rmse == pytest.approx(s * base.rmse, rel=1e-9)
            assert scaled.irmse == pytest.approx(base.irmse / s, rel=1e-9)
            assert scaled.abs_rel == pytest.approx(base.abs_rel, rel=1e-9)
            assert scaled.log_rmse == pytest.approx(base.log_rmse, rel=1e-9, abs=1e-12)
            for t in DELTA_THRESHOLDS:
                assert scaled.delta_acc[t] == pytest.approx(base.delta_acc[t], abs=1e-9)

    def test_invalid_pixels_excluded_by_mask_intersection(self):
        gt = np.array([1.0, np.nan, 3.0])
        pred = np.array([1.0, 2.0, np.nan])
        report = evaluate(pred, gt)
        assert report.n_evaluated == 1

    def test_empty_mask_raises(self):
        with pytest.raises(EmptyEvaluation):
            evaluate(np.array([1.0]), np.array([1.0]), np.array([False]))

    def test_nonpositive_values_rejected(self):
        with pytest.raises(InputError):
            evaluate(np.array([0.0]), np.array([1.0]))
        with pytest.raises(InputError):
            evaluate(np.array([1.0]), np.array([-2.0]))


class TestUncertaintySweep:
    def test_default_thresholds(self):
        assert SWEEP_THRESHOLDS == (0.5, 0.16, 0.10, 0.08)

    def test_infinite_threshold_matches_full_evaluation(self):
        rng = np.random.default_rng(0)
        gt = rng.uniform(1, 3, 500)
        pred = gt + rng.normal(0, 0.1, 500)
        sigma = rng.uniform(0.01, 0.2, 500)
        rows = uncertainty_sweep(pred, sigma, gt, thresholds=(np.inf,))
        assert rows[0].coverage_percent == 100.0
        assert rows[0].report.rmse == evaluate(pred, gt).rmse

    def test_coverage_monotone_for_descending_thresholds(self):
        rng = np.random.default_rng(1)
        gt = rng.uniform(1, 3, 500)
        pred = gt + rng.normal(0, 0.1, 500)
        sigma = rng.uniform(0.0, 1.0, 500)
        rows = uncertainty_sweep(pred, sigma, gt, thresholds=(0.8, 0.5, 0.3, 0.1, 0.01))
        coverages = [r.coverage_percent for r in rows]
        assert all(b <= a for a, b in zip(coverages, coverages[1:]))

    def test_empty_retained_set_gives_null_row(self):
        gt = np.array([1.0, 2.0])
        rows = uncertainty_sweep(gt, np.array([0.5, 0.6]), gt, thresholds=(0.1,))
        assert rows[0].coverage_percent == 0.0
        assert rows[0].report is None

    def test_oracle_sigma_strictly_improves_rmse(self):
        # sigma proportional to |error|: each tighter threshold must cut RMSE
        rng = np.random.default_rng(2)
        gt = rng.uniform(1, 3, 2000)
        err = rng.normal(0, 0.2, 2000)
        pred = np.clip(gt + err, 0.1, None)
        sigma = np.abs(pred - gt)
        thresholds = (0.5, 0.3, 0.2, 0.1)
        rows = uncertainty_sweep(pred, sigma, gt, thresholds=thresholds)
        rmses = [r.report.rmse for r in rows]
        assert all(b < a for a, b in zip(rmses, rmses[1:]))
        # brute-force filter oracle for one row
        keep = sigma < 0.3
        assert rows[1].report.rmse == pytest.approx(
            math.sqrt(np.mean((pred[keep] - gt[keep]) ** 2)), rel=1e-12
        )

    def test_nonpositive_threshold_rejected(self):
        gt = np.array([1.0])
        with pytest.raises(InputError):
            uncertainty_sweep(gt, gt, gt, thresholds=(0.0,))

    @pytest.mark.parametrize("bad", [-1.0, np.nan])
    def test_every_caller_rejects_negative_and_nan_thresholds(self, bad):
        gt = np.array([1.0, 2.0])
        with pytest.raises(InputError, match="^thresholds must be positive$"):
            uncertainty_sweep(gt, gt, gt, thresholds=(0.5, bad))
        with pytest.raises(InputError, match="^thresholds must be positive$"):
            Scorer(gt).prediction(gt).score(gt, [0.5, bad])

    def test_csv_lines_shape(self):
        rng = np.random.default_rng(3)
        gt = rng.uniform(1, 3, 100)
        pred = gt + rng.normal(0, 0.05, 100)
        sigma = rng.uniform(0, 1, 100)
        rows = uncertainty_sweep(pred, sigma, gt, thresholds=(0.9, 1e-9))
        lines = sweep_csv_lines(rows)
        assert len(lines) == 3
        header_fields = lines[0].split(",")
        assert all(len(line.split(",")) == len(header_fields) for line in lines[1:])


class TestAverageRanks:
    def test_equals_rankdata_on_heavy_ties(self):
        rng = np.random.default_rng(9)
        x = rng.integers(0, 7, 50_000) * 0.25
        assert np.array_equal(_average_ranks(x), rankdata(x, method="average"))

    def test_equals_rankdata_untied(self):
        x = np.random.default_rng(10).standard_normal(300_000)
        assert np.unique(x).size == x.size
        assert np.array_equal(_average_ranks(x), rankdata(x, method="average"))


class TestSpearman:
    def test_perfect_positive(self):
        rng = np.random.default_rng(4)
        gt = rng.uniform(1, 3, 50)
        pred = gt + rng.normal(0, 0.2, 50)
        sigma = np.abs(pred - gt)
        result = error_uncertainty_correlation(pred, sigma, gt)
        assert result.defined
        assert result.rho == pytest.approx(1.0, abs=1e-12)

    def test_perfect_negative(self):
        rng = np.random.default_rng(5)
        gt = rng.uniform(1, 3, 50)
        pred = gt + rng.normal(0, 0.2, 50)
        sigma = 10.0 - np.abs(pred - gt)
        result = error_uncertainty_correlation(pred, sigma, gt)
        assert result.rho == pytest.approx(-1.0, abs=1e-12)

    def test_independent_sigma_near_zero(self):
        rng = np.random.default_rng(6)
        n = 20000
        gt = rng.uniform(1, 3, n)
        pred = gt + rng.normal(0, 0.2, n)
        sigma = rng.uniform(0, 1, n)
        result = error_uncertainty_correlation(pred, sigma, gt)
        assert abs(result.rho) < 0.05

    def test_matches_scipy_with_ties(self):
        rng = np.random.default_rng(7)
        gt = np.full(200, 2.0)
        pred = gt + rng.integers(-3, 4, 200) * 0.1  # heavy ties
        sigma = rng.integers(0, 5, 200) * 0.25
        result = error_uncertainty_correlation(pred, sigma, gt)
        want = spearmanr(np.abs(pred - gt), sigma).statistic
        assert result.rho == pytest.approx(want, abs=1e-12)

    def test_constant_sigma_flagged_undefined(self):
        rng = np.random.default_rng(8)
        gt = rng.uniform(1, 3, 50)
        result = error_uncertainty_correlation(gt + 0.1, np.full(50, 0.3), gt)
        assert not result.defined
        assert result.rho == 0.0

    def test_too_few_pixels_rejected(self):
        gt = np.ones(5)
        with pytest.raises(InputError):
            error_uncertainty_correlation(gt, gt, gt)


class TestSigmaShape:
    """A sigma map of another size is a data error, named by both shapes."""

    MESSAGE = r"^sigma shape \(10, 10\) != depth shape \(24, 32\)$"

    @staticmethod
    def _maps():
        rng = np.random.default_rng(9)
        gt = rng.uniform(1, 3, (24, 32))
        return gt + rng.normal(0, 0.1, gt.shape), np.full((10, 10), 0.1), gt

    def test_uncertainty_sweep(self):
        pred, sigma, gt = self._maps()
        with pytest.raises(InputError, match=self.MESSAGE):
            uncertainty_sweep(pred, sigma, gt)

    def test_error_uncertainty_correlation(self):
        pred, sigma, gt = self._maps()
        with pytest.raises(InputError, match=self.MESSAGE):
            error_uncertainty_correlation(pred, sigma, gt)

    def test_scorer(self):
        pred, sigma, gt = self._maps()
        with pytest.raises(InputError, match=self.MESSAGE):
            Scorer(gt).prediction(pred).score(sigma, SWEEP_THRESHOLDS)
