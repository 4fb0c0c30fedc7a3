"""The one-pass scorer against the plain per-call metrics it replaced.

The reference functions below are the earlier bodies of ``evaluate``,
``uncertainty_sweep``, ``error_uncertainty_correlation`` and the estimate
command's scoring sequence: one gather, one set of terms and one tie-aware
rank pass per call. The scorer must match them exactly, errors included.
"""

import dataclasses
import math
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.stats import rankdata

from triad import (
    CorrelationResult,
    EmptyEvaluation,
    InputError,
    MetricReport,
    Scorer,
    SweepRow,
    build_weights,
    error_uncertainty_correlation,
    evaluate,
    refine,
    uncertainty_sweep,
)
from triad.fileio import read_image, read_pfm
import triad.metrics as metrics
from triad.metrics import BLOCK, DELTA_THRESHOLDS, SPEARMAN_MIN_PIXELS, SWEEP_THRESHOLDS, _average_ranks
import triad.pipeline as pipeline
from triad.pipeline import (
    ROOM_SUITE,
    _score_maps,
    _triangulate_stage,
    cmd_ablate,
    cmd_estimate,
    cmd_synth,
    load_run_config,
)

from helpers import average_ranks_reference, refine_iterates, suite_case, traced_peak


def ref_evaluation_mask(pred, gt, mask):
    base = np.ones(pred.shape, dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    if base.shape != pred.shape or gt.shape != pred.shape:
        raise InputError("pred, gt, and mask must share one shape")
    return base & np.isfinite(pred) & np.isfinite(gt)


def ref_evaluate(pred, gt, mask=None):
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    m = ref_evaluation_mask(pred, gt, mask)
    if not np.any(m):
        raise EmptyEvaluation("no pixels to evaluate")
    p = pred[m]
    g = gt[m]
    if np.any(p <= 0) or np.any(g <= 0):
        raise InputError("depth must be positive on evaluated pixels")
    diff = p - g
    ratio = np.maximum(p / g, g / p)
    delta_acc = {t: 100.0 * float(np.mean(ratio < t)) for t in DELTA_THRESHOLDS}
    return MetricReport(
        abs_rel=float(np.mean(np.abs(diff) / g)),
        sq_rel=float(np.mean(diff * diff / g)),
        log_rmse=float(np.sqrt(np.mean(np.square(np.log(p) - np.log(g))))),
        irmse=float(np.sqrt(np.mean(np.square(1.0 / p - 1.0 / g)))),
        rmse=float(np.sqrt(np.mean(diff * diff))),
        delta_acc=delta_acc,
        n_evaluated=int(p.size),
    )


def ref_uncertainty_sweep(pred, sigma, gt, thresholds=SWEEP_THRESHOLDS, mask=None):
    pred = np.asarray(pred, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if not all(t > 0 for t in thresholds):  # NaN fails "> 0"
        raise InputError("thresholds must be positive")
    base = ref_evaluation_mask(pred, gt, mask)
    n_base = int(np.count_nonzero(base))
    rows = []
    for t in thresholds:
        retained = base & (sigma < t)
        n_kept = int(np.count_nonzero(retained))
        coverage = 100.0 * n_kept / n_base if n_base else 0.0
        report = ref_evaluate(pred, gt, retained) if n_kept else None
        rows.append(SweepRow(sigma_threshold=float(t), coverage_percent=coverage, report=report))
    return rows


def ref_average_ranks(x):
    order = np.argsort(x)
    sorted_x = x[order]
    change = np.nonzero(sorted_x[1:] != sorted_x[:-1])[0] + 1
    boundaries = np.concatenate(([0], change, [len(x)]))
    averages = 0.5 * (boundaries[:-1] + boundaries[1:] - 1) + 1.0
    ranks = np.empty(len(x))
    ranks[order] = np.repeat(averages, np.diff(boundaries))
    return ranks


def ref_correlation(pred, sigma, gt, mask=None):
    pred = np.asarray(pred, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    m = ref_evaluation_mask(pred, gt, mask) & np.isfinite(sigma)
    n = int(np.count_nonzero(m))
    if n < SPEARMAN_MIN_PIXELS:
        raise InputError(f"need at least {SPEARMAN_MIN_PIXELS} masked pixels, got {n}")
    err_ranks = ref_average_ranks(np.abs(pred[m] - gt[m]))
    sig_ranks = ref_average_ranks(sigma[m])
    e = err_ranks - err_ranks.mean()
    s = sig_ranks - sig_ranks.mean()
    denom = math.sqrt(float(e @ e) * float(s @ s))
    if denom == 0.0:
        return CorrelationResult(rho=0.0, defined=False)
    return CorrelationResult(rho=float(e @ s) / denom, defined=True)


def ref_score(pred, sigma, gt, mask, thresholds):
    """The estimate command's scoring of its refined map; mask already excludes non-finite gt."""
    report = ref_evaluate(pred, gt, mask)
    if np.count_nonzero(mask & np.isfinite(sigma)) < SPEARMAN_MIN_PIXELS:
        corr = CorrelationResult(rho=0.0, defined=False)
    else:
        corr = ref_correlation(pred, sigma, gt, mask)
    return report, corr, ref_uncertainty_sweep(pred, sigma, gt, thresholds, mask)


def ref_estimate_scoring(initial, pred, sigma, gt, mask, thresholds):
    """The estimate command's scoring of both maps, the initial map first."""
    return ref_evaluate(initial, gt, mask), ref_score(pred, sigma, gt, mask, thresholds)


def pool_outcomes(gt, mask, initial, pred, sigma, thresholds):
    """The outcome of the estimate command's scoring without and with a scoring pool."""
    serial = outcome(_score_maps, Scorer(gt, mask), initial, pred, sigma, thresholds, None)
    with ThreadPoolExecutor(max_workers=1) as pool:
        pooled = outcome(_score_maps, Scorer(gt, mask), initial, pred, sigma, thresholds, pool)
    return serial, pooled


def outcome(fn, *args):
    """The value fn returns, or the type and message of what it raises."""
    try:
        return fn(*args)
    except Exception as e:  # every exception must match, numpy's included
        return type(e), str(e)


def quantile_thresholds(sigma):
    finite = sigma[np.isfinite(sigma)]
    return [float(t) for t in np.quantile(finite, [0.9, 0.5, 0.1])] + [1e-9]


class TestSuiteCasesExact:
    @pytest.fixture(scope="class", params=[0, 1, 2])
    @staticmethod
    def case(request):
        return suite_case(request.param)

    @pytest.mark.parametrize("rounding", [np.float64, np.float32])
    def test_estimate_scoring_equals_reference(self, case, rounding):
        # float32 rounding gives |pred - gt| heavy ties, so both rank paths run
        gt, mask = case["gt"], case["mask"]
        initial = case["init"].depth.astype(rounding).astype(np.float64)
        refined = case["result"].depth.astype(rounding).astype(np.float64)
        sigma = case["result"].uncertainty.astype(rounding).astype(np.float64)
        thresholds = quantile_thresholds(sigma) + list(SWEEP_THRESHOLDS)
        scorer = Scorer(gt, mask)
        assert scorer.report(initial) == ref_evaluate(initial, gt, mask)
        assert scorer.prediction(refined).score(sigma, thresholds) == ref_score(refined, sigma, gt, mask, thresholds)
        # the shared ground truth is left as it was
        assert scorer.report(initial) == ref_evaluate(initial, gt, mask)

    @pytest.mark.parametrize("rounding", [np.float64, np.float32])
    @pytest.mark.parametrize("finite_sigma", ["all", "most", "too_few"])
    def test_pool_scoring_equals_serial(self, case, rounding, finite_sigma):
        gt, mask = case["gt"], case["mask"]
        initial = case["init"].depth.astype(rounding).astype(np.float64)
        refined = case["result"].depth.astype(rounding).astype(np.float64)
        sigma = case["result"].uncertainty.astype(rounding).astype(np.float64)
        if finite_sigma == "most":
            sigma.reshape(-1)[::2] = np.nan
            sigma.reshape(-1)[1::7] = np.inf
        elif finite_sigma == "too_few":
            kept = np.flatnonzero(mask)[: SPEARMAN_MIN_PIXELS - 1]
            sparse = np.full_like(sigma, np.inf)
            sparse.reshape(-1)[kept] = sigma.reshape(-1)[kept]
            sigma = sparse
        # quantile_thresholds ends with one that keeps no pixel
        thresholds = quantile_thresholds(sigma) + list(SWEEP_THRESHOLDS)
        want = ref_estimate_scoring(initial, refined, sigma, gt, mask, thresholds)
        serial, pooled = pool_outcomes(gt, mask, initial, refined, sigma, thresholds)
        assert serial == pooled == want
        assert pooled[1][1].defined == (finite_sigma != "too_few")

    def test_float32_maps_score_as_their_float64_widening(self, case):
        # the estimate command scores a float32 ground truth and initial map:
        # g stays float32, and every metric keeps the bits of the widened maps
        gt, mask = case["gt"].astype(np.float32), case["mask"]
        initial = case["init"].depth
        refined, sigma = case["result"].depth.astype(np.float32), case["result"].uncertainty.astype(np.float32)
        assert initial.dtype == np.float32
        scorer = Scorer(gt, mask)
        assert scorer.g.dtype == np.float32
        thresholds = quantile_thresholds(sigma) + list(SWEEP_THRESHOLDS)
        wide = [m.astype(np.float64) for m in (initial, refined, sigma, gt)]
        want = ref_estimate_scoring(*wide[:3], wide[3], mask, thresholds)
        assert _score_maps(scorer, initial, refined, sigma, thresholds, None) == want

    def test_public_functions_equal_reference(self, case):
        gt, mask = case["gt"], case["mask"]
        refined, sigma = case["result"].depth, case["result"].uncertainty
        thresholds = quantile_thresholds(sigma)
        assert evaluate(refined, gt, mask) == ref_evaluate(refined, gt, mask)
        assert evaluate(refined, gt) == ref_evaluate(refined, gt)
        assert uncertainty_sweep(refined, sigma, gt, thresholds, mask) == ref_uncertainty_sweep(
            refined, sigma, gt, thresholds, mask
        )
        assert error_uncertainty_correlation(refined, sigma, gt, mask) == ref_correlation(refined, sigma, gt, mask)


DTYPES = (np.float16, np.float32, np.float64, np.int32, np.int64)


def depth_in(dtype, seed: int) -> np.ndarray:
    """A 48x64 depth map of 2-40 m in ``dtype``; a float map also holds NaN and inf, an integer one ties."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(2.0, 40.0, (48, 64))
    if np.issubdtype(dtype, np.floating):
        x[rng.random(x.shape) < 0.05] = np.nan
        x[rng.random(x.shape) < 0.02] = np.inf
    return x.astype(dtype)


def sweep_entries(rows):
    return [(r.sigma_threshold, r.coverage_percent, r.report and r.report.entries()) for r in rows]


class TestDtypeRule:
    """Every map is gathered in its own dtype and scores as its float64 widening, bit for bit."""

    @pytest.mark.parametrize("pred_dtype", DTYPES, ids=lambda t: f"pred_{t.__name__}")
    @pytest.mark.parametrize("gt_dtype", DTYPES, ids=lambda t: f"gt_{t.__name__}")
    def test_every_dtype_scores_as_its_float64_widening(self, gt_dtype, pred_dtype):
        gt, pred = depth_in(gt_dtype, 0), depth_in(pred_dtype, 1)
        rng = np.random.default_rng(2)
        sigma = rng.uniform(0.05, 0.6, gt.shape)
        sigma[rng.random(gt.shape) < 0.05] = np.nan
        mask = rng.random(gt.shape) < 0.9
        thresholds = [0.5, 0.3, 0.16, 1e-9]

        def outputs(gt, pred):
            scorer = Scorer(gt, mask)
            prediction = scorer.prediction(pred)
            assert (scorer.g.dtype, prediction.p.dtype) == (gt.dtype, pred.dtype)
            report, rho, rows = prediction.score(sigma, thresholds)
            return [
                scorer.report(pred).entries(),
                report.entries(),
                rho,
                sweep_entries(rows),
                evaluate(pred, gt, mask).entries(),
                sweep_entries(uncertainty_sweep(pred, sigma, gt, thresholds, mask)),
                error_uncertainty_correlation(pred, sigma, gt, mask),
            ]

        assert outputs(gt, pred) == outputs(gt.astype(np.float64), pred.astype(np.float64))

    @pytest.mark.parametrize("tiny_in", ["pred", "gt"])
    def test_value_float64_cannot_hold_is_checked_as_float64(self, tiny_in):
        # 1e-400 is positive in longdouble and 0 in float64, so it is rejected as 0 would be
        tiny = np.array([np.longdouble("1e-400"), np.longdouble("2.5")])
        plain = np.array([2.0, 3.0], dtype=np.longdouble)
        pred, gt = (tiny, plain) if tiny_in == "pred" else (plain, tiny)
        for score in (lambda: evaluate(pred, gt), lambda: Scorer(gt).report(pred)):
            with pytest.raises(InputError, match="depth must be positive on evaluated pixels"):
                score()

    def test_longdouble_scores_as_its_float64_conversion(self):
        gt, pred = depth_in(np.float64, 0), depth_in(np.float64, 1)
        scorer = Scorer(gt.astype(np.longdouble))
        assert scorer.g.dtype == np.float64
        assert scorer.report(pred.astype(np.longdouble)) == Scorer(gt).report(pred)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_report_reads_its_prediction_only(self, dtype):
        prediction = Scorer(depth_in(np.float32, 0)).prediction(depth_in(dtype, 1))
        before = prediction.p.copy()
        first = prediction.report()
        assert prediction.report().entries() == first.entries()
        assert prediction.p.tobytes() == before.tobytes()


positive = st.sampled_from([0.5, 1.0, 1.25, 2.0, 3.0])
nonfinite = st.sampled_from([0.5, 1.0, 1.25, 2.0, 3.0, np.nan, np.inf])
mixed = st.sampled_from([0.5, 1.0, 1.25, 2.0, 3.0, 0.0, -1.0, np.nan, np.inf, -np.inf])
sigmas = st.sampled_from([0.05, 0.1, 0.2, 0.3, 0.5, 1.0, np.nan, np.inf, -np.inf])
thresholds_pool = st.sampled_from([0.08, 0.1, 0.16, 0.3, 0.5, 2.0, np.inf])


@st.composite
def map_case(draw):
    """Small maps with heavy ties, some with NaN sigma, non-finite or non-positive depths."""
    shape = (draw(st.integers(1, 5)), draw(st.integers(1, 8)))

    def depth_map():
        return draw(arrays(np.float64, shape, elements=draw(st.sampled_from([positive, nonfinite, mixed]))))

    gt, pred, initial = depth_map(), depth_map(), depth_map()
    sigma = draw(arrays(np.float64, shape, elements=sigmas))
    mask = draw(st.one_of(st.none(), arrays(np.bool_, shape)))
    thresholds = draw(st.lists(thresholds_pool, max_size=4))
    return gt, pred, initial, sigma, mask, thresholds


class TestScorerProperty:
    @given(map_case(), st.sampled_from([0.0, -0.5]))
    @settings(max_examples=300)
    def test_public_functions_match_reference(self, case, bad_threshold):
        gt, pred, _, sigma, mask, thresholds = case
        assert outcome(evaluate, pred, gt, mask) == outcome(ref_evaluate, pred, gt, mask)
        assert outcome(error_uncertainty_correlation, pred, sigma, gt, mask) == outcome(
            ref_correlation, pred, sigma, gt, mask
        )
        for ts in (thresholds, thresholds + [bad_threshold]):
            assert outcome(uncertainty_sweep, pred, sigma, gt, ts, mask) == outcome(
                ref_uncertainty_sweep, pred, sigma, gt, ts, mask
            )

    @given(map_case())
    @settings(max_examples=300)
    def test_estimate_scoring_matches_reference(self, case):
        gt, pred, initial, sigma, mask, thresholds = case
        mask = (np.ones(gt.shape, dtype=bool) if mask is None else mask) & np.isfinite(gt)
        scorer = Scorer(gt, mask)
        assert outcome(scorer.report, initial) == outcome(ref_evaluate, initial, gt, mask)

        def score():
            return scorer.prediction(pred).score(sigma, thresholds)

        assert outcome(score) == outcome(ref_score, pred, sigma, gt, mask, thresholds)

    @given(map_case())
    @settings(max_examples=100)
    def test_pool_scoring_matches_reference(self, case):
        gt, pred, initial, sigma, mask, thresholds = case
        mask = (np.ones(gt.shape, dtype=bool) if mask is None else mask) & np.isfinite(gt)
        want = outcome(ref_estimate_scoring, initial, pred, sigma, gt, mask, thresholds)
        assert pool_outcomes(gt, mask, initial, pred, sigma, thresholds) == (want, want)

    @pytest.mark.parametrize(
        "initial_value, refined_value, error",
        [(0.0, np.nan, (InputError, "depth must be positive on evaluated pixels")),
         (np.nan, -1.0, (EmptyEvaluation, "no pixels to evaluate"))],
    )
    def test_initial_error_wins_when_both_maps_raise(self, initial_value, refined_value, error):
        gt = np.full((4, 5), 2.0)
        mask = np.ones(gt.shape, dtype=bool)
        sigma = np.linspace(0.1, 0.9, gt.size).reshape(gt.shape)
        initial, refined = np.full(gt.shape, initial_value), np.full(gt.shape, refined_value)
        assert pool_outcomes(gt, mask, initial, refined, sigma, [0.5]) == (error, error)

    def test_non_finite_prediction_leaves_too_few_pixels_to_rank(self):
        # 16 mask pixels have a finite sigma, but only 8 a finite prediction
        gt = np.full((4, 4), 2.0)
        pred = np.where(np.arange(16).reshape(4, 4) % 2 == 0, 2.5, np.nan)
        sigma = np.linspace(0.1, 0.9, 16).reshape(4, 4)
        mask = np.ones((4, 4), dtype=bool)

        def score():
            return Scorer(gt, mask).prediction(pred).score(sigma, [0.5])

        want = outcome(ref_score, pred, sigma, gt, mask, [0.5])
        assert want == (InputError, "need at least 10 masked pixels, got 8")
        assert outcome(score) == want

    def test_shape_mismatch_message(self):
        # the reference's message, followed by the two shapes that differ
        cases = [((np.ones(3), np.ones(4), None), ": pred 3, gt 4"),
                 ((np.ones(3), np.ones(3), np.ones(4, dtype=bool)), ": gt 3, mask 4")]
        for args, shapes in cases:
            kind, message = outcome(ref_evaluate, *args)
            assert outcome(evaluate, *args) == (kind, message + shapes)
            assert kind is InputError


class TestAverageRanksExact:
    @given(arrays(np.float64, st.integers(0, 60), elements=st.sampled_from([0.0, 0.5, 1.0, 2.0, 7.5, -3.0])))
    def test_tied_values_equal_reference(self, x):
        assert np.array_equal(_average_ranks(x), ref_average_ranks(x))

    def test_untied_values_equal_reference(self):
        x = np.random.default_rng(11).standard_normal(5000)
        assert np.array_equal(_average_ranks(x), ref_average_ranks(x))

    def test_in_place_output(self):
        x = np.random.default_rng(12).integers(0, 40, 3000) * 0.5
        want = ref_average_ranks(x)
        assert _average_ranks(x, out=x) is x
        assert np.array_equal(x, want)



def rank_input(kind: str, n: int, seed: int = 0) -> np.ndarray:
    """n values of one kind: distinct, float32-rounded, one repeated value, or signed zeros."""
    rng = np.random.default_rng(seed)
    if kind == "distinct":
        return rng.standard_normal(n)
    if kind == "float32":
        # sigma's range rounded to float32; a narrow band of it makes ties common at any n
        return rng.uniform(0.5, 0.5 + 1e-4, n).astype(np.float32).astype(np.float64)
    if kind == "repeated":
        return np.full(n, 0.25)
    return np.where(rng.random(n) < 0.5, 0.0, -0.0)


def tie_runs_across_blocks(n: int, runs) -> np.ndarray:
    """Distinct values in shuffled order, except that each (a, b) in runs gives sorted slots a..b-1 one value."""
    sorted_values = np.arange(n, dtype=np.float64)
    for a, b in runs:
        sorted_values[a:b] = a
    return np.random.default_rng(n).permutation(sorted_values)


def assert_ranks_exact(x: np.ndarray) -> None:
    """The rank pass equals the whole-array reference and scipy bit for bit, in place and not."""
    want = average_ranks_reference(x)
    assert want.tobytes() == rankdata(x, method="average").tobytes()
    assert _average_ranks(x).tobytes() == want.tobytes()
    y = x.copy()
    assert _average_ranks(y, out=y) is y
    assert y.tobytes() == want.tobytes()


class TestAverageRanksBlocks:
    """The blockwise rank pass against the whole-array reference it replaced, and scipy."""

    @pytest.mark.parametrize("kind", ["distinct", "float32", "repeated", "signed_zeros"])
    @pytest.mark.parametrize("n", [0, 1, 2, 1000, BLOCK, 2 * BLOCK - 1, 2 * BLOCK + 1])
    def test_kinds_and_sizes(self, kind, n):
        assert_ranks_exact(rank_input(kind, n))

    @pytest.mark.parametrize(
        "runs",
        [
            [(BLOCK - 5, BLOCK + 5)],  # straddles one block edge
            [(BLOCK - 10, BLOCK)],  # ends on a block edge
            [(BLOCK, BLOCK + 10)],  # starts on a block edge
            [(100, 3 * BLOCK + 7)],  # spans several blocks
            [(0, 4 * BLOCK)],  # every slot of the map
            [(BLOCK - 3, BLOCK - 1), (BLOCK - 1, 2 * BLOCK + 2), (2 * BLOCK + 2, 2 * BLOCK + 4)],
        ],
        ids=["straddles", "ends_on_edge", "starts_on_edge", "spans_blocks", "whole_map", "adjacent_groups"],
    )
    def test_tie_runs_across_block_edges(self, runs):
        assert_ranks_exact(tie_runs_across_blocks(4 * BLOCK, runs))

    @given(
        arrays(np.float64, st.integers(0, 80), elements=st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0, 7.5, -3.0])),
        st.sampled_from([1, 2, 3, 7]),
    )
    def test_small_blocks_on_tied_values(self, x, block):
        # every block edge lands inside, between or at the end of tie groups
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metrics, "BLOCK", block)
            assert_ranks_exact(x)


class TestAblateRows:
    def test_rows_equal_evaluate_on_each_iterate(self, tmp_path):
        opts = {"width": 96, "height": 72, "fx": 120.0, "fy": 120.0, "seed": 5, "fixed_step": 1}
        opts.update({"sigma_flow": 0.5, "outlier_rate": 0.02, "ablate_iterations": "0 2 5"})
        cfg = load_run_config(overrides=[f"{k}={v}" for k, v in opts.items()])
        cmd_synth(cfg, tmp_path)
        summary = cmd_ablate(cfg, tmp_path)
        init = _triangulate_stage(cfg, tmp_path)[2]
        gt = read_pfm(tmp_path / cfg.gt_depth).astype(np.float64)
        intensity = read_image(tmp_path / cfg.image)
        mask = init.valid & np.isfinite(gt)
        for mode in ("full", "hessian_only", "residual_only", "constant"):
            rc = dataclasses.replace(cfg.refine_config(), weight_mode=mode, iterations=5)
            _, iterates = refine_iterates(init.depth, build_weights(init, intensity, rc), rc)
            for k in (0, 2, 5):
                want = ref_evaluate(iterates[k], gt, mask)
                assert evaluate(iterates[k], gt, mask) == want
                assert summary["reports"][(mode, k)] == want


def vga_scoring_peak(rounding, pooled: bool, stored=np.float64) -> float:
    """Peak traced memory of the estimate command's scoring on 640x480 maps, in float64 maps.

    The ground truth and the initial map are held as ``stored``: the
    estimate command holds both as float32.
    """
    h, w = 480, 640
    rng = np.random.default_rng(3)
    gt = rng.uniform(1.0, 4.0, (h, w)).astype(rounding).astype(stored)
    initial = (gt * rng.uniform(0.9, 1.1, (h, w))).astype(stored)
    initial[rng.random((h, w)) < 0.01] = np.nan
    refined = (gt * rng.uniform(0.97, 1.03, (h, w))).astype(rounding).astype(np.float64)
    sigma = rng.uniform(0.39, 0.68, (h, w)).astype(rounding).astype(np.float64)
    mask = np.isfinite(initial) & np.isfinite(gt)
    with ThreadPoolExecutor(max_workers=1) as pool:
        pool.submit(int).result()  # the thread's own start-up is not scoring
        thresholds, executor = [0.6, 0.5, 0.45, 0.3], pool if pooled else None
        _, peak = traced_peak(lambda: _score_maps(Scorer(gt, mask), initial, refined, sigma, thresholds, executor))
    return peak / (8 * h * w)


class TestScoringMemory:
    # measured peaks (numpy 2.4, Python 3.11), float64 / float32-rounded maps
    # (heavy ties) / a float32 ground truth and initial map, as estimate
    # holds them: 5.74 / 5.76 / 5.26 serial; 6.7-7.3 / 6.9-7.3 / 6.3-6.5 in
    # 42 runs with the pool, where the two reports and then the two rank
    # passes overlap. Holding sigma through the reports, widening a float32
    # prediction and ranking through a sorted copy and whole arrays of
    # sorted ranks took 6.25 / 6.82 / 6.33 serial and 6.3-9.2 with the pool;
    # keeping log g and 1/g and widening the ground truth 8.2 / 8.8 / 8.8
    # serial and up to 11.1 with the pool.
    SERIAL_MAPS, POOLED_MAPS = 6.25, 8

    @pytest.mark.parametrize("rounding", [np.float64, np.float32])
    def test_vga_stage_peaks_within_ten_maps(self, rounding):
        assert vga_scoring_peak(rounding, pooled=False) <= self.SERIAL_MAPS

    @pytest.mark.parametrize("rounding", [np.float64, np.float32])
    def test_vga_stage_with_pool_peaks_within_twelve_maps(self, rounding):
        assert vga_scoring_peak(rounding, pooled=True) <= self.POOLED_MAPS

    @pytest.mark.parametrize("pooled", [False, True], ids=["serial", "pool"])
    def test_vga_stage_on_float32_ground_truth(self, pooled):
        bound = self.POOLED_MAPS if pooled else self.SERIAL_MAPS
        assert vga_scoring_peak(np.float32, pooled, stored=np.float32) <= bound

    @pytest.mark.parametrize("kind", ["distinct", "float32", "few_values", "pairs"])
    def test_vga_rank_pass_peaks_within_1_3_maps(self, kind):
        # measured 1.23 / 1.25 / 1.27 / 1.34-1.39 float64 maps above the
        # input; every value in a pair gives the most tie groups per block,
        # each with its edges and average, so it has its own bound of 1.45.
        # A sorted copy and a whole array of sorted ranks took 2.13 / 2.43 / 3.25
        n = 480 * 640
        rng = np.random.default_rng(5)
        if kind == "distinct":
            x = rng.uniform(0.39, 0.68, n)
        elif kind == "float32":
            x = rng.uniform(0.39, 0.68, n).astype(np.float32).astype(np.float64)
        elif kind == "few_values":
            x = rng.integers(0, 50, n) * 0.25
        else:
            x = rng.permutation(np.repeat(rng.uniform(0.39, 0.68, n // 2), 2))
        _, peak = traced_peak(lambda: _average_ranks(x, out=x))
        assert peak / (8 * n) <= (1.45 if kind == "pairs" else 1.3)

    def test_float32_prediction_report_holds_one_float64_term(self):
        # one report of a float32 map on half the pixels: the float32 gather
        # and one float64 term buffer, which every ufunc reads p into as
        # float64 (0.87 maps measured); a float64 gather took 1.12, and a
        # whole-map float64 copy before the gather 1.56
        h, w = 480, 640
        rng = np.random.default_rng(3)
        gt = rng.uniform(1.0, 4.0, (h, w)).astype(np.float32)
        pred = (gt * rng.uniform(0.9, 1.1, (h, w))).astype(np.float32)
        scorer = Scorer(gt, rng.random((h, w)) < 0.5)
        _, peak = traced_peak(lambda: scorer.report(pred))
        assert peak / (8 * h * w) <= 1.0


class TestCorrelationMemory:
    # measured: 4.06 float64 maps; ranking through a sorted copy and whole
    # arrays of sorted ranks took 4.85, and building log g and 1/g it never reads 7.55
    def test_vga_correlation_peaks_within_six_and_a_half_maps(self):
        h, w = 480, 640
        rng = np.random.default_rng(4)
        gt = rng.uniform(1.0, 4.0, (h, w))
        pred = gt * rng.uniform(0.9, 1.1, (h, w))
        sigma = rng.uniform(0.1, 0.5, (h, w))
        mask = rng.random((h, w)) < 0.9
        corr, peak = traced_peak(lambda: error_uncertainty_correlation(pred, sigma, gt, mask))
        assert corr.defined
        assert peak / (8 * h * w) <= 6.5


class TestEstimateMemory:
    def test_vga_estimate_peaks_within_its_refinement_stage(self, tmp_path, monkeypatch):
        # scoring both maps, with the pool, stays within 1.5 MB of the
        # refinement stage's peak (measured: 23.6 MB against 23.2 MB; the
        # scoring stage peaked at 27.1 MB while sigma was held through the
        # reports, the float32 initial map was widened and a rank pass held
        # a sorted copy and whole arrays of sorted ranks)
        vga = {"width": 640, "height": 480, "fx": 800.0, "fy": 800.0, "n_frames": 5, "sel_n_frames": 5}
        opts = {**ROOM_SUITE, **vga, "fixed_step": 1, "workers": 2}
        cfg = load_run_config(overrides=[f"{k}={v}" for k, v in opts.items()])
        cmd_synth(cfg, tmp_path)
        peaks = {}

        def traced_refine(*args, **kwargs):
            peaks["before"] = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            result = refine(*args, **kwargs)
            peaks["refinement"] = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            return result

        monkeypatch.setattr(pipeline, "refine", traced_refine)
        tracemalloc.start()
        try:
            summary = cmd_estimate(cfg, tmp_path)
            peaks["after"] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert summary["corr"].defined
        assert max(peaks["before"], peaks["after"]) <= peaks["refinement"] + 1.5e6


class TestAblateMemory:
    def test_qvga_ablate_peaks_within_its_refinement_stage(self, tmp_path, monkeypatch):
        # ablate scores each grid iterate as refine shows it, so it holds one
        # iterate at a time. Each refine call is first run without the
        # callback to trace the stage alone; the command, scoring included,
        # must stay within 3 QVGA float64 maps of that stage's peak (measured:
        # 9.45 MB, 2.33 maps above the stage's 8.01 MB; 57.8 MB when refine
        # kept all 41 iterates of a mode for ablate to score afterwards)
        qvga = {"width": 320, "height": 240, "fx": 400.0, "fy": 400.0, "n_frames": 5, "sel_n_frames": 5}
        opts = {**ROOM_SUITE, **qvga, "fixed_step": 1, "workers": 2, "ablate_iterations": "0 40"}
        cfg = load_run_config(overrides=[f"{k}={v}" for k, v in opts.items()])
        cmd_synth(cfg, tmp_path)
        outside, stage = [], []

        def traced_refine(depth, weights, rc, workers=1, on_iterate=None):
            outside.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            refine(depth, weights, rc, workers)
            stage.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            result = refine(depth, weights, rc, workers, on_iterate)
            outside.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            return result

        monkeypatch.setattr(pipeline, "refine", traced_refine)
        tracemalloc.start()
        try:
            summary = cmd_ablate(cfg, tmp_path)
            outside.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert len(summary["reports"]) == 8 and len(stage) == 4
        assert max(outside) <= max(stage) + 3 * 8 * 320 * 240, (max(outside) / 1e6, max(stage) / 1e6)
