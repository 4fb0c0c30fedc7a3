"""Depth accuracy metrics, uncertainty-error correlation, and threshold sweeps.

All reductions run in fixed row-major order over the masked pixels, so
reports are deterministic. Pixels where either map is non-finite are excluded
by mask intersection; finite non-positive values under the mask are an error,
since the relative/log/inverse metrics are undefined there.

One scorer computes all of it. ``Scorer`` gathers the ground truth g on its
mask once and scores any number of predictions against it; ``evaluate``
wraps it. ``uncertainty_sweep`` and ``error_uncertainty_correlation`` share
its gathers.

One dtype rule holds for the ground truth and every prediction: a map is
gathered in the dtype it arrives in (float32 as read from a PFM file,
float64, float16 or an integer dtype), and every term reads it in float64,
through ``dtype=np.float64`` on the ufunc or against a float64 operand,
which converts each value as ``astype(np.float64)`` would. The finiteness
and sign checks give the same answer in the map's own dtype. The one
exception is a dtype float64 cannot hold (``np.can_cast`` fails, as for
longdouble), where a positive value such as 1e-400 is 0 in float64: its
gathered pixels are converted to float64 before they are checked. So no
whole map is converted, the reports write nothing they are given, and every
result has the bits of the same maps converted to float64 first. Sigma alone is gathered as float64
(``_gather_sigma``): its ranks are written into it, and under NumPy 2's
scalar promotion rules a float32 sigma compared with a Python-float
threshold would be compared in float32.

For one prediction each per-pixel term (the ratio max(p/g, g/p),
|d|/g, d², d²/g, (log p - log g)² and (1/p - 1/g)², with d = p - g) is
computed once on the gathered pixels and reduced over every selection (all
pixels, and each non-empty sweep threshold on the gathered sigma) before the
next term is computed. The reports are bit-identical to evaluating each
selection on its own: an elementwise result does not depend on where a value
sits, and a selection gathered from a term holds the same values in the same
row-major order as a fresh gather, so every ``np.mean`` sums the same array.

Two shortcuts are exact, not approximations:

- A delta accuracy is ``count_nonzero(r < t) / n``. ``np.mean`` of the boolean
  sums zeros and ones in float64, which is exact below 2**53, and divides by
  n; both quotients are of the same two integers and correctly rounded.
- A value without ties at sorted slot k takes the rank k + 1, from an
  ``arange`` over its block. The tie-averaging formula gives a group of one
  the rank 0.5 * (2k) + 1, which is exactly k + 1, and every group's average
  is a multiple of 0.5 below 2**52, exact however it is computed.

Scoring can use one more thread. ``_Prediction.score`` takes an executor
and then, through ``workers.run``, ranks sigma on it while ranking |d| on the
calling thread; the estimate command runs the reports of its two maps on one
scorer the same way. The tasks share only arrays they read: a scorer holds
only g, which exists before any thread starts, and each task builds its own
terms and blocks. Every value comes from the same function on the same
inputs, so results are bit-identical with and without the executor.

Memory: besides the caller's maps, a scorer keeps one gathered array, g.
Scoring one prediction adds the gathered prediction, one float64 term
buffer, one selection gathered from it at a time and, with a sweep, each
threshold's pixel indices. Sigma is gathered for those indices and dropped,
and gathered again for the rank once the reports are done. g/p, log g and
1/g take BLOCK pixels at a time in one small buffer. The ranks overwrite
|d| (formed in place of a float64 prediction's gather, in a new float64
array for any other) and sigma in place; each rank pass adds the sort
order, one flag per pixel and one block's arrays (``_average_ranks``).
Scoring an initial and a refined 640x480 map with sigma and a sweep peaks
5.3-5.8 float64 maps above what was live before (5.3 with the estimate
command's float32 ground truth and initial map), and a test holds it to
6.25. With an executor the two reports, and then the two rank passes,
overlap: 6.3-7.3 maps, which a test holds to 8 maps.
"""

from __future__ import annotations

import math
from concurrent.futures import Executor
from dataclasses import dataclass

import numpy as np

from .errors import EmptyEvaluation, InputError
from .workers import run

DELTA_THRESHOLDS = (1.05, 1.10, 1.25, 1.25**2, 1.25**3)
SWEEP_THRESHOLDS = (0.5, 0.16, 0.10, 0.08)
# fewest masked pixels a Spearman correlation is computed on
SPEARMAN_MIN_PIXELS = 10
# elements per block of the scorer's blockwise passes: the float64 buffer of
# a report's terms and each block of a rank pass take 128 KiB
BLOCK = 1 << 14

# the scalar metrics in report and CSV order; one delta accuracy per threshold follows them
METRIC_NAMES = ("n_evaluated", "abs_rel", "sq_rel", "log_rmse", "irmse", "rmse")
CSV_COLUMNS = METRIC_NAMES + tuple(f"delta_{t:.12g}" for t in DELTA_THRESHOLDS)


def _shape_error(**shapes: tuple[int, ...]) -> InputError:
    named = ", ".join(f"{name} {'x'.join(str(n) for n in shape)}" for name, shape in shapes.items())
    return InputError(f"pred, gt, and mask must share one shape: {named}")


@dataclass(frozen=True)
class MetricReport:
    """The standard depth error metrics over one set of evaluated pixels."""

    abs_rel: float
    sq_rel: float
    log_rmse: float
    irmse: float
    rmse: float
    delta_acc: dict[float, float]  # threshold -> percentage in [0, 100]
    n_evaluated: int

    def entries(self) -> list[tuple[str, str]]:
        """(key, formatted value) pairs in report order, which CSV_COLUMNS follows."""
        values = [(name, f"{getattr(self, name):.12g}") for name in METRIC_NAMES]
        return values + [(f"delta[{t:.12g}]", f"{p:.12g}") for t, p in self.delta_acc.items()]


@dataclass(frozen=True)
class SweepRow:
    """One uncertainty threshold: retained coverage and metrics on the survivors."""

    sigma_threshold: float
    coverage_percent: float
    report: MetricReport | None


@dataclass(frozen=True)
class CorrelationResult:
    rho: float
    defined: bool


def _float64_if_wider(a: np.ndarray) -> np.ndarray:
    """a itself, or a converted to float64 when float64 cannot hold its dtype (such as longdouble)."""
    return a if np.can_cast(a.dtype, np.float64) else a.astype(np.float64)


def _ground_truth(gt, mask) -> tuple[np.ndarray, np.ndarray]:
    """(evaluated mask, gt on it): the mask's pixels where gt is finite, and their gt values.

    The values keep gt's own dtype (the module's dtype rule), unless float64
    cannot hold it.
    """
    gt = np.asarray(gt)
    base = np.ones(gt.shape, dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    if base.shape != gt.shape:
        raise _shape_error(gt=gt.shape, mask=base.shape)
    mask = base & np.isfinite(gt)
    return mask, _float64_if_wider(gt[mask])


def _gather(mask: np.ndarray, g: np.ndarray, pred):
    """(finite, p, g) on the evaluated pixels: the mask's pixels where pred is finite.

    ``finite`` selects them among the mask's pixels (None: all of them).
    p is a fresh array in pred's own dtype (the module's dtype rule), so no
    whole-map copy is made; a dtype float64 cannot hold is converted once
    gathered, before its finiteness is read.
    """
    pred = np.asarray(pred)
    if pred.shape != mask.shape:
        raise _shape_error(pred=pred.shape, gt=mask.shape)
    p = _float64_if_wider(pred[mask])
    finite = np.isfinite(p)
    if finite.all():
        return None, p, g
    return finite, p[finite], g[finite]


def _gather_sigma(mask: np.ndarray, finite, sigma) -> tuple[np.ndarray, np.ndarray]:
    """Sigma on the mask, and on the evaluated pixels that ``finite`` selects, both float64."""
    sigma = np.asarray(sigma)
    if sigma.shape != mask.shape:
        raise InputError(f"sigma shape {sigma.shape} != depth shape {mask.shape}")
    on_mask = sigma[mask].astype(np.float64, copy=False)
    return on_mask, on_mask if finite is None else on_mask[finite]


class Scorer:
    """Ground truth gathered once on a mask, scored against any number of predictions.

    A prediction is evaluated on the mask's pixels where both it and the
    ground truth are finite, in row-major order. ``g`` holds the ground
    truth on them, in its own dtype, and ``nonpositive`` whether any of it
    is <= 0; threads scoring against one scorer only read them.
    """

    def __init__(self, gt: np.ndarray, mask=None):
        self.mask, self.g = _ground_truth(gt, mask)
        self.nonpositive = bool(np.any(self.g <= 0))

    def prediction(self, pred) -> _Prediction:
        """The prediction on the evaluated pixels, checked as ``evaluate`` checks it.

        Raises EmptyEvaluation when no pixel survives masking, InputError when
        a surviving pixel is non-positive.
        """
        finite, p, g = _gather(self.mask, self.g, pred)
        if p.size == 0:
            raise EmptyEvaluation("no pixels to evaluate")
        if np.any(p <= 0) or (self.nonpositive if finite is None else np.any(g <= 0)):
            raise InputError("depth must be positive on evaluated pixels")
        return _Prediction(self.mask, finite, p, g)

    def report(self, pred) -> MetricReport:
        return self.prediction(pred).report()


class _Prediction:
    """One prediction on a scorer's evaluated pixels (see ``_gather``).

    ``p`` and ``g`` hold those pixels, each in its map's own dtype.
    ``report`` only reads them, so it can be repeated; ``score`` ranks
    |p - g|, formed in place of a float64 ``p``, so it is called once.
    """

    def __init__(self, mask: np.ndarray, finite, p: np.ndarray, g: np.ndarray):
        self.mask = mask
        self.finite = finite
        self.p = p
        self.g = g

    def report(self) -> MetricReport:
        return _reports(self.p, self.g, [None])[0]

    def score(
        self, sigma, thresholds, executor: Executor | None = None
    ) -> tuple[MetricReport, CorrelationResult, list[SweepRow]]:
        """The report, Spearman rho and sweep rows of one prediction with its sigma.

        rho is reported undefined (0) when fewer than SPEARMAN_MIN_PIXELS mask
        pixels have a finite sigma, and raises InputError when enough do but
        too few of them have a finite prediction. The thresholds must pass
        check_thresholds. With an executor, sigma is ranked on it while
        |p - g| is ranked here.
        """
        check_thresholds(thresholds)
        # the sweep needs only the kept indices, so sigma is gathered again
        # for the rank instead of being held through the reports
        on_mask, sig = _gather_sigma(self.mask, self.finite, sigma)
        ranked = np.count_nonzero(np.isfinite(on_mask)) >= SPEARMAN_MIN_PIXELS
        kept = _kept(sig, thresholds)
        del on_mask, sig
        report, rows = _sweep(self.p, self.g, thresholds, kept, self.p.size, score_all=True)
        if not ranked:
            return report, CorrelationResult(rho=0.0, defined=False), rows
        err = _abs_error(self.p, self.g)
        return report, _rank_correlation(err, _gather_sigma(self.mask, self.finite, sigma)[1], executor), rows


def _reports(p: np.ndarray, g: np.ndarray, selections: list) -> list[MetricReport]:
    """One report per selection of the evaluated pixels, each term computed once.

    A selection is None (every pixel) or the ascending indices of its pixels,
    and none is empty; every pixel is finite and positive. p and g are read
    through ``dtype=np.float64`` (the module's dtype rule) and never written.
    """
    def means(term):
        return [np.mean(term if s is None else term[s]) for s in selections]

    # the gt-side parts of three terms (g/p, log g, 1/g) go a block at a time
    # through one small float64 buffer, so none of them takes a whole map
    buffer = np.empty(min(p.size, BLOCK))
    blocks = [(slice(i, i + BLOCK), buffer[: min(BLOCK, p.size - i)]) for i in range(0, p.size, BLOCK)]
    term = np.empty(p.size)
    np.divide(p, g, out=term, dtype=np.float64)
    for block, part in blocks:
        np.maximum(term[block], np.divide(g[block], p[block], out=part, dtype=np.float64), out=term[block])
    deltas = [_delta_acc(term if s is None else term[s]) for s in selections]
    np.log(p, out=term, dtype=np.float64)
    for block, part in blocks:
        term[block] -= np.log(g[block], out=part, dtype=np.float64)
    log_mse = means(np.square(term, out=term))
    np.divide(1.0, p, out=term, dtype=np.float64)
    for block, part in blocks:
        term[block] -= np.divide(1.0, g[block], out=part, dtype=np.float64)
    inv_mse = means(np.square(term, out=term))
    # d = p - g is formed once for d² and d²/g and once more for |d|/g
    mse = means(np.square(np.subtract(p, g, out=term, dtype=np.float64), out=term))
    term /= g
    sq_rel = means(term)
    abs_rel = means(np.divide(np.abs(np.subtract(p, g, out=term, dtype=np.float64), out=term), g, out=term))
    return [
        MetricReport(
            abs_rel=float(abs_rel[i]),
            sq_rel=float(sq_rel[i]),
            log_rmse=float(np.sqrt(log_mse[i])),
            irmse=float(np.sqrt(inv_mse[i])),
            rmse=float(np.sqrt(mse[i])),
            delta_acc=deltas[i],
            n_evaluated=p.size if s is None else s.size,
        )
        for i, s in enumerate(selections)
    ]


def _delta_acc(ratio: np.ndarray) -> dict[float, float]:
    return {t: 100.0 * (np.count_nonzero(ratio < t) / ratio.size) for t in DELTA_THRESHOLDS}


def check_thresholds(thresholds) -> None:
    """Raise InputError unless every sweep threshold is positive.

    NaN is rejected; an infinite threshold is legal and keeps every pixel.
    """
    if not all(t > 0 for t in thresholds):  # NaN fails "> 0"
        raise InputError("thresholds must be positive")


def _kept(sig: np.ndarray, thresholds) -> list[np.ndarray]:
    """The indices of the pixels each threshold keeps, those with sig below it."""
    # index arrays, since gathering a term through a boolean mask is several times slower
    return [np.flatnonzero(sig < t) for t in thresholds]


def _sweep(p, g, thresholds, kept, n_base: int, score_all: bool):
    """The report on every pixel (when score_all, else None) and one sweep row per threshold.

    ``kept`` holds each threshold's pixel indices (``_kept``). Coverage is
    relative to n_base; a threshold that keeps no pixel gets a null report.
    """
    reports = iter(_reports(p, g, [None] * score_all + [k for k in kept if k.size]))
    report = next(reports) if score_all else None
    rows = [
        SweepRow(
            sigma_threshold=float(t),
            coverage_percent=100.0 * k.size / n_base if n_base else 0.0,
            report=next(reports) if k.size else None,
        )
        for t, k in zip(thresholds, kept)
    ]
    return report, rows


def evaluate(pred: np.ndarray, gt: np.ndarray, mask=None) -> MetricReport:
    """Compute every metric family over the masked pixels.

    Raises EmptyEvaluation when no pixel survives masking, InputError when a
    surviving pixel is non-positive.
    """
    return Scorer(gt, mask).report(pred)


def uncertainty_sweep(
    pred: np.ndarray,
    sigma: np.ndarray,
    gt: np.ndarray,
    thresholds=SWEEP_THRESHOLDS,
    mask=None,
) -> list[SweepRow]:
    """Retain pixels with sigma below each threshold and re-evaluate.

    Coverage is relative to the evaluable mask, so an infinite threshold
    reports 100%. An empty retained set yields coverage 0 and a null report
    instead of raising.
    """
    check_thresholds(thresholds)
    mask, g = _ground_truth(gt, mask)
    finite, p, g = _gather(mask, g, pred)
    _, sig = _gather_sigma(mask, finite, sigma)
    n_base = sig.size
    # only pixels some threshold keeps are scored, so a non-positive pixel no
    # threshold keeps raises nothing
    widest = sig < max(thresholds, default=-np.inf)
    if not widest.all():
        p, sig, g = p[widest], sig[widest], g[widest]
    if p.size and (np.any(p <= 0) or np.any(g <= 0)):
        raise InputError("depth must be positive on evaluated pixels")
    return _sweep(p, g, thresholds, _kept(sig, thresholds), n_base, score_all=False)[1]


def _average_ranks(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Ranks 1..n with ties sharing their average rank.

    Every member of a tie group gets the same average, so the order inside a
    group does not matter and the unstable default sort gives the same ranks
    as a stable one, bit for bit. The ranks go to ``out`` when given, which
    may be ``x`` itself: x is read only before out is written.

    Besides the sort order, a pass holds one flag per sorted slot and the
    arrays of one block of about BLOCK sorted slots: x is compared in sorted
    order a block at a time, and only then are the ranks scattered a block at
    a time, each block ending where a tie group does. A 640x480 pass peaks
    1.23-1.27 float64 maps above its input, 1.39 when every value comes in
    pairs.
    """
    n = len(x)
    order = np.argsort(x)
    joined = _joined(x, order)
    ranks = np.empty(n) if out is None else out
    lo = 0
    while lo < n:
        hi = min(lo + BLOCK, n)
        if not joined[hi]:
            _scatter_ranks(ranks, order, joined, lo, hi)
            lo = hi
            continue
        # the block's last tie group runs past it: the block stops at the
        # group's first slot a, and its slots a..b-1 take one value
        a = hi - 1 - _first_false(joined[lo:hi][::-1])
        b = hi + 1
        while joined[b]:
            b += _first_false(joined[b : b + BLOCK])
        _scatter_ranks(ranks, order, joined, lo, a)
        ranks[order[a:b]] = 0.5 * (a + b - 1) + 1.0
        lo = b
    return ranks


def _joined(x: np.ndarray, order: np.ndarray) -> np.ndarray:
    """n + 1 flags: [k] is True when sorted slot k holds the value of slot k - 1.

    The first and the last flag are False, so slot k opens a tie group
    exactly when flag k is False. x is read in sorted order a block at a time.
    """
    joined = np.zeros(len(x) + 1, dtype=bool)
    for lo in range(0, len(x) - 1, BLOCK):
        sorted_x = x[order[lo : lo + BLOCK + 1]]
        np.equal(sorted_x[1:], sorted_x[:-1], out=joined[lo + 1 : lo + sorted_x.size])
    return joined


def _first_false(flags: np.ndarray) -> int:
    """The index of the first False among non-empty flags, or their length when all are True."""
    i = int(np.argmin(flags))
    return len(flags) if flags[i] else i


def _scatter_ranks(ranks: np.ndarray, order: np.ndarray, joined: np.ndarray, lo: int, hi: int) -> None:
    """Write the ranks of sorted slots lo..hi-1, which no tie group crosses, through ``order``."""
    # sorted slot k takes rank k + 1 unless it is in a tie group
    block = np.arange(lo + 1.0, hi + 1.0)
    flags = joined[lo : hi + 1]  # False at both ends, since no group crosses them
    if flags.any():
        # each tie group holds local slots s..e, whose mean rank is lo + 1 + (s + e) / 2
        edges = np.flatnonzero(flags[1:] != flags[:-1])
        starts, stops = edges[0::2], edges[1::2]
        block[flags[1:] | flags[:-1]] = np.repeat((starts + stops) * 0.5 + (lo + 1.0), stops - starts + 1)
    ranks[order[lo:hi]] = block


def _rank_correlation(err: np.ndarray, sig: np.ndarray, executor: Executor | None = None) -> CorrelationResult:
    """Spearman rho of err and sig where sig is finite; both arrays are overwritten."""
    ranked = np.isfinite(sig)
    n = int(np.count_nonzero(ranked))
    if n < SPEARMAN_MIN_PIXELS:
        raise InputError(f"need at least {SPEARMAN_MIN_PIXELS} masked pixels, got {n}")
    if n < sig.size:
        err, sig = err[ranked], sig[ranked]
    s, e = run(executor, [lambda: _average_ranks(sig, out=sig), lambda: _average_ranks(err, out=err)])
    e -= e.mean()
    s -= s.mean()
    denom = math.sqrt(float(e @ e) * float(s @ s))
    if denom == 0.0:
        return CorrelationResult(rho=0.0, defined=False)
    return CorrelationResult(rho=float(e @ s) / denom, defined=True)


def error_uncertainty_correlation(
    pred: np.ndarray,
    sigma: np.ndarray,
    gt: np.ndarray,
    mask=None,
) -> CorrelationResult:
    """Spearman rank correlation between |pred - gt| and sigma on masked pixels.

    Ties receive average ranks. A constant input makes the correlation
    undefined; that is reported as rho = 0 with the flag cleared.
    """
    mask, g = _ground_truth(gt, mask)
    finite, p, g = _gather(mask, g, pred)
    _, sig = _gather_sigma(mask, finite, sigma)
    return _rank_correlation(_abs_error(p, g), sig)


def _abs_error(p: np.ndarray, g: np.ndarray) -> np.ndarray:
    """|p - g| in float64: in place in a float64 p, in a new array for any other dtype."""
    d = np.subtract(p, g, out=p if p.dtype == np.float64 else None, dtype=np.float64)
    return np.abs(d, out=d)


def csv_lines(key_columns, rows) -> list[str]:
    """CSV of metric reports: a header, then one line per (key values, report) row.

    Each line holds the row's key values and then the report's values in
    ``MetricReport.entries`` order; a null report gives n_evaluated 0 and
    blank metrics.
    """
    lines = [",".join([*key_columns, *CSV_COLUMNS])]
    blank = ["0"] + [""] * (len(CSV_COLUMNS) - 1)
    for keys, report in rows:
        values = blank if report is None else [value for _, value in report.entries()]
        lines.append(",".join([*keys, *values]))
    return lines


def sweep_csv_lines(rows: list[SweepRow]) -> list[str]:
    """Sweep rows as CSV (header + one line per threshold; blanks for null metrics)."""
    keyed = [((f"{r.sigma_threshold:.12g}", f"{r.coverage_percent:.12g}"), r.report) for r in rows]
    return csv_lines(("sigma_threshold", "coverage_percent"), keyed)
