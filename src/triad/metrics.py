"""Depth accuracy metrics, uncertainty-error correlation, and threshold sweeps.

All reductions run in fixed row-major order over the masked pixels, so
reports are deterministic. Pixels where either map is non-finite are excluded
by mask intersection; finite non-positive values under the mask are an error,
since the relative/log/inverse metrics are undefined there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyEvaluation, InputError

DELTA_THRESHOLDS = (1.05, 1.10, 1.25, 1.25**2, 1.25**3)
SWEEP_THRESHOLDS = (0.5, 0.16, 0.10, 0.08)
# fewest masked pixels a Spearman correlation is computed on
SPEARMAN_MIN_PIXELS = 10


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

    def as_keyvalues(self, prefix: str = "") -> list[str]:
        lines = [
            f"{prefix}n_evaluated = {self.n_evaluated}",
            f"{prefix}abs_rel = {self.abs_rel:.12g}",
            f"{prefix}sq_rel = {self.sq_rel:.12g}",
            f"{prefix}log_rmse = {self.log_rmse:.12g}",
            f"{prefix}irmse = {self.irmse:.12g}",
            f"{prefix}rmse = {self.rmse:.12g}",
        ]
        lines += [f"{prefix}delta[{t:.12g}] = {p:.12g}" for t, p in self.delta_acc.items()]
        return lines


@dataclass(frozen=True)
class SweepRow:
    """One uncertainty threshold: retained coverage and metrics on the survivors."""

    sigma_threshold: float
    coverage_percent: float
    report: MetricReport | None


def _evaluation_mask(pred: np.ndarray, gt: np.ndarray, mask) -> np.ndarray:
    base = np.ones(pred.shape, dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    if base.shape != pred.shape or gt.shape != pred.shape:
        raise InputError("pred, gt, and mask must share one shape")
    return base & np.isfinite(pred) & np.isfinite(gt)


def evaluate(pred: np.ndarray, gt: np.ndarray, mask=None) -> MetricReport:
    """Compute every metric family over the masked pixels.

    Raises EmptyEvaluation when no pixel survives masking, InputError when a
    surviving pixel is non-positive.
    """
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    m = _evaluation_mask(pred, gt, mask)
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
    pred = np.asarray(pred, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if any(t <= 0 for t in thresholds):
        raise InputError("thresholds must be positive")
    base = _evaluation_mask(pred, gt, mask)
    n_base = int(np.count_nonzero(base))
    rows = []
    for t in thresholds:
        retained = base & (sigma < t)
        n_kept = int(np.count_nonzero(retained))
        coverage = 100.0 * n_kept / n_base if n_base else 0.0
        report = evaluate(pred, gt, retained) if n_kept else None
        rows.append(SweepRow(sigma_threshold=float(t), coverage_percent=coverage, report=report))
    return rows


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """Ranks 1..n with ties sharing their average rank.

    Every member of a tie group gets the same average, so the order inside a
    group does not matter and the unstable default sort gives the same ranks
    as a stable one, bit for bit.
    """
    order = np.argsort(x)
    sorted_x = x[order]
    change = np.nonzero(sorted_x[1:] != sorted_x[:-1])[0] + 1
    boundaries = np.concatenate(([0], change, [len(x)]))
    # a tie group filling sorted slots a..b-1 takes the mean of ranks a+1..b
    averages = 0.5 * (boundaries[:-1] + boundaries[1:] - 1) + 1.0
    ranks = np.empty(len(x))
    ranks[order] = np.repeat(averages, np.diff(boundaries))
    return ranks


@dataclass(frozen=True)
class CorrelationResult:
    rho: float
    defined: bool


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
    pred = np.asarray(pred, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    m = _evaluation_mask(pred, gt, mask) & np.isfinite(sigma)
    n = int(np.count_nonzero(m))
    if n < SPEARMAN_MIN_PIXELS:
        raise InputError(f"need at least {SPEARMAN_MIN_PIXELS} masked pixels, got {n}")
    err_ranks = _average_ranks(np.abs(pred[m] - gt[m]))
    sig_ranks = _average_ranks(sigma[m])
    e = err_ranks - err_ranks.mean()
    s = sig_ranks - sig_ranks.mean()
    denom = math.sqrt(float(e @ e) * float(s @ s))
    if denom == 0.0:
        return CorrelationResult(rho=0.0, defined=False)
    return CorrelationResult(rho=float(e @ s) / denom, defined=True)


def report_lines(report: MetricReport, title: str) -> list[str]:
    """Human-readable block, one metric per line."""
    lines = [f"[{title}]"] + report.as_keyvalues()
    return lines


def sweep_csv_lines(rows: list[SweepRow]) -> list[str]:
    """Sweep rows as CSV (header + one line per threshold; blanks for null metrics)."""
    delta_cols = ",".join(f"delta_{t:.12g}" for t in DELTA_THRESHOLDS)
    header = f"sigma_threshold,coverage_percent,n_evaluated,abs_rel,sq_rel,log_rmse,irmse,rmse,{delta_cols}"
    lines = [header]
    for row in rows:
        if row.report is None:
            blanks = "," * (6 + len(DELTA_THRESHOLDS) - 1)
            lines.append(f"{row.sigma_threshold:.12g},{row.coverage_percent:.12g},0{blanks}")
            continue
        r = row.report
        deltas = ",".join(f"{r.delta_acc[t]:.12g}" for t in DELTA_THRESHOLDS)
        lines.append(
            f"{row.sigma_threshold:.12g},{row.coverage_percent:.12g},{r.n_evaluated},"
            f"{r.abs_rel:.12g},{r.sq_rel:.12g},{r.log_rmse:.12g},{r.irmse:.12g},{r.rmse:.12g},{deltas}"
        )
    return lines
