"""Confidence-weighted iterative depth refinement with per-pixel uncertainty.

The refined map minimizes

    C(d) = sum_i w_i (d_i - dbar_i)^2
         + mu * sum_{(i,j) in 4-neighbor edges} g_ij (d_i - d_j)^2

where dbar is the triangulated depth, w maps the two triangulation
confidence channels to a data weight (zero on invalid pixels), and g is an
edge-aware smoothness weight that weakens across intensity edges. Iteration
is damped Jacobi on the normal equations: every pixel moves toward the
exactly solvable single-pixel optimum while its neighbors are frozen, all
pixels update simultaneously from the previous iterate (double buffer), and
omega <= 1 guarantees the objective never increases. High-confidence pixels
are anchored near their triangulated depth; invalid ones are inpainted by the
smoothness term from a neutral start.

Each iteration makes one pass per row band of about BAND_PIXELS pixels (the
bands triangulation uses), so a band's rows of every operand stay in cache
between the elementwise steps. The pass computes the band's rows of the next
iterate, reading the halo rows above and below from the previous map, and
then writes the previous map's data, horizontal and vertical objective terms
for those rows into whole-map buffers; the three sums run over the whole
buffers, so C(d) has the same bits for any band split. Every elementwise step
takes the same operands in the same order as the plain full-map update:

    s     = sum_j g_ij d_j        (terms added left, right, below, above)
    d_new = d + omega * (w dbar + mu s - denom d) / safe_denom

Two shortcuts are exact. The neighbour sum starts from its first product
rather than from zero, since every product g d is positive and 0 + t == t.
And the update needs no select to hold unconstrained pixels (denom = 0, so
w = 0 and mu * degree = 0): with mu = 0 their step is
(0*dbar + 0*s - 0*d) / 1 * omega = 0 and d + 0 == d, since d > 0. With
mu > 0 a pixel has denom = 0 only in a 1x1 map or where mu * g underflowed
to zero while mu * g * d did not; only then are the unconstrained pixels
reset to the previous map after the pass. Two maps alternate as the current
and next iterate unless every iterate is kept.

The per-pixel uncertainty is the inverse square root of the objective's
diagonal curvature, scaled by beta and floored at sigma_min: exactly the
pixels the data and smoothness terms constrain weakly get a wide scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .triangulate import InitialDepth, _row_bands

WEIGHT_MODES = ("full", "hessian_only", "residual_only", "constant")


@dataclass(frozen=True)
class RefineConfig:
    """Iteration count, smoothness and weighting knobs, uncertainty calibration."""

    iterations: int = 7
    mu: float = 1.0  # smoothness strength
    kappa: float = 0.1  # intensity edge sensitivity of g
    omega: float = 0.9  # Jacobi damping, in (0, 1]
    tau: float = 0.05  # residual softening; sits at the residual channel's scale
    w_max: float = 1e4
    sigma_min: float = 0.01  # meters
    beta: float = 1.0  # uncertainty scale
    sigma_cap: float = 10.0  # meters, for totally unconstrained pixels
    weight_mode: str = "full"

    def __post_init__(self):
        if self.iterations < 0:
            raise InputError("iterations must be nonnegative")
        if not (0.0 < self.omega <= 1.0):
            raise InputError("omega must be in (0, 1]")
        if self.mu < 0:
            raise InputError("mu must be nonnegative")
        if self.kappa <= 0 or self.tau <= 0 or self.w_max <= 0:
            raise InputError("kappa, tau, w_max must be positive")
        if self.sigma_min <= 0 or self.beta <= 0 or self.sigma_cap <= 0:
            raise InputError("sigma_min, beta, sigma_cap must be positive")
        if self.weight_mode not in WEIGHT_MODES:
            raise InputError(f"weight_mode must be one of {WEIGHT_MODES}")


@dataclass(frozen=True)
class WeightMaps:
    """Data weights per pixel and smoothness weights per 4-neighbor edge.

    g_h[y, x] weights the edge between (y, x) and (y, x+1); g_v[y, x] the edge
    between (y, x) and (y+1, x). One value per undirected edge keeps the
    weights symmetric by construction.
    """

    w: np.ndarray  # (H, W), >= 0, exactly 0 on invalid pixels
    g_h: np.ndarray  # (H, W-1), in (0, 1]
    g_v: np.ndarray  # (H-1, W), in (0, 1]

    def __post_init__(self):
        h, w = self.w.shape
        if self.g_h.shape != (h, w - 1) or self.g_v.shape != (h - 1, w):
            raise InputError("edge weight shapes must match the pixel grid")
        if np.any(self.w < 0):
            raise InputError("data weights must be nonnegative")
        for g in (self.g_h, self.g_v):
            if np.any(g <= 0) or np.any(g > 1):
                raise InputError("edge weights must lie in (0, 1]")

    def degree(self, mu: float) -> np.ndarray:
        """mu * sum of incident edge weights for every pixel."""
        s = np.zeros_like(self.w)
        s[:, :-1] += self.g_h
        s[:, 1:] += self.g_h
        s[:-1, :] += self.g_v
        s[1:, :] += self.g_v
        return mu * s


@dataclass(frozen=True)
class RefineResult:
    """Depth iterates, the uncertainty map, and objective values C(d(0))..C(d(K)).

    iterates holds every map d(0)..d(K) when refine was asked to keep them,
    and only the final d(K) otherwise.
    """

    iterates: tuple[np.ndarray, ...]
    uncertainty: np.ndarray
    objective: tuple[float, ...]

    @property
    def depth(self) -> np.ndarray:
        return self.iterates[-1]


def build_weights(init: InitialDepth, intensity: np.ndarray, cfg: RefineConfig) -> WeightMaps:
    """Map triangulation confidence to data weights and intensity to edge weights.

    The full mode uses w = H / (c_r^2 + tau^2): the curvature H is the inverse
    variance of the triangulated depth under unit correspondence noise, and
    the observed residual deflates it. The ablation modes drop one or both
    ingredients (hessian_only, residual_only, constant). All modes clip at
    w_max and force w = 0 on invalid pixels. Edge weights are
    g = exp(-|dI| / kappa), weaker across intensity edges.
    """
    intensity = np.asarray(intensity, dtype=np.float64)
    if intensity.shape != init.depth.shape:
        raise InputError("intensity shape must match the depth map")
    hess = np.square(np.where(init.valid, init.conf_h, 0.0))
    res_sq = np.square(np.where(init.valid, init.conf_r, 0.0))
    tau_sq = cfg.tau * cfg.tau
    if cfg.weight_mode == "full":
        w = hess / (res_sq + tau_sq)
    elif cfg.weight_mode == "hessian_only":
        w = hess / tau_sq
    elif cfg.weight_mode == "residual_only":
        w = 1.0 / (res_sq + tau_sq)
    else:  # constant
        w = np.ones_like(hess)
    w = np.where(init.valid, np.minimum(w, cfg.w_max), 0.0)
    g_h = np.exp(-np.abs(np.diff(intensity, axis=1)) / cfg.kappa)
    g_v = np.exp(-np.abs(np.diff(intensity, axis=0)) / cfg.kappa)
    return WeightMaps(w=w, g_h=g_h, g_v=g_v)


def _term_buffers(shape) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Whole-map buffers for C(d)'s data, horizontal-edge and vertical-edge terms."""
    h, w = shape
    return np.empty((h, w)), np.empty((h, w - 1)), np.empty((h - 1, w))


def _write_terms(d: np.ndarray, dbar_filled: np.ndarray, weights: WeightMaps, rows: slice, terms) -> None:
    """Write the terms of C(d) owned by ``rows`` into their rows of the term buffers.

    Row y owns its data terms, its horizontal edges and its edges to row y + 1.
    """
    data, horiz, vert = terms
    t = data[rows]
    np.subtract(d[rows], dbar_filled[rows], out=t)
    np.multiply(weights.w[rows], np.square(t, out=t), out=t)
    t = horiz[rows]
    np.subtract(d[rows, 1:], d[rows, :-1], out=t)
    np.multiply(weights.g_h[rows], np.square(t, out=t), out=t)
    down = slice(rows.start, min(rows.stop, len(vert)))
    t = vert[down]
    np.subtract(d[down.start + 1 : down.stop + 1], d[down], out=t)
    np.multiply(weights.g_v[down], np.square(t, out=t), out=t)


def _sum_terms(terms, mu: float) -> float:
    data, horiz, vert = terms
    return float(np.sum(data) + mu * (np.sum(horiz) + np.sum(vert)))


def _objective(d: np.ndarray, dbar_filled: np.ndarray, weights: WeightMaps, mu: float, terms) -> float:
    for rows in _row_bands(*d.shape, 1):
        _write_terms(d, dbar_filled, weights, rows, terms)
    return _sum_terms(terms, mu)


def objective_value(d: np.ndarray, dbar_filled: np.ndarray, weights: WeightMaps, mu: float) -> float:
    """C(d); dbar_filled must be finite everywhere (its value is ignored where w = 0)."""
    return _objective(d, dbar_filled, weights, mu, _term_buffers(d.shape))


def _sweep(d, nxt, rows, weights, mu, omega, w_dbar, denom, safe_denom, terms) -> None:
    """Write ``rows`` of the Jacobi step from d into nxt.

    The rows of the data and horizontal term buffers serve as temporaries, so
    the band's terms must be written after its sweep.
    """
    data, horiz, _ = terms
    top, bottom = rows.start, rows.stop
    s = nxt[rows]
    tmp = data[rows]
    # sum_j g_ij d_j with its terms added in the order of a zero-filled sum;
    # every term is positive, so starting from the first one is exact
    np.multiply(weights.g_h[rows], d[rows, 1:], out=s[:, :-1])
    s[:, -1] = 0.0
    s[:, 1:] += np.multiply(weights.g_h[rows], d[rows, :-1], out=horiz[rows])
    n = min(bottom, len(d) - 1) - top  # band rows with a row below
    s[:n] += np.multiply(weights.g_v[top : top + n], d[top + 1 : top + 1 + n], out=tmp[:n])
    a = max(top, 1)  # first band row with a row above
    s[a - top :] += np.multiply(weights.g_v[a - 1 : bottom - 1], d[a - 1 : bottom - 1], out=tmp[: bottom - a])
    # s = d + omega * (w dbar + mu s - denom d) / safe_denom
    np.multiply(s, mu, out=s)
    np.add(w_dbar[rows], s, out=s)
    np.subtract(s, np.multiply(denom[rows], d[rows], out=tmp), out=s)
    np.divide(s, safe_denom[rows], out=s)
    np.multiply(s, omega, out=s)
    np.add(d[rows], s, out=s)


def refine(
    init: InitialDepth, weights: WeightMaps, cfg: RefineConfig, keep_iterates: bool = False
) -> RefineResult:
    """Run K damped-Jacobi iterations and compute the uncertainty map.

    d(0) is the triangulated depth with invalid pixels filled by the median of
    the valid ones (1.0 m if nothing is valid). Pixels with zero diagonal
    (no data weight and, with mu = 0 or no neighbour, no smoothness weight)
    hold their initialization and are assigned sigma_cap. The result keeps
    every iterate d(0)..d(K) only when keep_iterates is set, and just the
    final map otherwise; the objective is recorded for every iterate either
    way.
    """
    if weights.w.shape != init.depth.shape:
        raise InputError("weights were built for a different map size")
    valid = init.valid
    dbar = np.where(valid, init.depth, 0.0)
    fill = float(np.median(init.depth[valid])) if np.any(valid) else 1.0
    d = np.where(valid, init.depth, fill)

    mu = cfg.mu
    denom = weights.w + weights.degree(mu)
    constrained = denom > 0.0
    safe_denom = np.where(constrained, denom, 1.0)
    # where denom = 0 the step is exactly 0 when mu = 0 (see the module notes)
    hold = ~constrained if mu > 0.0 and not constrained.all() else None

    w_dbar = weights.w * dbar
    bands = _row_bands(*d.shape, 1)
    terms = _term_buffers(d.shape)
    spare = None if keep_iterates else np.empty_like(d)
    iterates = [d] if keep_iterates else []
    objective = []
    for _ in range(cfg.iterations):
        nxt = np.empty_like(d) if keep_iterates else spare
        for rows in bands:
            _sweep(d, nxt, rows, weights, mu, cfg.omega, w_dbar, denom, safe_denom, terms)
            _write_terms(d, dbar, weights, rows, terms)
        if hold is not None:
            np.copyto(nxt, d, where=hold)
        objective.append(_sum_terms(terms, mu))
        if keep_iterates:
            iterates.append(nxt)
        else:
            spare = d
        d = nxt
    objective.append(_objective(d, dbar, weights, mu, terms))

    sigma = np.maximum(cfg.sigma_min, cfg.beta / np.sqrt(safe_denom))
    sigma = np.where(constrained, sigma, cfg.sigma_cap)
    return RefineResult(tuple(iterates) if keep_iterates else (d,), sigma, tuple(objective))


def laplacian_nll(
    depths,
    sigmas,
    gt: np.ndarray,
    valid=None,
    lam: float = 0.83,
) -> float:
    """Geometrically damped negative log-likelihood of per-iteration estimates.

    Each depth pixel is modeled as an independent Laplacian with the matching
    scale map, so one iterate contributes sum_i |d_i - gt_i| / sigma_i +
    ln sigma_i over valid pixels (fixed row-major order). Iterate k of K is
    weighted lam^(K - k), emphasizing the final estimates; the defaults are
    lam = 0.83 with K implied by the number of maps provided.
    """
    depths = [np.asarray(d, dtype=np.float64) for d in depths]
    sigmas = [np.asarray(s, dtype=np.float64) for s in sigmas]
    if len(depths) != len(sigmas) or not depths:
        raise InputError("need the same (nonzero) number of depth and sigma maps")
    gt = np.asarray(gt, dtype=np.float64)
    mask = np.isfinite(gt) if valid is None else (np.asarray(valid, dtype=bool) & np.isfinite(gt))
    last_k = len(depths) - 1
    total = 0.0
    for k, (d, s) in enumerate(zip(depths, sigmas)):
        if d.shape != gt.shape or s.shape != gt.shape:
            raise InputError("all maps must share the ground-truth shape")
        if np.any(s[mask] <= 0):
            raise InputError("sigma must be positive on valid pixels")
        inner = np.sum(np.where(mask, np.abs(d - gt) / np.where(mask, s, 1.0) + np.log(np.where(mask, s, 1.0)), 0.0))
        total += lam ** (last_k - k) * float(inner)
    return total
