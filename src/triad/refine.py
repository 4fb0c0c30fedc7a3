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

The per-pixel uncertainty is the inverse square root of the objective's
diagonal curvature, scaled by beta and floored at sigma_min: exactly the
pixels the data and smoothness terms constrain weakly get a wide scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .triangulate import InitialDepth

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


def _scratch(shape) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Work buffers shaped like a pixel map, its horizontal and its vertical edges."""
    h, w = shape
    return np.empty((h, w)), np.empty((h, w - 1)), np.empty((h - 1, w))


def _neighbor_sum(d: np.ndarray, weights: WeightMaps, out: np.ndarray, scratch) -> np.ndarray:
    """sum_j g_ij d_j over the 4-neighbor edges of every pixel, written into out."""
    _, horiz, vert = scratch
    out.fill(0.0)
    out[:, :-1] += np.multiply(weights.g_h, d[:, 1:], out=horiz)
    out[:, 1:] += np.multiply(weights.g_h, d[:, :-1], out=horiz)
    out[:-1, :] += np.multiply(weights.g_v, d[1:, :], out=vert)
    out[1:, :] += np.multiply(weights.g_v, d[:-1, :], out=vert)
    return out


def objective_value(
    d: np.ndarray, dbar_filled: np.ndarray, weights: WeightMaps, mu: float, scratch=None
) -> float:
    """C(d); dbar_filled must be finite everywhere (its value is ignored where w = 0).

    scratch, from _scratch(d.shape), is overwritten; without it the buffers are
    allocated per call.
    """
    full, horiz, vert = _scratch(d.shape) if scratch is None else scratch
    np.subtract(d, dbar_filled, out=full)
    data = np.sum(np.multiply(weights.w, np.square(full, out=full), out=full))
    np.subtract(d[:, 1:], d[:, :-1], out=horiz)
    smooth_h = np.sum(np.multiply(weights.g_h, np.square(horiz, out=horiz), out=horiz))
    np.subtract(d[1:, :], d[:-1, :], out=vert)
    smooth_v = np.sum(np.multiply(weights.g_v, np.square(vert, out=vert), out=vert))
    return float(data + mu * (smooth_h + smooth_v))


def refine(
    init: InitialDepth, weights: WeightMaps, cfg: RefineConfig, keep_iterates: bool = False
) -> RefineResult:
    """Run K damped-Jacobi iterations and compute the uncertainty map.

    d(0) is the triangulated depth with invalid pixels filled by the median of
    the valid ones (1.0 m if nothing is valid). Pixels with zero diagonal
    (possible only when mu = 0 on an invalid pixel) hold their initialization
    and are assigned sigma_cap. The result keeps every iterate d(0)..d(K) only
    when keep_iterates is set, and just the final map otherwise; the objective
    is recorded for every iterate either way.
    """
    if weights.w.shape != init.depth.shape:
        raise InputError("weights were built for a different map size")
    valid = init.valid
    dbar = np.where(valid, init.depth, 0.0)
    fill = float(np.median(init.depth[valid])) if np.any(valid) else 1.0
    d = np.where(valid, init.depth, fill)

    mu = cfg.mu
    diag_smooth = weights.degree(mu)
    denom = weights.w + diag_smooth
    constrained = denom > 0.0
    safe_denom = np.where(constrained, denom, 1.0)

    # every step below is the same elementwise operation on the same operands
    # as the textbook update, evaluated into reused buffers, so the iterates
    # and the objective do not depend on the buffering
    w_dbar = weights.w * dbar
    step = np.empty_like(d)
    scratch = _scratch(d.shape)
    iterates = [d] if keep_iterates else []
    objective = [objective_value(d, dbar, weights, mu, scratch)]
    for _ in range(cfg.iterations):
        # step = d + omega * (w dbar + mu sum_j g_ij d_j - denom d) / safe_denom
        _neighbor_sum(d, weights, step, scratch)
        np.multiply(step, mu, out=step)
        np.add(w_dbar, step, out=step)
        np.subtract(step, np.multiply(denom, d, out=scratch[0]), out=step)
        np.divide(step, safe_denom, out=step)
        np.multiply(step, cfg.omega, out=step)
        np.add(d, step, out=step)
        d = np.where(constrained, step, d)
        if keep_iterates:
            iterates.append(d)
        objective.append(objective_value(d, dbar, weights, mu, scratch))

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
