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

The step is written in flux form. Every edge from pixel i to its right or
lower neighbour j carries the flux f = mu g_ij (d_j - d_i), and

    d_new = d + omega / denom * (w (dbar - d) + sum_j mu g_ij (d_j - d_i))

where the sum adds the fluxes of i's edges to the right and below and
subtracts those of its edges from the left and above, and
denom = w + mu * sum_j g_ij is the diagonal of the normal equations. The
same quantities give the objective: C(d) = sum w (dbar - d)^2 + sum f (d_j - d_i).

The maps are handled as flat row-major arrays, with mu g for horizontal edges
padded to the full map by a zero-weight last column, so every operation of an
iteration is a contiguous 1-D pass over one of the row bands of
workers.row_bands. One pass per band computes the band's rows of the next
iterate (recomputing the fluxes on the edges into it from the row above) and
the band's share of C for the current iterate; the three partial sums of each
band come from np.einsum (no BLAS, so no dependence on the thread count) and
are added over the bands in band order. C(d) therefore depends on the band
split, which depends only on the map size. Without a step map the same pass
gives C(d) alone, as the tests' objective_value evaluates it.

With ``workers`` >= 2, refine splits the bands of every pass into at most that
many contiguous groups, each with its own band buffers, and runs them on
workers.run, one group per thread. Groups read the current iterate and write
disjoint rows of the next, and their shares of C come back in band order, so
every iterate, C(d) and sigma are the same for any worker count.

Every array a pass writes (d, dbar, the spare map and the band buffers) comes
from workers.empty and so starts on a cache line; with np.empty's 16-byte
alignment the same passes ran at a speed set by where the process's heap put
them. Milliseconds for 40 VGA iterations by
workers.BAND_PIXELS, medians of 40 interleaved calls in each of two
processes, 2-vCPU host with 2 MiB of L2 per core (lscpu: "L2 cache: 4 MiB
(2 instances)"):

    band pixels      8k       16k      32k      64k
    1 worker      124-133  102-110  106-121  128-135
    2 workers     197-205  143-155   91-96    88-95

32k bands are the smallest that gain from a second thread; one thread still
pays 4-10 % for them over 16k ones, so alignment is not what costs it. A
step pass touches 11 float64 values per pixel (d, dbar, w, mu g_h, mu g_v,
the step, the next iterate and four band buffers): 1.4 MiB for a 16k band,
which fits one core's L2, and 2.8 MiB for a 32k one, which does not. The
same table with 16-byte-aligned buffers, on the same host and 20 calls per
cell, read 146-160 (16k) and 155-172 ms (32k) on one worker and 154-174 and
109-122 ms on two. Only the last digits of C(d) depend on the
band size: 8k to 64k bands give bit-identical iterates and objective values
within 5.8e-16 relative of each other over 40 VGA iterations.

Pixels with denom = 0 need no special case. There w = 0 and
sum_j mu g_ij = 0, a sum of nonnegative terms, so every incident mu g_ij is 0
too, even where mu g underflowed. Their residual is then a sum of zero
products of finite numbers, a signed zero, and d + 0 == d holds them exactly.

Against the plain full-map update (the reference in the tests) the flux form
reorders the rounding, so iterates and C(d) agree within 1e-12 relative
(measured: 9.0e-16 and 4.6e-16 on the 640x480 suite map of seed 0 over 40
iterations), not bit for bit.

The per-pixel uncertainty is the inverse square root of the objective's
diagonal curvature, scaled by beta and floored at sigma_min: exactly the
pixels the data and smoothness terms constrain weakly get a wide scale.

Memory. The initial maps are float32, as triangulate_map stores them and
``triad refine`` reads them from PFM files; build_weights squares them in
float64 and refine copies the depth into float64 d(0) and dbar, so they give
the bytes of their float64 widening, and ``triad estimate`` refines exactly
what ``triad refine`` does. refine takes the depth map alone, so ``triad
refine`` drops the two confidence maps once build_weights has read them.
build_weights returns the weights in the form the iterations read them: w,
mu g_h padded and mu g_v, with no unscaled edge map kept past its return.
refine adds the step, then d, dbar, the spare map and four band buffers per
group. Sigma reads the diagonal the step is made from, but no pass reads
sigma, so after the last pass refine recomputes the diagonal into the step's
map (the same operations in the same order, so the same bits) and takes
sigma there. The iterations then hold those seven float64 maps (the depth
and the buffers aside), 20.5 MB traced at the peak of a 40-iteration VGA
``triad refine`` with two workers. Sigma and the confidence maps held
through the passes took 25.7 MB; float64 initial maps, edge maps kept
unscaled next to their scaled copies and six buffers per group 35.3 MB.
Inside a VGA ``triad estimate`` with two workers, which keeps the confidence
maps to write them, the refinement stage peaks at 23.2 MB (25.7 MB with
sigma held through the passes, 29.4 MB with float64 initial maps).
Recomputing the diagonal costs about 1.3 ms per VGA call, whatever the
iteration count (2-vCPU host).

The pass stays float64. With float32 iterates and operands, and einsum
still accumulating the band shares in float64, C rose between iterations by
up to 3.5e-10, 4.8e-10 and 5.2e-10 relative over 200 iterations on the
320x240 suite maps of seeds 0-2 (the float64 pass: at most 1.1e-15), which
breaks the 1e-12 descent bound the tests hold C to. Storing float32 and
widening each band's operands into float64 buffers saves no time: 40 VGA
iterations with two workers took a median 136 ms against 99 ms for the
float64 pass (15 alternating runs, 2-vCPU host).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from concurrent.futures import Executor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import InputError
from .triangulate import InitialDepth
from .workers import empty, pool, row_bands, run, split

WEIGHT_MODES = ("full", "hessian_only", "residual_only", "constant")


@dataclass(frozen=True)
class RefineConfig:
    """Iteration count, smoothness and weighting knobs, uncertainty calibration.

    build_weights reads mu, kappa, tau, w_max and weight_mode; refine reads
    iterations, omega, beta, sigma_min and sigma_cap.
    """

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
        for name in ("mu", "kappa", "omega", "tau", "w_max", "sigma_min", "beta", "sigma_cap"):
            if not math.isfinite(getattr(self, name)):
                raise InputError(f"{name} must be finite")
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
    """Data weights per pixel and mu-scaled smoothness weights per 4-neighbor edge.

    mu_gh[y, x] weights the edge between (y, x) and (y, x+1); its last
    column is the edge from a row's end to the next row's start, which
    weighs 0, so mu_gh flattens to one weight per pixel, as the band pass
    reads it. mu_gv[y, x] weights the edge between (y, x) and (y+1, x). One
    value per undirected edge keeps the weights symmetric by construction.
    All three maps must be finite and nonnegative.
    """

    w: np.ndarray  # (H, W), exactly 0 on invalid pixels
    mu_gh: np.ndarray  # (H, W), last column 0
    mu_gv: np.ndarray  # (H-1, W)

    def __post_init__(self):
        h, w = self.w.shape
        if self.mu_gh.shape != (h, w) or self.mu_gv.shape != (h - 1, w):
            raise InputError("edge weight shapes must match the pixel grid")
        for name in ("w", "mu_gh", "mu_gv"):
            weights = getattr(self, name)
            # NaN fails both comparisons
            if not (np.all(weights >= 0) and np.all(weights < np.inf)):
                raise InputError(f"{name} must be finite and nonnegative")
        if np.any(self.mu_gh[:, -1:]):
            raise InputError("the last column of mu_gh must be 0")


@dataclass(frozen=True)
class RefineResult:
    """The final depth d(K), the uncertainty map, and objective values C(d(0))..C(d(K))."""

    depth: np.ndarray
    uncertainty: np.ndarray
    objective: tuple[float, ...]


def build_weights(init: InitialDepth, intensity: np.ndarray, cfg: RefineConfig) -> WeightMaps:
    """Map triangulation confidence to data weights and intensity to edge weights.

    The full mode uses w = H / (c_r^2 + tau^2): the curvature H is the inverse
    variance of the triangulated depth under unit correspondence noise, and
    the observed residual deflates it. The ablation modes drop one or both
    ingredients (hessian_only, residual_only, constant). All modes clip at
    w_max and force w = 0 on invalid pixels, where both confidences are NaN.
    Edge weights are g = exp(-|dI| / kappa), weaker across intensity edges,
    returned scaled by mu.
    """
    intensity = np.asarray(intensity, dtype=np.float64)
    if intensity.shape != init.depth.shape:
        raise InputError("intensity shape must match the depth map")
    shape = intensity.shape
    tau_sq = cfg.tau * cfg.tau
    # squared in float64, so float32 maps give the bytes of their float64
    # widening; each mode then computes in place what its formula rounds
    w = empty(shape)
    if cfg.weight_mode == "full":
        np.square(init.conf_h, out=w, dtype=np.float64)
        res_sq = np.square(init.conf_r, out=empty(shape), dtype=np.float64)
        res_sq += tau_sq
        w /= res_sq
        del res_sq
    elif cfg.weight_mode == "hessian_only":
        np.square(init.conf_h, out=w, dtype=np.float64)
        w /= tau_sq
    elif cfg.weight_mode == "residual_only":
        np.square(init.conf_r, out=w, dtype=np.float64)
        w += tau_sq
        np.divide(1.0, w, out=w)
    else:  # constant
        w.fill(1.0)
    np.minimum(w, cfg.w_max, out=w)
    w.reshape(-1)[np.flatnonzero(~init.valid)] = 0.0
    # g = exp(|dI| / -kappa), as exact as exp(-|dI| / kappa), built in place
    # in the differences (np.diff) and then scaled by mu
    g_h, mu_gv = [
        np.subtract(ahead, behind, out=empty(ahead.shape))
        for ahead, behind in ((intensity[:, 1:], intensity[:, :-1]), (intensity[1:], intensity[:-1]))
    ]
    for g in (g_h, mu_gv):
        np.abs(g, out=g)
        np.divide(g, -cfg.kappa, out=g)
        np.exp(g, out=g)
    mu_gh = empty(shape)
    np.multiply(g_h, cfg.mu, out=mu_gh[:, :-1])
    del g_h
    mu_gh[:, -1] = 0.0
    mu_gv *= cfg.mu
    return WeightMaps(w=w, mu_gh=mu_gh, mu_gv=mu_gv)


class _BandPass:
    """C(d) and, when given a step map, the damped-Jacobi step from d, one row band at a time.

    The weight maps and the step are read flat. The bands of
    workers.row_bands are split into ``workers`` contiguous groups (fewer
    when there are fewer bands), each with its own four band buffers, sized
    once for the widest band and each starting on a cache line
    (workers.empty).
    """

    def __init__(self, dbar: np.ndarray, weights: WeightMaps, step: np.ndarray | None = None, workers: int = 1):
        height, width = dbar.shape
        self.width = width
        self.dbar = np.ravel(dbar)
        self.w, self.mu_gh, self.mu_gv = np.ravel(weights.w), np.ravel(weights.mu_gh), np.ravel(weights.mu_gv)
        self.step = None if step is None else np.ravel(step)
        bands = [(rows.start * width, rows.stop * width) for rows in row_bands(height, width)]
        self.groups = split(bands, workers)
        size = max((p1 - p0 for p0, p1 in bands), default=0) + width
        self.buffers = [[empty(size) for _ in range(4)] for _ in self.groups]

    def __call__(self, d: np.ndarray, nxt: np.ndarray | None = None, executor: Executor | None = None) -> float:
        """C(d); with ``nxt``, also write the Jacobi step from d into it.

        The groups run on workers.run with ``executor`` (needed only when
        there is more than one group). Groups read d and write disjoint pixels
        of nxt, and the bands' shares of C are added in band order, so C does
        not depend on how the bands are grouped.
        """
        d = np.ravel(d)
        out = None if nxt is None else nxt.reshape(-1)
        data = horiz = vert = 0.0
        for shares in run(executor, [partial(self._group, d, out, g) for g in range(len(self.groups))]):
            for a, b, c in shares:
                data += a
                horiz += b
                vert += c
        return float(data + (horiz + vert))

    def _group(self, d, out, g: int) -> list:
        """The shares of C(d) of group g's bands, in band order, using group g's buffers."""
        return [self._band(d, out, p0, p1, self.buffers[g]) for p0, p1 in self.groups[g]]

    def _band(self, d, out, p0: int, p1: int, buffers: list):
        """The data, horizontal and vertical shares of C(d) owned by pixels [p0, p1).

        A pixel owns its data term and its edges to the right and below. With
        ``out``, the step for those pixels is written into it as well. The
        edge shares come first, so the data term's r and w r reuse the
        buffers of the differences dh and dv, which only those shares read.
        """
        width, n = self.width, p1 - p0
        dh, fh, dv, fv = buffers
        # horizontal edges p0 .. p1 - 1; the last one ends a row and weighs 0
        dh, fh = dh[:n], fh[:n]
        np.subtract(d[p0 + 1 : p1], d[p0 : p1 - 1], out=dh[:-1])
        dh[-1] = 0.0
        np.multiply(self.mu_gh[p0:p1], dh, out=fh)
        horiz = np.einsum("i,i->", fh, dh)
        # vertical edges from the row above the band to its last row with a row below
        e0, e1 = max(p0 - width, 0), min(p1, len(d) - width)
        dv, fv = dv[: e1 - e0], fv[: e1 - e0]
        np.subtract(d[e0 + width : e1 + width], d[e0:e1], out=dv)
        np.multiply(self.mu_gv[e0:e1], dv, out=fv)
        own = p0 - e0  # the band's own vertical edges start here
        vert = np.einsum("i,i->", fv[own:], dv[own:])
        r, acc = buffers[0][:n], buffers[2][:n]
        np.subtract(self.dbar[p0:p1], d[p0:p1], out=r)
        np.multiply(self.w[p0:p1], r, out=acc)
        data = np.einsum("i,i->", acc, r)
        if out is not None:
            # w (dbar - d) + the fluxes of the edges to the right and below
            # - those of the edges from the left and above
            acc += fh
            acc[1:] -= fh[:-1]
            acc[: len(fv) - own] += fv[own:]
            top = max(width - p0, 0)  # the map's first row has no edge above
            acc[top:] -= fv[: n - top]
            np.multiply(acc, self.step[p0:p1], out=acc)
            np.add(d[p0:p1], acc, out=out[p0:p1])
        return data, horiz, vert


def _median(values: np.ndarray) -> float:
    """np.median of finite values, partitioning ``values`` in place.

    For an even count it is the mean of the two middle values, (lower +
    upper) / 2, which is exactly what np.median computes. The two are added
    as Python floats, so float32 values give the median of their float64
    widening.
    """
    mid = values.size // 2
    values.partition(mid)
    upper = float(values[mid])
    if values.size % 2:
        return upper
    return (float(values[:mid].max()) + upper) / 2


def _diagonal(weights: WeightMaps, out: np.ndarray) -> np.ndarray:
    """Write the safe diagonal of the normal equations into ``out``; return where it was not positive.

    The diagonal is w + the sum of each pixel's incident mu g; where it is
    not positive it is replaced by 1. Every call makes the same operations
    in the same order, so it gives the same bits each time.
    """
    np.copyto(out, weights.mu_gh)
    out[:, 1:] += weights.mu_gh[:, :-1]
    out[:-1] += weights.mu_gv
    out[1:] += weights.mu_gv
    np.add(weights.w, out, out=out)
    unconstrained = ~(out > 0.0)
    np.copyto(out, 1.0, where=unconstrained)
    return unconstrained


def _read_only(d: np.ndarray) -> np.ndarray:
    """A view of d that refuses writes."""
    view = d.view()
    view.flags.writeable = False
    return view


def refine(
    depth: np.ndarray,
    weights: WeightMaps,
    cfg: RefineConfig,
    workers: int = 1,
    on_iterate: Callable[[int, np.ndarray], object] | None = None,
) -> RefineResult:
    """Run K damped-Jacobi iterations on a triangulated depth map and compute the uncertainty map.

    ``depth`` is the triangulated map at any float precision (float32 widens
    exactly), with NaN on invalid pixels, the rule InitialDepth.valid reads;
    it must have the weights' shape and no infinite value. ``weights``
    carries mu (build_weights scales the edge maps by cfg.mu), so refine
    reads only the iteration count, omega and the uncertainty fields of cfg.

    d(0) is the triangulated depth with invalid pixels filled by the median of
    the valid ones (1.0 m if nothing is valid). Pixels with zero diagonal
    (no data weight and, with mu = 0 or no neighbour, no smoothness weight)
    hold their initialization and are assigned sigma_cap. The iterations hold
    only the step of the diagonal; sigma is taken after the last objective
    pass, from the diagonal recomputed into the step's map. The iterates
    alternate between two maps and only d(K) is returned, with C of every
    iterate. ``on_iterate(k, d)``, when given, sees a read-only view of each
    d(k), k = 0..K, on the calling thread before its map is reused; a caller
    that needs d(k) later copies it there. ``workers`` >= 2 splits every
    pass's row bands across that many threads (at most one per band), from a
    pool that is joined before refine returns; the result is the same for
    any worker count.
    """
    if depth.shape != weights.w.shape:
        raise InputError("weights were built for a different map size")
    valid = ~np.isnan(depth)
    gathered = depth[valid]
    if np.isinf(gathered).any():
        raise InputError("depth must be finite or NaN")
    fill = _median(gathered) if gathered.size else 1.0
    del gathered
    # float64 maps whatever the depth's precision; float32 widens exactly
    d, dbar = empty(valid.shape), empty(valid.shape)
    d.fill(fill)
    np.copyto(d, depth, where=valid)
    dbar.fill(0.0)
    np.copyto(dbar, depth, where=valid)
    del valid
    step = empty(d.shape)
    _diagonal(weights, step)
    np.divide(cfg.omega, step, out=step)
    band_pass = _BandPass(dbar, weights, step, workers)

    spare = empty(d.shape)
    objective = []
    with pool(len(band_pass.groups), "refine") as executor:
        for k in range(cfg.iterations):
            if on_iterate is not None:
                on_iterate(k, _read_only(d))
            objective.append(band_pass(d, spare, executor))
            d, spare = spare, d
        if on_iterate is not None:
            on_iterate(cfg.iterations, _read_only(d))
        objective.append(band_pass(d, executor=executor))
    # what only the passes read goes before sigma's mask is made, so it adds
    # nothing to the peak; sigma = beta / sqrt(diagonal), floored, takes the step's map
    del band_pass, dbar, spare
    sigma = step
    unconstrained = _diagonal(weights, sigma)
    np.sqrt(sigma, out=sigma)
    np.divide(cfg.beta, sigma, out=sigma)
    np.maximum(cfg.sigma_min, sigma, out=sigma)
    np.copyto(sigma, cfg.sigma_cap, where=unconstrained)
    return RefineResult(d, sigma, tuple(objective))


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
    lam = 0.83 with K implied by the number of maps provided. Every map is
    gathered on the valid pixels before anything is computed, so values
    elsewhere are never read; there sigma must be finite and positive and
    the depth finite.
    """
    depths, sigmas = [np.asarray(d) for d in depths], [np.asarray(s) for s in sigmas]
    if len(depths) != len(sigmas) or not depths:
        raise InputError("need the same (nonzero) number of depth and sigma maps")
    gt = np.asarray(gt, dtype=np.float64)
    mask = np.isfinite(gt) if valid is None else (np.asarray(valid, dtype=bool) & np.isfinite(gt))
    g = gt[mask]
    last_k = len(depths) - 1
    total = 0.0
    for k, (d, s) in enumerate(zip(depths, sigmas)):
        if d.shape != gt.shape or s.shape != gt.shape:
            raise InputError("all maps must share the ground-truth shape")
        d, s = d[mask].astype(np.float64, copy=False), s[mask].astype(np.float64, copy=False)
        if not (np.all(s > 0) and np.all(s < np.inf)):  # NaN fails both
            raise InputError("sigma must be finite and positive on valid pixels")
        if not np.all(np.isfinite(d)):
            raise InputError("depth must be finite on valid pixels")
        total += lam ** (last_k - k) * float(np.sum(np.abs(d - g) / s + np.log(s)))
    return total
