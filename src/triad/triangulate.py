"""Per-pixel depth triangulation from dense flow, with confidence scores.

For a keyframe pixel with camera-normalized homogeneous coordinates
m = [x', y', 1] and observations in frames k with rays n_k (the pixel plus
its flow, taken through the inverse intrinsics to [x, y, 1]), unit rays
s_k = n_k / |n_k| and poses (R_k, p_k) taking keyframe coordinates into
frame k, the scalar depth d minimizes

    cost(d) = sum_k || s_k x (R_k m d + p_k) ||^2
            = H d^2 + 2 beta d + gamma,

summed over frame k's terms, which the Lagrange identity
(s x u).(s x v) = u.v - (s.u)(s.v) for a unit ray s turns into dot products:

    H_k     = |R_k m|^2     - (n_k.R_k m)^2         / |n_k|^2
    beta_k  = (R_k m).p_k   - (n_k.R_k m)(n_k.p_k)  / |n_k|^2
    gamma_k = |p_k|^2       - (n_k.p_k)^2           / |n_k|^2

_frame_terms alone forms them, for one frame on a band of rows. The
minimizer of their sum is d = -beta / H; H (the scalar curvature of the
cost) and the residual norm sqrt(cost(d)) become the two confidence channels
of the initial depth map. Pixels with H below h_eps (no baseline) or d
outside (0, d_max] (cheirality violation) are degenerate and must be masked
invalid, never clamped. epipolar_loss reads one frame's terms at the
ground-truth depth g: |s_k x q|^2 with q = R_k m g + p_k, the point in frame k.

Each term subtracts two nearly equal numbers when the baseline is small, so
this form loses a few more digits than the cross products, which the tests
keep as the reference (triangulate_pixel and cross_product_loss in
tests/helpers.py). Stated bounds, checked on the noisy test suite: the
validity mask is identical, depth and sqrt(H) agree to 1e-9 relative and the
residual norm to 1e-9 absolute (measured worst cases 1.3e-12, 6.3e-13 and
8.4e-13). On exact flow the residual norm, zero in exact arithmetic, comes
out below 1e-7. epipolar_loss is within 1e-14 |q|^2 per pixel of the
cross-product loss (measured worst case 6.7e-16 |q|^2 on suite seeds 0-2,
QVGA and VGA, exact and decoded noisy flow), and floored at 0 as the
residual is, since rounding takes a zero cost below it.

Every band is solved and checked in float64, and the three channels are then
stored as float32, the precision of the PFM files they are written to: the
rounding is the one write_pfm applies, so the files are those of float64
maps, and every later stage (weights, refinement, scoring) reads the same
float32 values whether the maps come from this call or from the files.

Per-pixel reductions always run in the given observation order, so results
are bit-identical however the rows are split: triangulate_map walks them in
the bands of workers.row_bands and, with ``workers`` >= 2, runs contiguous
groups of bands on workers.run, one group per thread.

Each observation's flow is a source with ``band(rows)`` (see the flow
module): a FlowField gives views of its rows, and a FlowFile reads and
decodes just those rows of its .flo file. A band pass asks each frame for
its band in input order, bands outer and frames inner, and drops it before
the next frame's, so flow read from files holds one band of one frame per
thread rather than every whole field. Decoding is elementwise, so both kinds
of source give the same bits. Frames outer would read each file once, but
then every band's three float64 sums would be whole maps, 7.4 MB at VGA.

Each call for a row band allocates its three sums and eight band-sized work
buffers (256 KiB each at 32k pixels) once, each from workers.empty so that it
starts on a cache line, and evaluates every frame's terms into them in place
(ufuncs with out=). Every value is rounded from the same operands in the same
order as the formulas in _frame_terms's comments, read left to right, so the
results are bit for bit those of evaluating each formula into fresh arrays.
The steps that read differently are exact rewrites:
  - R m and (R m).p are formed as row term plus column term; IEEE addition
    gives the same bits with its operands swapped.
  - Invalid pixels are handled through their flat indices. Their flow is
    zeroed before the ray is built, and each frame's H, beta and gamma terms
    are zeroed there before they are added. The sums start at +0.0, and under
    round-to-nearest x + y is -0.0 only when both are -0.0, so no sum is ever
    -0.0 and adding +0.0 leaves it as it was.
  - "Any valid observation" is one boolean map; a count would only be
    compared with 1.
  - The solve overwrites the band's sums in place, with beta^2 / H in one
    more buffer from workers.empty, rounds them into the float32 output rows
    and then sets the pixels it could not solve to NaN by index; those NaNs
    are the validity mask that InitialDepth reads.
The buffers belong to the call that allocated them, and each call runs on one
thread, so pool threads share no buffer and write disjoint rows of the output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .flow import FlowField, FlowFile
from .geometry import Intrinsics, RelativePose, normalized_axes
from .workers import empty, pool, row_bands, run, split

DEFAULT_H_EPS = 1e-12
DEFAULT_D_MAX = 100.0


@dataclass(frozen=True)
class TriangulationInput:
    """Keyframe intrinsics plus one (flow source, relative pose) per adjacent frame.

    A flow source is a FlowField or a FlowFile: anything with ``width``,
    ``height`` and ``band(rows)`` giving a FlowField of those rows.
    """

    intrinsics: Intrinsics
    observations: tuple[tuple[FlowField | FlowFile, RelativePose], ...]

    def __post_init__(self):
        object.__setattr__(self, "observations", tuple(self.observations))
        if not self.observations:
            raise InputError("need at least one adjacent frame")
        for source, _ in self.observations:
            if (source.height, source.width) != (self.intrinsics.height, self.intrinsics.width):
                raise InputError(
                    f"flow field is {source.width}x{source.height}, "
                    f"intrinsics expect {self.intrinsics.width}x{self.intrinsics.height}"
                )


@dataclass(frozen=True)
class InitialDepth:
    """Triangulated depth with its two confidence channels; ``valid`` is where depth is not NaN.

    conf_h is the square root of the per-pixel cost curvature (large when the
    baseline-to-depth ratio conditions the problem well); conf_r is the norm
    of the residual at the minimizer (large when the observations disagree).
    A pixel is invalid exactly where depth is NaN, and the confidences must
    be NaN there too. The channels are float32, as triangulate_map stores
    them and as ``triad refine`` reads them from PFM files; weights,
    refinement and scoring widen them exactly.
    """

    depth: np.ndarray
    conf_h: np.ndarray
    conf_r: np.ndarray
    valid: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        shape = self.depth.shape
        for name in ("conf_h", "conf_r"):
            if getattr(self, name).shape != shape:
                raise InputError(f"{name} shape {getattr(self, name).shape} != depth shape {shape}")
        invalid = np.isnan(self.depth)
        v = ~invalid
        object.__setattr__(self, "valid", v)
        for name in ("depth", "conf_h", "conf_r"):
            channel = getattr(self, name)
            # NaN exactly on the invalid pixels and no infinity anywhere means
            # finite on valid pixels and NaN on invalid ones
            if np.array_equal(np.isnan(channel), invalid) and not np.isinf(channel).any():
                continue
            if np.any(v & ~np.isfinite(channel)):
                raise InputError(f"{name} must be finite on valid pixels")
            raise InputError(f"{name} must be NaN on invalid pixels")
        # NaN compares false, so whole-map tests see only the valid pixels
        if np.any(self.depth <= 0) or np.any(self.conf_h <= 0) or np.any(self.conf_r < 0):
            raise InputError("valid pixels need depth > 0, conf_h > 0, conf_r >= 0")


def check_limits(h_eps: float, d_max: float) -> None:
    """Raise InputError unless h_eps is finite and nonnegative and d_max positive and finite."""
    if not (math.isfinite(h_eps) and h_eps >= 0.0):
        raise InputError("h_eps must be a finite nonnegative number")
    if not (0.0 < d_max < math.inf):
        raise InputError("d_max must be positive and finite")


def _frame_terms(band: FlowField, pose: RelativePose, k: Intrinsics, xm, ym, rows: slice, buffers):
    """One frame's H_k, beta_k and gamma_k on a band of rows, and the band's invalid flat indices.

    ``band`` is the frame's flow on those rows only (a flow source's
    ``band(rows)``). ``xm`` and ``ym`` are m's x' by column and y' by row
    (normalized_axes). The terms are written into three of the eight
    band-shaped float64 ``buffers`` and returned. A float32 field is widened
    exactly as it is copied in, and invalid pixels get the ray of zero flow,
    so every term is finite; it is the caller's to drop them.
    """
    ym = ym[rows, None]
    # nx, ny: ray; inv: 1/|n|^2; rm: one component of R m at a time, then
    # (R m).p; n_rm: n.R m, then gamma_k; rm_sq: |R m|^2, then H_k; n_p: n.p;
    # t: the product in hand, then beta_k
    nx, ny, inv, rm, n_rm, rm_sq, n_p, t = buffers
    bad = np.flatnonzero(~band.valid)
    # the ray: n = (flow + pixel - c) / f per axis, with zero flow where invalid
    columns = np.arange(k.width, dtype=np.float64)
    band_rows = np.arange(k.height, dtype=np.float64)[rows, None]
    for axis, n, pixel, c, f in ((0, nx, columns, k.cx, k.fx), (1, ny, band_rows, k.cy, k.fy)):
        np.copyto(n, band.vectors[:, :, axis])
        n.reshape(-1)[bad] = 0.0
        n += pixel
        n -= c
        n /= f
    r, p = pose.rotation, pose.translation
    # inv = 1 / (nx nx + ny ny + 1)
    np.multiply(nx, nx, out=inv)
    np.multiply(ny, ny, out=t)
    inv += t
    inv += 1.0
    np.divide(1.0, inv, out=inv)
    # R m and (R m).p = m.(R^T p) are sums of a column term and a row term;
    # n_rm = nx rm0 + ny rm1 + rm2 and rm_sq = rm0 rm0 + rm1 rm1 + rm2 rm2
    np.copyto(rm, r[0, 1] * ym)
    rm += r[0, 0] * xm + r[0, 2]
    np.multiply(nx, rm, out=n_rm)
    np.multiply(rm, rm, out=rm_sq)
    np.copyto(rm, r[1, 1] * ym)
    rm += r[1, 0] * xm + r[1, 2]
    np.multiply(ny, rm, out=t)
    n_rm += t
    np.multiply(rm, rm, out=t)
    rm_sq += t
    np.copyto(rm, r[2, 1] * ym)
    rm += r[2, 0] * xm + r[2, 2]
    n_rm += rm
    np.multiply(rm, rm, out=t)
    rm_sq += t
    # n_p = nx p0 + ny p1 + p2
    np.multiply(nx, p[0], out=n_p)
    np.multiply(ny, p[1], out=t)
    n_p += t
    n_p += p[2]
    # H_k = rm_sq - n_rm n_rm inv
    np.multiply(n_rm, n_rm, out=t)
    t *= inv
    np.subtract(rm_sq, t, out=rm_sq)
    # beta_k = (R m).p - n_rm n_p inv
    c = r.T @ p
    np.copyto(rm, c[1] * ym)
    rm += c[0] * xm + c[2]
    np.multiply(n_rm, n_p, out=t)
    t *= inv
    np.subtract(rm, t, out=t)
    # gamma_k = p.p - n_p n_p inv
    np.multiply(n_p, n_p, out=n_rm)
    n_rm *= inv
    np.subtract(p @ p, n_rm, out=n_rm)
    return rm_sq, t, n_rm, bad


def _accumulate_rows(inp: TriangulationInput, xm: np.ndarray, ym: np.ndarray, rows: slice):
    """H, beta, gamma on a band of rows (_frame_terms summed in input order) and where any is valid.

    Each observation's flow source gives its band once, and the band is
    dropped before the next frame's is read.
    """
    shape = (ym[rows].shape[0], xm.shape[0])
    h_acc, beta, gamma = (empty(shape) for _ in range(3))
    for acc in (h_acc, beta, gamma):
        acc.fill(0.0)
    any_obs = np.zeros(shape, dtype=bool)
    buffers = [empty(shape) for _ in range(8)]
    for source, pose in inp.observations:
        band = source.band(rows)
        *terms, bad = _frame_terms(band, pose, inp.intrinsics, xm, ym, rows, buffers)
        # zeroed where invalid, then added everywhere (exact: see the module docstring)
        for acc, term in zip((h_acc, beta, gamma), terms):
            term.reshape(-1)[bad] = 0.0
            acc += term
        any_obs |= band.valid
        del band
    return h_acc, beta, gamma, any_obs


def triangulate_map(
    inp: TriangulationInput,
    h_eps: float = DEFAULT_H_EPS,
    d_max: float = DEFAULT_D_MAX,
    workers: int = 1,
) -> InitialDepth:
    """Triangulate every keyframe pixel from all usable observations.

    Observations with invalid flow are dropped per pixel; pixels with no
    usable observation or a degenerate solve come back invalid (NaN), never
    clamped. Validity is decided on the float64 solve, and the channels are
    returned rounded to float32. The per-pixel math is identical in every
    row band, so output is bit-identical for any worker count; ``workers``
    >= 2 runs the row bands on at most that many threads, the calling thread
    included, and never on more threads than there are bands. h_eps must be
    finite and nonnegative and d_max positive and finite (see check_limits).
    """
    check_limits(h_eps, d_max)
    h, w = inp.intrinsics.height, inp.intrinsics.width
    xm, ym = normalized_axes(inp.intrinsics)
    depth = np.empty((h, w), dtype=np.float32)
    conf_h = np.empty((h, w), dtype=np.float32)
    conf_r = np.empty((h, w), dtype=np.float32)

    def solve(rows):
        h_acc, beta, gamma, ok = _accumulate_rows(inp, xm, ym, rows)
        ok &= h_acc >= h_eps
        # safe_h: 1 where there is nothing to solve
        h_acc.reshape(-1)[np.flatnonzero(~ok)] = 1.0
        # residual: sqrt(max(0, gamma - beta beta / safe_h))
        beta_sq = np.multiply(beta, beta, out=empty(beta.shape))
        beta_sq /= h_acc
        np.subtract(gamma, beta_sq, out=gamma)
        np.maximum(0.0, gamma, out=gamma)
        np.sqrt(gamma, out=gamma)
        # depth: -beta / safe_h, checked against (0, d_max] before it is rounded
        np.negative(beta, out=beta)
        np.divide(beta, h_acc, out=beta)
        np.sqrt(h_acc, out=h_acc)
        ok &= beta > 0.0
        ok &= beta <= d_max
        unsolved = np.flatnonzero(~ok)
        for channel, band in ((depth, beta), (conf_h, h_acc), (conf_r, gamma)):
            channel[rows] = band  # rounded to float32 as write_pfm rounds
            channel[rows].reshape(-1)[unsolved] = np.nan

    # Bands are disjoint rows of the outputs, so the threads share no element.
    groups = split(row_bands(h, w), workers)
    with pool(len(groups), "triangulate") as executor:
        run(executor, [lambda group=group: [solve(rows) for rows in group] for group in groups])
    return InitialDepth(depth=depth, conf_h=conf_h, conf_r=conf_r)


def epipolar_loss(
    flow_field: FlowField,
    pose: RelativePose,
    gt_depth: np.ndarray,
    k: Intrinsics,
) -> tuple[float, np.ndarray]:
    """Flow-quality loss: residual of the true depth under the observed rays.

    Substituting ground-truth depth into the per-pixel cost measures the flow
    error in every direction, including the component perpendicular to the
    epipolar line that depth alone cannot see: H_k g^2 + 2 beta_k g + gamma_k
    at the ground truth g, floored at 0. Returns the sum over valid pixels
    (fixed row-major order) and the per-pixel map, NaN where the flow is
    invalid or the ground truth is not finite.
    """
    inp = TriangulationInput(k, ((flow_field, pose),))
    gt = np.asarray(gt_depth, dtype=np.float64)
    if gt.shape != (k.height, k.width):
        raise InputError(f"gt depth shape {gt.shape} != image size {(k.height, k.width)}")
    valid = flow_field.valid & np.isfinite(gt)
    xm, ym = normalized_axes(k)
    per_pixel = np.empty(gt.shape)
    for rows in row_bands(k.height, k.width):
        # one frame's sums are its terms, 0 where its flow is invalid
        h_k, beta_k, gamma_k, _ = _accumulate_rows(inp, xm, ym, rows)
        g = np.where(valid[rows], gt[rows], 0.0)
        loss = np.maximum(0.0, (h_k * g + 2.0 * beta_k) * g + gamma_k, out=per_pixel[rows])
        loss[~valid[rows]] = 0.0  # until the total is taken
    total = float(np.sum(per_pixel))
    per_pixel[~valid] = np.nan
    return total, per_pixel
