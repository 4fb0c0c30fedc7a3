"""Per-pixel depth triangulation from dense flow, with confidence scores.

For a keyframe pixel with camera-normalized homogeneous coordinates
m = [x', y', 1] and observations in frames k with rays n_k (the pixel plus
its flow, taken through the inverse intrinsics to [x, y, 1]), unit rays
s_k = n_k / |n_k| and poses (R_k, p_k) taking keyframe coordinates into
frame k, the scalar depth d minimizes

    cost(d) = sum_k || s_k x (R_k m d + p_k) ||^2
            = H d^2 + 2 beta d + gamma

with a_k = s_k x (R_k m), b_k = s_k x p_k, H = sum a_k.a_k,
beta = sum a_k.b_k, gamma = sum b_k.b_k. The closed-form minimizer is
d = -beta / H; H (the scalar curvature of the cost) and the residual norm
sqrt(cost(d)) become the two confidence channels of the initial depth map.

triangulate_map evaluates the coefficients without cross products. For a unit
ray s the Lagrange identity (s x u).(s x v) = u.v - (s.u)(s.v) gives

    H     = sum_k |R_k m|^2     - (n_k.R_k m)^2         / |n_k|^2
    beta  = sum_k (R_k m).p_k   - (n_k.R_k m)(n_k.p_k)  / |n_k|^2
    gamma = sum_k |p_k|^2       - (n_k.p_k)^2           / |n_k|^2

Each term subtracts two nearly equal numbers when the baseline is small, so
this form loses a few more digits than the cross products, which
triangulate_pixel keeps as the reference. Stated bound, checked on the noisy
test suite: the validity mask is identical, depth and sqrt(H) agree to 1e-9
relative and the residual norm to 1e-9 absolute (measured worst cases 1.3e-12,
6.3e-13 and 8.4e-13). On exact flow the residual norm, zero in exact
arithmetic, comes out below 1e-7.

Pixels with H below h_eps (no baseline) or a minimizer outside (0, d_max]
(cheirality violation) are degenerate and must be masked invalid, never
clamped. Per-pixel reductions always run in the given observation order, so
results are bit-identical however the pixels are partitioned across workers.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .flow import FlowField
from .geometry import Intrinsics, RelativePose, normalized_grid

DEFAULT_H_EPS = 1e-12
DEFAULT_D_MAX = 100.0
# Rows are processed in bands of about this many pixels, so that a band's
# per-frame temporaries (0.5 MB each) stay in cache.
BAND_PIXELS = 1 << 16


@dataclass(frozen=True)
class TriangulationInput:
    """Keyframe intrinsics plus one (flow field, relative pose) per adjacent frame."""

    intrinsics: Intrinsics
    observations: tuple[tuple[FlowField, RelativePose], ...]

    def __post_init__(self):
        object.__setattr__(self, "observations", tuple(self.observations))
        if not self.observations:
            raise InputError("need at least one adjacent frame")
        for flow_field, _ in self.observations:
            if (flow_field.height, flow_field.width) != (self.intrinsics.height, self.intrinsics.width):
                raise InputError(
                    f"flow field is {flow_field.width}x{flow_field.height}, "
                    f"intrinsics expect {self.intrinsics.width}x{self.intrinsics.height}"
                )


@dataclass(frozen=True)
class InitialDepth:
    """Triangulated depth with its two confidence channels and validity mask.

    conf_h is the square root of the per-pixel cost curvature (large when the
    baseline-to-depth ratio conditions the problem well); conf_r is the norm
    of the residual at the minimizer (large when the observations disagree).
    Invalid pixels are NaN in all three channels.
    """

    depth: np.ndarray
    conf_h: np.ndarray
    conf_r: np.ndarray
    valid: np.ndarray

    def __post_init__(self):
        shape = self.depth.shape
        for name in ("conf_h", "conf_r", "valid"):
            if getattr(self, name).shape != shape:
                raise InputError(f"{name} shape {getattr(self, name).shape} != depth shape {shape}")
        v = self.valid
        invalid = ~v
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


def triangulate_pixel(
    m,
    observations,
    h_eps: float = DEFAULT_H_EPS,
    d_max: float = DEFAULT_D_MAX,
):
    """Solve the scalar least squares for one pixel.

    ``m`` is the keyframe direction as [x', y', 1] (camera-normalized, z = 1,
    so the recovered depth is the +z coordinate); ``observations`` is a
    sequence of (ray, pose) pairs whose rays are unit-normalized internally.
    Returns (depth, hessian, residual), or None when the pixel is degenerate
    (no baseline, or the minimizer violates cheirality / exceeds d_max).
    """
    m = np.asarray(getattr(m, "direction", m), dtype=np.float64)
    if not observations:
        raise InputError("need at least one observation")
    h_acc = 0.0
    beta = 0.0
    gamma = 0.0
    for ray, pose in observations:
        s = np.asarray(getattr(ray, "direction", ray), dtype=np.float64)
        s = s / np.linalg.norm(s)
        a = np.cross(s, pose.rotation @ m)
        b = np.cross(s, pose.translation)
        h_acc += float(a @ a)
        beta += float(a @ b)
        gamma += float(b @ b)
    if h_acc < h_eps:
        return None
    depth = -beta / h_acc
    if not (0.0 < depth <= d_max):
        return None
    residual = np.sqrt(max(0.0, gamma - beta * beta / h_acc))
    return depth, h_acc, residual


def _observation_rays(flow_field: FlowField, k: Intrinsics, rows: slice):
    """Unnormalized observation rays [x, y, 1] of a band of rows: pixel plus flow, through K^-1.

    Returns the x and y components; pixels with invalid flow get the ray of
    zero flow, so every value is finite.
    """
    valid = flow_field.valid[rows]
    x = np.where(valid, flow_field.vectors[rows, :, 0], 0.0)
    x += np.arange(k.width, dtype=np.float64)[None, :]
    x -= k.cx
    x /= k.fx
    y = np.where(valid, flow_field.vectors[rows, :, 1], 0.0)
    y += np.arange(k.height, dtype=np.float64)[rows, None]
    y -= k.cy
    y /= k.fy
    return x, y


def _accumulate_rows(inp: TriangulationInput, xm: np.ndarray, ym: np.ndarray, rows: slice):
    """Per-pixel cost coefficients for a band of rows, frames in input order.

    ``xm`` and ``ym`` are the keyframe's normalized column and row
    coordinates. The terms use the dot-product form of the module docstring.
    """
    ym = ym[rows, None]
    shape = (ym.shape[0], xm.shape[0])
    h_acc = np.zeros(shape)
    beta = np.zeros(shape)
    gamma = np.zeros(shape)
    n_obs = np.zeros(shape, dtype=np.int64)
    for flow_field, pose in inp.observations:
        valid = flow_field.valid[rows]
        nx, ny = _observation_rays(flow_field, inp.intrinsics, rows)
        r, p = pose.rotation, pose.translation
        # R m and (R m).p = m.(R^T p) are sums of a column term and a row term
        rm0, rm1, rm2 = (r[i, 0] * xm + r[i, 2] + r[i, 1] * ym for i in range(3))
        c = r.T @ p
        rm_p = c[0] * xm + c[2] + c[1] * ym
        rm_sq = rm0 * rm0 + rm1 * rm1 + rm2 * rm2
        inv_n_sq = 1.0 / (nx * nx + ny * ny + 1.0)
        n_rm = nx * rm0 + ny * rm1 + rm2
        n_p = nx * p[0] + ny * p[1] + p[2]
        np.add(h_acc, rm_sq - n_rm * n_rm * inv_n_sq, out=h_acc, where=valid)
        np.add(beta, rm_p - n_rm * n_p * inv_n_sq, out=beta, where=valid)
        np.add(gamma, p @ p - n_p * n_p * inv_n_sq, out=gamma, where=valid)
        n_obs += valid
    return h_acc, beta, gamma, n_obs


def _row_bands(height: int, width: int, workers: int) -> list[slice]:
    """Split the rows into bands of about BAND_PIXELS pixels, a multiple of ``workers`` of them."""
    workers = max(1, min(int(workers), height))
    per_worker = -(-height * width // (workers * BAND_PIXELS))
    edges = np.linspace(0, height, min(height, workers * per_worker) + 1, dtype=int)
    return [slice(int(a), int(b)) for a, b in zip(edges[:-1], edges[1:]) if b > a]


def triangulate_map(
    inp: TriangulationInput,
    h_eps: float = DEFAULT_H_EPS,
    d_max: float = DEFAULT_D_MAX,
    workers: int = 1,
) -> InitialDepth:
    """Triangulate every keyframe pixel from all usable observations.

    Observations with invalid flow are dropped per pixel; pixels with no
    usable observation or a degenerate solve come back invalid (NaN), never
    clamped. The per-pixel math is identical in every row band, so output is
    bit-identical for any worker count.
    """
    k = inp.intrinsics
    h, w = k.height, k.width
    xm = (np.arange(w, dtype=np.float64) - k.cx) / k.fx
    ym = (np.arange(h, dtype=np.float64) - k.cy) / k.fy
    depth = np.empty((h, w))
    conf_h = np.empty((h, w))
    conf_r = np.empty((h, w))
    valid = np.empty((h, w), dtype=bool)

    def solve(rows):
        h_acc, beta, gamma, n_obs = _accumulate_rows(inp, xm, ym, rows)
        solvable = (n_obs >= 1) & (h_acc >= h_eps)
        safe_h = np.where(solvable, h_acc, 1.0)
        d = -beta / safe_h
        ok = solvable & (d > 0.0) & (d <= d_max)
        residual = np.sqrt(np.maximum(0.0, gamma - beta * beta / safe_h))
        valid[rows] = ok
        depth[rows] = np.where(ok, d, np.nan)
        conf_h[rows] = np.where(ok, np.sqrt(safe_h), np.nan)
        conf_r[rows] = np.where(ok, residual, np.nan)

    bands = _row_bands(h, w, workers)
    if workers <= 1:
        for rows in bands:
            solve(rows)
    else:
        # Bands are disjoint rows of the outputs, so the threads share no element.
        with ThreadPoolExecutor(max_workers=min(int(workers), len(bands))) as pool:
            list(pool.map(solve, bands))
    return InitialDepth(depth=depth, conf_h=conf_h, conf_r=conf_r, valid=valid)


def epipolar_loss(
    flow_field: FlowField,
    pose: RelativePose,
    gt_depth: np.ndarray,
    k: Intrinsics,
) -> tuple[float, np.ndarray]:
    """Flow-quality loss: residual of the true depth under the observed rays.

    Substituting ground-truth depth into the per-pixel cost measures the flow
    error in every direction, including the component perpendicular to the
    epipolar line that depth alone cannot see. Returns the scalar sum over
    valid pixels (fixed row-major order) and the per-pixel map, NaN where the
    flow is invalid or the ground truth is not finite.
    """
    gt = np.asarray(gt_depth, dtype=np.float64)
    if gt.shape != (k.height, k.width):
        raise InputError(f"gt depth shape {gt.shape} != image size {(k.height, k.width)}")
    valid = flow_field.valid & np.isfinite(gt)
    m_grid = normalized_grid(k)
    nx, ny = _observation_rays(flow_field, k, slice(None))
    s = np.stack([nx, ny, np.ones_like(nx)], axis=-1)
    s /= np.linalg.norm(s, axis=-1, keepdims=True)
    safe_gt = np.where(valid, gt, 1.0)
    transformed = (m_grid @ pose.rotation.T) * safe_gt[..., None] + pose.translation
    residual = np.cross(s, transformed)
    per_pixel = np.einsum("...i,...i->...", residual, residual)
    total = float(np.sum(np.where(valid, per_pixel, 0.0)))
    return total, np.where(valid, per_pixel, np.nan)
