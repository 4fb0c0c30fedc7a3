"""Checks on the files a call wrote, and the accuracy scored from them.

Everything here reads the files with its own PFM reader and its own numpy
arithmetic, so a defect in triad's readers or metrics cannot vouch for itself.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np


def read_pfm(path: Path) -> np.ndarray:
    """Single-channel PFM as float64, top row first."""
    with open(path, "rb") as f:
        magic = f.readline().strip()
        width, height = (int(t) for t in f.readline().split())
        scale = float(f.readline())
        payload = f.read()
    if magic != b"Pf" or len(payload) != 4 * width * height:
        raise ValueError(f"{path}: not a {width}x{height} single-channel PFM")
    values = np.frombuffer(payload, dtype="<f4" if scale < 0 else ">f4")
    return np.flipud(values.reshape(height, width)).astype(np.float64)


def read_objective(path: Path) -> list[float]:
    return [float(line.split()[1]) for line in path.read_text().splitlines()]


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_call(out: Path, writes, iterations: int, reference_valid: np.ndarray) -> list[str]:
    """Problems with one call's outputs; an empty list means the call passed.

    The initial depth must be NaN exactly where the set-up pre-pass found no
    valid depth, positive elsewhere, and share its NaN pixels with both
    confidence channels; refined depth and sigma must be finite everywhere; the
    objective must have one value per iterate and never increase.
    """
    missing = [name for name in writes if not (out / name).is_file()]
    if missing:
        return [f"missing outputs: {', '.join(missing)}"]
    problems = []
    objective = read_objective(out / "objective.txt")
    if len(objective) != iterations + 1:
        problems.append(f"objective has {len(objective)} values, expected {iterations + 1}")
    if any(b > a for a, b in zip(objective, objective[1:])):
        problems.append("objective increases")
    refined = read_pfm(out / "depth_refined.pfm")
    sigma = read_pfm(out / "sigma.pfm")
    if not (np.all(np.isfinite(refined)) and np.all(np.isfinite(sigma)) and np.all(sigma > 0)):
        problems.append("refined depth or sigma is not finite and positive everywhere")
    initial = read_pfm(out / "depth_initial.pfm")
    invalid = np.isnan(initial)
    if not np.array_equal(invalid, ~reference_valid):
        problems.append("initial depth is not NaN exactly where the pre-pass found it invalid")
    if not np.all(initial[~invalid] > 0) or np.any(np.isinf(initial)):
        problems.append("initial depth is not positive and finite on valid pixels")
    for name in ("conf_h.pfm", "conf_r.pfm"):
        if not np.array_equal(np.isnan(read_pfm(out / name)), invalid):
            problems.append(f"{name} is not NaN exactly where the initial depth is")
    return problems


def _average_ranks(x: np.ndarray) -> np.ndarray:
    order = np.argsort(x, kind="stable")
    _, first, counts = np.unique(x[order], return_index=True, return_counts=True)
    ranks = np.empty(len(x))
    ranks[order] = np.repeat(first + 0.5 * (counts + 1), counts)
    return ranks


def spearman(a: np.ndarray, b: np.ndarray) -> float:
    ra = _average_ranks(a)
    rb = _average_ranks(b)
    ra -= ra.mean()
    rb -= rb.mean()
    return float(ra @ rb) / math.sqrt(float(ra @ ra) * float(rb @ rb))


def accuracy(root: Path, out: Path) -> dict[str, float]:
    """Accuracy of one bundle's outputs on the shared mask (initial-valid and finite ground truth)."""
    gt = read_pfm(root / "depth_gt.pfm")
    initial = read_pfm(out / "depth_initial.pfm")
    refined = read_pfm(out / "depth_refined.pfm")
    sigma = read_pfm(out / "sigma.pfm")
    valid = np.isfinite(initial)
    mask = valid & np.isfinite(gt)
    objective = read_objective(out / "objective.txt")
    return {
        "initial_rmse_m": math.sqrt(float(np.mean(np.square(initial[mask] - gt[mask])))),
        "refined_rmse_m": math.sqrt(float(np.mean(np.square(refined[mask] - gt[mask])))),
        "valid_fraction": float(np.mean(valid)),
        "spearman_rho": spearman(np.abs(refined[mask] - gt[mask]), sigma[mask]),
        "objective_ratio": objective[-1] / objective[0],
    }


def report_problems(out: Path, scored: dict[str, float], frames_used: int) -> list[str]:
    """Compare triad's own report.kv with the accuracy scored from the files.

    The report must also name exactly ``frames_used`` selected frames.

    triad scores its float64 maps before they are written as float32, so the
    two agree to float32 precision, not bit for bit.
    """
    kv = {}
    for line in (out / "report.kv").read_text().splitlines():
        key, _, value = line.partition(" = ")
        kv[key] = value
    pairs = [
        ("initial.rmse", "initial_rmse_m", 1e-4),
        ("refined.rmse", "refined_rmse_m", 1e-4),
        ("uncertainty.spearman_rho", "spearman_rho", 1e-3),
    ]
    problems = []
    selected = kv.get("run.selected", "").split()
    if len(selected) != frames_used:
        problems.append(f"report.kv selects {len(selected)} frames, expected {frames_used}")
    for key, name, tol in pairs:
        reported = float(kv.get(key, "nan"))
        if not abs(reported - scored[name]) <= tol * max(1.0, abs(scored[name])):
            problems.append(f"report.kv {key} = {reported} but the written files give {scored[name]:.9g}")
    return problems
