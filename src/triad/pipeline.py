"""End-to-end drivers: synthetic bundles, estimation, ablation, evaluation.

A run is described by a flat key = value config (file, TRIAD_* environment
variables, then CLI overrides, later sources winning) with all paths resolved
against an explicit root directory. The estimation flow is select ->
triangulate -> build weights -> refine -> evaluate; every raster leaves
through the writers in fileio, and all writes happen from the coordinating
thread so outputs are byte-stable for any worker count.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import fileio
from .errors import ConfigError, InputError, NumericalError
from .flow import FlowField
from .geometry import Intrinsics, Trajectory
from .metrics import (
    CorrelationResult,
    MetricReport,
    error_uncertainty_correlation,
    evaluate,
    report_lines,
    sweep_csv_lines,
    uncertainty_sweep,
)
from .refine import WEIGHT_MODES, RefineConfig, build_weights, refine
from .select import Selection, SelectionPolicy, select_frames
from .synth import NoiseModel, corrupt_flow, make_scene, make_trajectory, render_flow
from .triangulate import InitialDepth, TriangulationInput, triangulate_map

ENV_PREFIX = "TRIAD_"

INITIAL_DEPTH_FILE = "depth_initial.pfm"
CONF_H_FILE = "conf_h.pfm"
CONF_R_FILE = "conf_r.pfm"
REFINED_DEPTH_FILE = "depth_refined.pfm"
SIGMA_FILE = "sigma.pfm"
OBJECTIVE_FILE = "objective.txt"
REPORT_FILE = "report.txt"
KEYVALUE_FILE = "report.kv"
SWEEP_FILE = "sweep.csv"
ABLATION_FILE = "ablation.csv"


@dataclass(frozen=True)
class RunConfig:
    """Every knob of a run; field names double as config keys."""

    # paths, relative to the run root
    trajectory: str = "trajectory.txt"
    intrinsics: str = "intrinsics.txt"
    flow_dir: str = "flow"
    image: str = "texture.pgm"
    gt_depth: str = "depth_gt.pfm"
    out_dir: str = "out"
    pred_depth: str = "out/depth_refined.pfm"
    sigma_map: str = "out/sigma.pfm"
    flow_prefix: str = "noisy"  # which rendered flow variant estimation consumes
    keyframe: int = -1  # -1 selects the middle frame
    workers: int = 1

    # synthetic scene and trajectory
    width: int = 320
    height: int = 240
    fx: float = 400.0
    fy: float = 400.0
    cx: float = -1.0  # -1 centers the principal point
    cy: float = -1.0
    seed: int = 0
    noise_seed: int = -1  # -1 derives seed + 1
    n_frames: int = 5
    trajectory_kind: str = "constant_velocity"
    vx: float = 0.0625
    vy: float = 0.0
    vz: float = 0.0
    yaw_rate: float = 0.0
    move: int = 1
    dwell: int = 3
    orbit_radius: float = 2.0
    dt: float = 1.0
    base_depth: float = 2.0
    n_bumps: int = 5
    bump_amplitude: float = 0.15
    bump_sigma_lo: float = 0.12
    bump_sigma_hi: float = 0.3
    texture_cutoff: float = 0.06

    # flow corruption
    sigma_flow: float = 1.0
    outlier_rate: float = 0.03
    outlier_span: float = 8.0

    # frame selection
    selection_mode: str = "fixed"
    sel_n_frames: int = 5
    fixed_step: int = 5
    theta_min: float = 0.05
    t_min: float = 0.05
    anchor: str = "previous"

    # triangulation
    h_eps: float = 1e-12
    d_max: float = 100.0

    # refinement
    iterations: int = 7
    mu: float = 1.0
    kappa: float = 0.1
    omega: float = 0.9
    tau: float = 0.05
    w_max: float = 1e4
    sigma_min: float = 0.01
    beta: float = 1.0
    sigma_cap: float = 10.0
    weight_mode: str = "full"

    # evaluation
    sweep_thresholds: str = "0.5 0.16 0.1 0.08"
    ablate_iterations: str = "0 1 3 5 7 9"

    def intrinsics_obj(self) -> Intrinsics:
        cx = self.cx if self.cx >= 0 else self.width / 2.0
        cy = self.cy if self.cy >= 0 else self.height / 2.0
        return Intrinsics(fx=self.fx, fy=self.fy, cx=cx, cy=cy, width=self.width, height=self.height)

    def selection_policy(self) -> SelectionPolicy:
        return SelectionPolicy(
            mode=self.selection_mode,
            n_frames=self.sel_n_frames,
            fixed_step=self.fixed_step,
            theta_min=self.theta_min,
            t_min=self.t_min,
            anchor=self.anchor,
        )

    def refine_config(self, weight_mode: str | None = None, iterations: int | None = None) -> RefineConfig:
        return RefineConfig(
            iterations=self.iterations if iterations is None else iterations,
            mu=self.mu,
            kappa=self.kappa,
            omega=self.omega,
            tau=self.tau,
            w_max=self.w_max,
            sigma_min=self.sigma_min,
            beta=self.beta,
            sigma_cap=self.sigma_cap,
            weight_mode=self.weight_mode if weight_mode is None else weight_mode,
        )

    def noise_model(self, frame_index: int) -> NoiseModel:
        base = self.noise_seed if self.noise_seed >= 0 else self.seed + 1
        return NoiseModel(
            sigma_flow=self.sigma_flow,
            outlier_rate=self.outlier_rate,
            outlier_span=self.outlier_span,
            seed=base + frame_index,
        )

    def trajectory_params(self) -> dict:
        if self.trajectory_kind == "constant_velocity":
            return {"velocity": (self.vx, self.vy, self.vz), "dt": self.dt, "yaw_rate": self.yaw_rate}
        if self.trajectory_kind == "stop_and_go":
            return {"velocity": (self.vx, self.vy, self.vz), "move": self.move, "dwell": self.dwell, "dt": self.dt}
        if self.trajectory_kind == "orbit":
            return {"radius": self.orbit_radius, "dt": self.dt}
        raise ConfigError(f"unknown trajectory_kind {self.trajectory_kind!r}")

    def sweep_threshold_list(self) -> list[float]:
        try:
            values = [float(t) for t in self.sweep_thresholds.split()]
        except ValueError as e:
            raise ConfigError(f"bad sweep_thresholds: {e}") from e
        if not values or any(t <= 0 for t in values):
            raise ConfigError("sweep_thresholds must be positive numbers")
        return values

    def ablate_iteration_list(self) -> list[int]:
        try:
            values = [int(t) for t in self.ablate_iterations.split()]
        except ValueError as e:
            raise ConfigError(f"bad ablate_iterations: {e}") from e
        if not values or any(v < 0 for v in values):
            raise ConfigError("ablate_iterations must be nonnegative integers")
        return values


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(RunConfig)}


def parse_config_file(path) -> dict[str, str]:
    """Read a line-oriented "key = value" file; '#' starts a comment line."""
    mapping: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            mapping[key.strip()] = value.strip()
    return mapping


def _coerce(key: str, raw: str):
    kind = _FIELD_TYPES.get(key)
    if kind is None:
        raise ConfigError(f"unknown config key {key!r}")
    try:
        if kind in ("int", int):
            return int(raw)
        if kind in ("float", float):
            return float(raw)
        return raw
    except ValueError as e:
        raise ConfigError(f"bad value for {key!r}: {raw!r} ({e})") from e


def load_run_config(config_path=None, overrides=(), env=None) -> RunConfig:
    """Merge config file, TRIAD_* environment variables, and key=value overrides."""
    mapping: dict[str, str] = {}
    if config_path is not None:
        cfg_file = Path(config_path)
        if not cfg_file.is_file():
            raise ConfigError(f"config file not found: {cfg_file}")
        mapping.update(parse_config_file(cfg_file))
    if env is not None:
        for name in _FIELD_TYPES:
            env_key = ENV_PREFIX + name.upper()
            if env_key in env:
                mapping[name] = env[env_key]
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, _, value = item.partition("=")
        mapping[key.strip()] = value.strip()
    values = {key: _coerce(key, raw) for key, raw in mapping.items()}
    cfg = RunConfig(**values)
    # build every derived setting now, so a bad value fails as a config error
    # before any command writes output
    try:
        cfg.refine_config()
        cfg.selection_policy()
    except InputError as e:
        raise ConfigError(str(e)) from e
    cfg.sweep_threshold_list()
    cfg.ablate_iteration_list()
    return cfg


def resolve_keyframe(cfg: RunConfig, n_frames: int) -> int:
    kf = cfg.keyframe if cfg.keyframe >= 0 else n_frames // 2
    if not (0 <= kf < n_frames):
        raise ConfigError(f"keyframe {kf} out of range for {n_frames} frames")
    return kf


def _flow_path(root: Path, cfg: RunConfig, prefix: str, index: int) -> Path:
    return root / cfg.flow_dir / f"{prefix}_{index:04d}.flo"


def cmd_synth(cfg: RunConfig, root) -> dict:
    """Write a fully self-describing synthetic bundle for one keyframe."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    (root / cfg.flow_dir).mkdir(parents=True, exist_ok=True)
    k = cfg.intrinsics_obj()
    traj = make_trajectory(cfg.trajectory_kind, cfg.n_frames, cfg.trajectory_params())
    scene = make_scene(
        cfg.width,
        cfg.height,
        cfg.seed,
        n_bumps=cfg.n_bumps,
        base_depth=cfg.base_depth,
        bump_amplitude=cfg.bump_amplitude,
        bump_sigma_lo=cfg.bump_sigma_lo,
        bump_sigma_hi=cfg.bump_sigma_hi,
        texture_cutoff=cfg.texture_cutoff,
    )
    keyframe = resolve_keyframe(cfg, len(traj))

    fileio.write_intrinsics(k, root / cfg.intrinsics)
    fileio.write_trajectory(traj, root / cfg.trajectory)
    fileio.write_image(scene.texture, root / cfg.image)
    fileio.write_pfm(scene.depth_map().astype(np.float32), root / cfg.gt_depth)
    files = [cfg.intrinsics, cfg.trajectory, cfg.image, cfg.gt_depth]

    for index in range(len(traj)):
        if index == keyframe:
            continue
        pose = traj.relative_pose(keyframe, index)
        exact = render_flow(scene, k, pose)
        noisy = corrupt_flow(exact, cfg.noise_model(index))
        exact_path = _flow_path(root, cfg, "exact", index)
        noisy_path = _flow_path(root, cfg, "noisy", index)
        fileio.write_flow(exact.to_raster(), exact_path)
        fileio.write_flow(noisy.to_raster(), noisy_path)
        files.append(exact_path.relative_to(root).as_posix())
        files.append(noisy_path.relative_to(root).as_posix())

    manifest = root / "manifest.txt"
    with open(manifest, "w", encoding="ascii") as f:
        f.write(f"seed = {cfg.seed}\n")
        f.write(f"noise_seed = {cfg.noise_seed if cfg.noise_seed >= 0 else cfg.seed + 1}\n")
        f.write(f"keyframe = {keyframe}\n")
        for name in files:
            f.write(f"file = {name}\n")
    return {"keyframe": keyframe, "files": files, "manifest": manifest}


def _load_selected_flows(
    cfg: RunConfig, root: Path, traj: Trajectory, keyframe: int, selection: Selection
):
    observations = []
    for index in selection.indices:
        raw = fileio.read_flow(_flow_path(root, cfg, cfg.flow_prefix, index))
        pose = traj.relative_pose(keyframe, index)
        observations.append((FlowField.from_raster(raw), pose))
    return observations


def _triangulate_stage(cfg: RunConfig, root: Path):
    """Shared front half of estimate/triangulate/ablate: select and triangulate."""
    traj = fileio.read_trajectory(root / cfg.trajectory)
    k = fileio.read_intrinsics(root / cfg.intrinsics)
    keyframe = resolve_keyframe(cfg, len(traj))
    selection = select_frames(traj, keyframe, cfg.selection_policy())
    warnings = []
    if selection.shortfall:
        warnings.append(
            f"selection shortfall: wanted {cfg.sel_n_frames - 1} frames, got {len(selection.indices)}"
        )
    if not selection.indices:
        raise NumericalError("frame selection produced no usable frames")
    observations = _load_selected_flows(cfg, root, traj, keyframe, selection)
    inp = TriangulationInput(k, tuple(observations))
    init = triangulate_map(inp, h_eps=cfg.h_eps, d_max=cfg.d_max, workers=cfg.workers)
    if not np.any(init.valid):
        raise NumericalError("triangulation left no valid pixels")
    return traj, k, keyframe, selection, init, warnings


def _write_initial(init: InitialDepth, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    fileio.write_pfm(init.depth.astype(np.float32), out / INITIAL_DEPTH_FILE)
    fileio.write_pfm(init.conf_h.astype(np.float32), out / CONF_H_FILE)
    fileio.write_pfm(init.conf_r.astype(np.float32), out / CONF_R_FILE)


def cmd_triangulate(cfg: RunConfig, root) -> dict:
    """Selection plus triangulation; writes the initial depth and confidences."""
    root = Path(root)
    _, _, keyframe, selection, init, warnings = _triangulate_stage(cfg, root)
    _write_initial(init, root / cfg.out_dir)
    return {"keyframe": keyframe, "selection": selection, "init": init, "warnings": warnings}


def _load_initial(out: Path) -> InitialDepth:
    depth = fileio.read_pfm(out / INITIAL_DEPTH_FILE).astype(np.float64)
    conf_h = fileio.read_pfm(out / CONF_H_FILE).astype(np.float64)
    conf_r = fileio.read_pfm(out / CONF_R_FILE).astype(np.float64)
    valid = np.isfinite(depth)
    return InitialDepth(depth=depth, conf_h=conf_h, conf_r=conf_r, valid=valid)


def _run_refinement(cfg: RunConfig, root: Path, init: InitialDepth, out: Path):
    intensity = fileio.read_image(root / cfg.image)
    rc = cfg.refine_config()
    weights = build_weights(init, intensity, rc)
    result = refine(init, weights, rc)
    fileio.write_pfm(result.depth.astype(np.float32), out / REFINED_DEPTH_FILE)
    fileio.write_pfm(result.uncertainty.astype(np.float32), out / SIGMA_FILE)
    with open(out / OBJECTIVE_FILE, "w", encoding="ascii") as f:
        for step, value in enumerate(result.objective):
            f.write(f"{step} {value:.17g}\n")
    return result


def cmd_refine(cfg: RunConfig, root) -> dict:
    """Refine a previously triangulated initial depth found in out_dir."""
    root = Path(root)
    out = root / cfg.out_dir
    init = _load_initial(out)
    result = _run_refinement(cfg, root, init, out)
    return {"init": init, "result": result}


def _metric_blocks(
    cfg: RunConfig,
    init: InitialDepth,
    refined_depth: np.ndarray,
    sigma: np.ndarray,
    gt: np.ndarray,
):
    """Initial and refined reports on the shared mask, plus uncertainty diagnostics.

    Both maps are scored where the triangulation is valid and the ground truth
    is finite; the refined map also covers inpainted pixels, but scoring both
    on one mask is what makes the two blocks comparable.
    """
    mask = init.valid & np.isfinite(gt)
    initial_report = evaluate(init.depth, gt, mask)
    refined_report = evaluate(refined_depth, gt, mask)
    corr = error_uncertainty_correlation(refined_depth, sigma, gt, mask)
    sweep = uncertainty_sweep(refined_depth, sigma, gt, cfg.sweep_threshold_list(), mask)
    return mask, initial_report, refined_report, corr, sweep


def _report_documents(
    keyframe: int,
    selection: Selection,
    warnings: list[str],
    blocks: list[tuple[str, MetricReport]],
    corr: CorrelationResult | None,
):
    text = ["[run]", f"keyframe = {keyframe}"]
    text.append("selected = " + " ".join(str(i) for i in selection.indices))
    text.append(f"shortfall = {str(selection.shortfall).lower()}")
    text += [f"warning = {w}" for w in warnings]
    kv = [
        f"run.keyframe = {keyframe}",
        "run.selected = " + " ".join(str(i) for i in selection.indices),
        f"run.shortfall = {str(selection.shortfall).lower()}",
    ]
    kv += [f"run.warning = {w}" for w in warnings]
    for title, report in blocks:
        text += report_lines(report, title)
        kv += report.as_keyvalues(prefix=f"{title}.")
    if corr is not None:
        text += [
            "[uncertainty]",
            f"spearman_rho = {corr.rho:.12g}",
            f"spearman_defined = {str(corr.defined).lower()}",
        ]
        kv += [
            f"uncertainty.spearman_rho = {corr.rho:.12g}",
            f"uncertainty.spearman_defined = {str(corr.defined).lower()}",
        ]
    return text, kv


def _write_lines(path: Path, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


def cmd_estimate(cfg: RunConfig, root) -> dict:
    """Full chain: select, triangulate, refine, and (with ground truth) evaluate."""
    root = Path(root)
    _, _, keyframe, selection, init, warnings = _triangulate_stage(cfg, root)
    out = root / cfg.out_dir
    _write_initial(init, out)
    result = _run_refinement(cfg, root, init, out)

    summary = {
        "keyframe": keyframe,
        "selection": selection,
        "warnings": warnings,
        "init": init,
        "result": result,
    }
    gt_path = root / cfg.gt_depth
    blocks: list[tuple[str, MetricReport]] = []
    corr = None
    if gt_path.is_file():
        gt = fileio.read_pfm(gt_path).astype(np.float64)
        _, initial_report, refined_report, corr, sweep = _metric_blocks(
            cfg, init, result.depth, result.uncertainty, gt
        )
        blocks = [("initial", initial_report), ("refined", refined_report)]
        _write_lines(out / SWEEP_FILE, sweep_csv_lines(sweep))
        summary.update(
            {"initial_report": initial_report, "refined_report": refined_report, "corr": corr, "sweep": sweep}
        )
    text, kv = _report_documents(keyframe, selection, warnings, blocks, corr)
    _write_lines(out / REPORT_FILE, text)
    _write_lines(out / KEYVALUE_FILE, kv)
    return summary


def _ablation_header() -> str:
    from .metrics import DELTA_THRESHOLDS

    deltas = ",".join(f"delta_{t:.12g}" for t in DELTA_THRESHOLDS)
    return f"weight_mode,iterations,n_evaluated,abs_rel,sq_rel,log_rmse,irmse,rmse,{deltas}"


def _ablation_row(mode: str, iterations: int, report: MetricReport) -> str:
    from .metrics import DELTA_THRESHOLDS

    deltas = ",".join(f"{report.delta_acc[t]:.12g}" for t in DELTA_THRESHOLDS)
    return (
        f"{mode},{iterations},{report.n_evaluated},{report.abs_rel:.12g},{report.sq_rel:.12g},"
        f"{report.log_rmse:.12g},{report.irmse:.12g},{report.rmse:.12g},{deltas}"
    )


def cmd_ablate(cfg: RunConfig, root) -> dict:
    """Sweep iteration counts and confidence-input variants on one bundle.

    Emits one CSV row per (weight mode, iteration count). Iterates of a single
    long run provide every iteration row, since Jacobi iterates do not depend
    on the total iteration count.
    """
    root = Path(root)
    _, _, keyframe, selection, init, warnings = _triangulate_stage(cfg, root)
    gt = fileio.read_pfm(root / cfg.gt_depth).astype(np.float64)
    intensity = fileio.read_image(root / cfg.image)
    mask = init.valid & np.isfinite(gt)
    iteration_grid = cfg.ablate_iteration_list()
    max_iterations = max(iteration_grid)

    out = root / cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    initial_report = evaluate(init.depth, gt, mask)
    rows = [_ablation_header()]
    reports: dict[tuple[str, int], MetricReport] = {}
    for mode in WEIGHT_MODES:
        rc = cfg.refine_config(weight_mode=mode, iterations=max_iterations)
        weights = build_weights(init, intensity, rc)
        result = refine(init, weights, rc, keep_iterates=True)
        for iterations in iteration_grid:
            report = evaluate(result.iterates[iterations], gt, mask)
            reports[(mode, iterations)] = report
            rows.append(_ablation_row(mode, iterations, report))
    _write_lines(out / ABLATION_FILE, rows)
    return {
        "keyframe": keyframe,
        "selection": selection,
        "warnings": warnings,
        "initial_report": initial_report,
        "reports": reports,
        "csv_path": out / ABLATION_FILE,
    }


def cmd_eval(cfg: RunConfig, root) -> dict:
    """Score an existing predicted depth map against ground truth."""
    root = Path(root)
    pred = fileio.read_pfm(root / cfg.pred_depth).astype(np.float64)
    gt = fileio.read_pfm(root / cfg.gt_depth).astype(np.float64)
    mask = np.isfinite(pred) & np.isfinite(gt)
    report = evaluate(pred, gt, mask)
    out = root / cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    text = report_lines(report, "eval")
    kv = report.as_keyvalues(prefix="eval.")
    summary: dict = {"report": report}
    sigma_path = root / cfg.sigma_map
    if sigma_path.is_file():
        sigma = fileio.read_pfm(sigma_path).astype(np.float64)
        corr = error_uncertainty_correlation(pred, sigma, gt, mask)
        sweep = uncertainty_sweep(pred, sigma, gt, cfg.sweep_threshold_list(), mask)
        _write_lines(out / SWEEP_FILE, sweep_csv_lines(sweep))
        text += [
            "[uncertainty]",
            f"spearman_rho = {corr.rho:.12g}",
            f"spearman_defined = {str(corr.defined).lower()}",
        ]
        kv += [
            f"uncertainty.spearman_rho = {corr.rho:.12g}",
            f"uncertainty.spearman_defined = {str(corr.defined).lower()}",
        ]
        summary.update({"corr": corr, "sweep": sweep})
    _write_lines(out / REPORT_FILE, text)
    _write_lines(out / KEYVALUE_FILE, kv)
    summary["text"] = text
    return summary


def cmd_select(cfg: RunConfig, root) -> dict:
    """Run frame selection only; the CLI prints the indices one per line."""
    root = Path(root)
    traj = fileio.read_trajectory(root / cfg.trajectory)
    keyframe = resolve_keyframe(cfg, len(traj))
    selection = select_frames(traj, keyframe, cfg.selection_policy())
    return {"keyframe": keyframe, "selection": selection}
