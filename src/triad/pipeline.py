"""End-to-end drivers: synthetic bundles, estimation, ablation, evaluation.

A run is described by a flat key = value config (file, TRIAD_* environment
variables, then CLI overrides, later sources winning) with all paths resolved
against an explicit root directory. The estimation flow is select ->
triangulate -> build weights -> refine -> evaluate; every raster leaves
through the writers in fileio, and all writes happen from the coordinating
thread so outputs are byte-stable for any worker count.

``synthesize(cfg)`` is the one seeded synthetic chain (trajectory, scene, exact
and noisy flow): ``cmd_synth`` writes it, the tests and scripts use it in memory.

``workers`` >= 2 runs triangulation's row bands on that many threads, and
``estimate`` with ground truth and ``eval`` with a sigma map open one more
thread while they score: it scores the initial map while the refined map is
scored, and then ranks sigma while the error is ranked. The thread is closed
before the command returns or raises. With one worker no thread starts.
"""

from __future__ import annotations

import dataclasses
import math
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import fileio
from .errors import ConfigError, InputError, NumericalError
from .flow import FlowField
from .geometry import Intrinsics, Trajectory
from .metrics import (
    DELTA_THRESHOLDS,
    CorrelationResult,
    MetricReport,
    Scorer,
    run_pair,
    sweep_csv_lines,
)
# not called here; perfbench's --trace spans patch these names in this module
from .metrics import error_uncertainty_correlation, evaluate, uncertainty_sweep  # noqa: F401
# cmd_synth renders through render_flows, so the render_flow span reads 0 calls
from .synth import render_flow  # noqa: F401
from .refine import WEIGHT_MODES, RefineConfig, build_weights, refine
from .select import Selection, SelectionPolicy, select_frames
from .synth import (
    NoiseModel,
    SyntheticScene,
    check_scene_settings,
    corrupt_flow,
    make_scene,
    make_trajectory,
    render_flows,
)
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
        """The selection settings: every SelectionPolicy field read from its config key."""
        return SelectionPolicy(
            **{f.name: getattr(self, SELECTION_KEYS.get(f.name, f.name)) for f in dataclasses.fields(SelectionPolicy)}
        )

    def refine_config(self, weight_mode: str | None = None, iterations: int | None = None) -> RefineConfig:
        """The refinement settings: every RefineConfig field read from the same-named key."""
        values = {f.name: getattr(self, f.name) for f in dataclasses.fields(RefineConfig)}
        if weight_mode is not None:
            values["weight_mode"] = weight_mode
        if iterations is not None:
            values["iterations"] = iterations
        return RefineConfig(**values)

    def noise_model(self, frame_index: int) -> NoiseModel:
        base = self.noise_seed if self.noise_seed >= 0 else self.seed + 1
        return NoiseModel(
            sigma_flow=self.sigma_flow,
            outlier_rate=self.outlier_rate,
            outlier_span=self.outlier_span,
            seed=base + frame_index,
        )

    def scene_settings(self) -> dict:
        """make_scene's shape settings, each read from the same-named key."""
        return {key: getattr(self, key) for key in SCENE_KEYS}

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
        # NaN fails "> 0" as well; an infinite threshold keeps every pixel
        if not values or not all(t > 0 for t in values):
            raise ConfigError("sweep_thresholds must be positive numbers")
        return values

    def triangulation_limits(self) -> tuple[float, float]:
        """(h_eps, d_max): h_eps finite and nonnegative, d_max positive and finite."""
        if not (math.isfinite(self.h_eps) and self.h_eps >= 0.0):
            raise ConfigError("h_eps must be a finite nonnegative number")
        if not (0.0 < self.d_max < math.inf):
            raise ConfigError("d_max must be positive and finite")
        return self.h_eps, self.d_max

    def ablate_iteration_list(self) -> list[int]:
        try:
            values = [int(t) for t in self.ablate_iterations.split()]
        except ValueError as e:
            raise ConfigError(f"bad ablate_iterations: {e}") from e
        if not values or any(v < 0 for v in values):
            raise ConfigError("ablate_iterations must be nonnegative integers")
        return values


# The room-scale suite as config keys: a depth spread wide enough for genuinely heteroscedastic
# errors, moving sideways at 0.05 m per frame, with 1 px flow noise and 3 % outliers.
ROOM_SUITE = {
    "n_bumps": 7,
    "base_depth": 2.2,
    "bump_amplitude": 1.5,
    "bump_sigma_lo": 0.25,
    "bump_sigma_hi": 0.55,
    "texture_cutoff": 0.03,
    "vx": 0.05,
    "sigma_flow": 1.0,
    "outlier_rate": 0.03,
}

_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(RunConfig)}
# the SelectionPolicy fields whose config key has another name
SELECTION_KEYS = {"mode": "selection_mode", "n_frames": "sel_n_frames"}
SCENE_KEYS = ("n_bumps", "base_depth", "bump_amplitude", "bump_sigma_lo", "bump_sigma_hi", "texture_cutoff")


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
    if cfg.seed < 0:
        raise ConfigError("seed must be nonnegative")
    try:
        cfg.refine_config()
        cfg.selection_policy()
        cfg.noise_model(0)
        check_scene_settings(**cfg.scene_settings())
        make_trajectory(cfg.trajectory_kind, cfg.n_frames, cfg.trajectory_params())
    except InputError as e:
        raise ConfigError(str(e)) from e
    cfg.sweep_threshold_list()
    cfg.ablate_iteration_list()
    cfg.triangulation_limits()
    return cfg


def resolve_keyframe(cfg: RunConfig, n_frames: int) -> int:
    kf = cfg.keyframe if cfg.keyframe >= 0 else n_frames // 2
    if not (0 <= kf < n_frames):
        raise ConfigError(f"keyframe {kf} out of range for {n_frames} frames")
    return kf


def _flow_path(root: Path, cfg: RunConfig, prefix: str, index: int) -> Path:
    return root / cfg.flow_dir / f"{prefix}_{index:04d}.flo"


def synthesize(cfg: RunConfig):
    """The seeded synthetic chain: (intrinsics, trajectory, scene, keyframe, frames).

    ``frames`` lazily yields (index, pose, exact, noisy) for every other frame
    in index order, rendering and corrupting (``cfg.noise_model(index)``) each
    one when it is reached, so a caller that streams them holds one at a time.
    """
    k = cfg.intrinsics_obj()
    traj = make_trajectory(cfg.trajectory_kind, cfg.n_frames, cfg.trajectory_params())
    scene = make_scene(cfg.width, cfg.height, cfg.seed, **cfg.scene_settings())
    keyframe = resolve_keyframe(cfg, len(traj))
    return k, traj, scene, keyframe, _frames(cfg, k, traj, scene, keyframe)


def _frames(cfg: RunConfig, k: Intrinsics, traj: Trajectory, scene: SyntheticScene, keyframe: int):
    others = [index for index in range(len(traj)) if index != keyframe]
    poses = [traj.relative_pose(keyframe, index) for index in others]
    for index, pose, exact in zip(others, poses, render_flows(scene, k, poses)):
        yield index, pose, exact, corrupt_flow(exact, cfg.noise_model(index))


def cmd_synth(cfg: RunConfig, root) -> dict:
    """Write a fully self-describing synthetic bundle for one keyframe."""
    k, traj, scene, keyframe, frames = synthesize(cfg)
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    (root / cfg.flow_dir).mkdir(parents=True, exist_ok=True)
    fileio.write_intrinsics(k, root / cfg.intrinsics)
    fileio.write_trajectory(traj, root / cfg.trajectory)
    fileio.write_image(scene.texture, root / cfg.image)
    fileio.write_pfm(scene.depth_map(), root / cfg.gt_depth)
    files = [cfg.intrinsics, cfg.trajectory, cfg.image, cfg.gt_depth]

    for index, _, exact, noisy in frames:
        exact_path = _flow_path(root, cfg, "exact", index)
        noisy_path = _flow_path(root, cfg, "noisy", index)
        fileio.write_flow(exact.to_raster(), exact_path)
        del exact  # freed when the iterator renders the next frame, before it corrupts that one
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
    h_eps, d_max = cfg.triangulation_limits()
    init = triangulate_map(inp, h_eps=h_eps, d_max=d_max, workers=cfg.workers)
    if not np.any(init.valid):
        raise NumericalError("triangulation left no valid pixels")
    return traj, k, keyframe, selection, init, warnings


def _write_initial(init: InitialDepth, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    fileio.write_pfm(init.depth, out / INITIAL_DEPTH_FILE)
    fileio.write_pfm(init.conf_h, out / CONF_H_FILE)
    fileio.write_pfm(init.conf_r, out / CONF_R_FILE)


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
    fileio.write_pfm(result.depth, out / REFINED_DEPTH_FILE)
    fileio.write_pfm(result.uncertainty, out / SIGMA_FILE)
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


def _run_entries(keyframe: int, selection: Selection, warnings: list[str]) -> list[tuple[str, str, str]]:
    entries = [
        ("run", "keyframe", f"{keyframe}"),
        ("run", "selected", " ".join(str(i) for i in selection.indices)),
        ("run", "shortfall", str(selection.shortfall).lower()),
    ]
    return entries + [("run", "warning", w) for w in warnings]


def _metric_entries(section: str, report: MetricReport) -> list[tuple[str, str, str]]:
    return [(section, key, value) for key, value in report.entries()]


def _uncertainty_entries(corr: CorrelationResult) -> list[tuple[str, str, str]]:
    return [
        ("uncertainty", "spearman_rho", f"{corr.rho:.12g}"),
        ("uncertainty", "spearman_defined", str(corr.defined).lower()),
    ]


def _write_reports(out: Path, entries: list[tuple[str, str, str]]) -> list[str]:
    """Write report.txt and report.kv from one list of (section, key, value) entries.

    report.txt opens each section with a "[section]" line and then lists
    "key = value"; report.kv lists "section.key = value". Returns the
    report.txt lines.
    """
    text, kv = [], []
    for i, (section, key, value) in enumerate(entries):
        if i == 0 or section != entries[i - 1][0]:
            text.append(f"[{section}]")
        text.append(f"{key} = {value}")
        kv.append(f"{section}.{key} = {value}")
    _write_lines(out / REPORT_FILE, text)
    _write_lines(out / KEYVALUE_FILE, kv)
    return text


def _write_lines(path: Path, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


def _scoring_pool(cfg: RunConfig):
    """One extra thread for scoring when the run has more than one worker, else no pool.

    Scoring runs big-array sorts and ufuncs, which release the interpreter
    lock, so two independent scoring tasks overlap on two cores.
    """
    return ThreadPoolExecutor(max_workers=1) if cfg.workers >= 2 else nullcontext()


def _score_maps(scorer: Scorer, initial, refined, sigma, thresholds, pool):
    """(initial report, (refined report, rho, sweep rows)), the same with or without a pool.

    With a pool the initial map is scored on it while the refined map is
    scored here, and then sigma is ranked on it while |refined - gt| is
    ranked here. Without one, all of it runs here in that order. Either way
    the initial map's error wins when both maps would raise.
    """
    if pool is not None:
        scorer.fill()
    return run_pair(
        pool,
        lambda: scorer.report(initial),
        lambda: scorer.prediction(refined).score(sigma, thresholds, pool),
    )


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
    entries = _run_entries(keyframe, selection, warnings)
    if gt_path.is_file():
        gt = fileio.read_pfm(gt_path).astype(np.float64)
        # both maps are scored where the triangulation is valid: the refined
        # map also covers inpainted pixels, but one mask keeps them comparable
        scorer = Scorer(gt, init.valid & np.isfinite(gt))
        del gt
        with _scoring_pool(cfg) as pool:
            initial_report, (refined_report, corr, sweep) = _score_maps(
                scorer, init.depth, result.depth, result.uncertainty, cfg.sweep_threshold_list(), pool
            )
        _write_lines(out / SWEEP_FILE, sweep_csv_lines(sweep))
        entries += _metric_entries("initial", initial_report) + _metric_entries("refined", refined_report)
        entries += _uncertainty_entries(corr)
        summary.update(
            {"initial_report": initial_report, "refined_report": refined_report, "corr": corr, "sweep": sweep}
        )
    _write_reports(out, entries)
    return summary


def _ablation_header() -> str:
    deltas = ",".join(f"delta_{t:.12g}" for t in DELTA_THRESHOLDS)
    return f"weight_mode,iterations,n_evaluated,abs_rel,sq_rel,log_rmse,irmse,rmse,{deltas}"


def _ablation_row(mode: str, iterations: int, report: MetricReport) -> str:
    return f"{mode},{iterations}," + ",".join(value for _, value in report.entries())


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
    scorer = Scorer(gt, init.valid & np.isfinite(gt))
    iteration_grid = cfg.ablate_iteration_list()
    max_iterations = max(iteration_grid)

    out = root / cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    initial_report = scorer.report(init.depth)
    rows = [_ablation_header()]
    reports: dict[tuple[str, int], MetricReport] = {}
    for mode in WEIGHT_MODES:
        rc = cfg.refine_config(weight_mode=mode, iterations=max_iterations)
        weights = build_weights(init, intensity, rc)
        result = refine(init, weights, rc, keep_iterates=True)
        for iterations in iteration_grid:
            report = scorer.report(result.iterates[iterations])
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
    prediction = Scorer(gt, np.isfinite(pred) & np.isfinite(gt)).prediction(pred)
    del gt
    out = root / cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    summary: dict = {}
    sigma_path = root / cfg.sigma_map
    if sigma_path.is_file():
        sigma = fileio.read_pfm(sigma_path).astype(np.float64)
        with _scoring_pool(cfg) as pool:
            report, corr, sweep = prediction.score(sigma, cfg.sweep_threshold_list(), pool)
        _write_lines(out / SWEEP_FILE, sweep_csv_lines(sweep))
        entries = _metric_entries("eval", report) + _uncertainty_entries(corr)
        summary.update({"corr": corr, "sweep": sweep})
    else:
        report = prediction.report()
        entries = _metric_entries("eval", report)
    summary["report"] = report
    summary["text"] = _write_reports(out, entries)
    return summary


def cmd_select(cfg: RunConfig, root) -> dict:
    """Run frame selection only; the CLI prints the indices one per line."""
    root = Path(root)
    traj = fileio.read_trajectory(root / cfg.trajectory)
    keyframe = resolve_keyframe(cfg, len(traj))
    selection = select_frames(traj, keyframe, cfg.selection_policy())
    return {"keyframe": keyframe, "selection": selection}
