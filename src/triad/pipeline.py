"""End-to-end drivers: synthetic bundles, estimation, ablation, evaluation.

A run is described by a flat key = value config (file, TRIAD_* environment
variables, then CLI overrides, later sources winning) with all paths resolved
against an explicit root directory. The estimation flow is select ->
triangulate -> build weights -> refine -> evaluate; every file leaves
through fileio's one writer from the coordinating thread, so outputs are
byte-stable for any worker count.

``synthesize(cfg)`` is the one seeded synthetic chain (trajectory, scene, exact
and noisy flow): ``cmd_synth`` writes it, the tests and scripts use it in memory.

``workers`` >= 2 runs triangulation's row bands and every refinement pass's
row bands on up to that many threads, the calling thread included (see
``triad.workers``), and ``estimate`` with ground truth and ``eval`` with a
sigma map score on one more thread: it scores the initial map while the
refined map is scored, and then ranks sigma while the error is ranked. The
tasks share only the ``Scorer``'s gathered ground truth, which exists before
the thread starts; each task builds its own terms. Each pool is closed
before its stage returns or raises, a stage starts at most one thread per
row band but one, and with one worker no thread starts.

Every output file is byte-identical for any worker count: the row bands
depend only on the map size, and their split moves only the last digits of
``objective.txt``, within refine's 1e-12 bound.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import fileio
from .errors import ConfigError, InputError, NumericalError
from .flow import FlowFile
from .geometry import Intrinsics, Trajectory
from .metrics import (
    SWEEP_THRESHOLDS,
    CorrelationResult,
    MetricReport,
    Scorer,
    check_thresholds,
    csv_lines,
    sweep_csv_lines,
)
# not called here; perfbench's --trace spans patch these names in this module
from .metrics import error_uncertainty_correlation, evaluate, uncertainty_sweep  # noqa: F401
# cmd_synth renders through render_flows, so the render_flow span reads 0 calls
from .synth import render_flow  # noqa: F401
from .refinement import WEIGHT_MODES, RefineConfig, RefineResult, WeightMaps, build_weights, refine
from .select import Selection, SelectionPolicy, select_frames
from .synth import (
    NoiseModel,
    SceneSettings,
    SyntheticScene,
    constant_velocity_trajectory,
    corrupt_flow,
    make_scene,
    orbit_trajectory,
    render_flows,
    stop_and_go_trajectory,
)
from .triangulate import (
    DEFAULT_D_MAX,
    DEFAULT_H_EPS,
    InitialDepth,
    TriangulationInput,
    check_limits,
    triangulate_map,
)
from .workers import pool, run

ENV_PREFIX = "TRIAD_"

INITIAL_DEPTH_FILE = "depth_initial.pfm"
CONF_H_FILE = "conf_h.pfm"
CONF_R_FILE = "conf_r.pfm"
INITIAL_FILES = {"depth": INITIAL_DEPTH_FILE, "conf_h": CONF_H_FILE, "conf_r": CONF_R_FILE}
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
    pred_depth: str = ""  # what eval scores; empty: the depth_refined.pfm estimate writes into out_dir
    sigma_map: str = ""  # eval's sigma, which must exist when set; empty: out_dir's sigma.pfm, if estimate wrote one
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
    base_depth: float = SceneSettings.base_depth
    n_bumps: int = SceneSettings.n_bumps
    bump_amplitude: float = SceneSettings.bump_amplitude
    bump_sigma_lo: float = SceneSettings.bump_sigma_lo
    bump_sigma_hi: float = SceneSettings.bump_sigma_hi
    texture_cutoff: float = SceneSettings.texture_cutoff

    # flow corruption
    sigma_flow: float = 1.0
    outlier_rate: float = 0.03
    outlier_span: float = 8.0

    # frame selection
    selection_mode: str = SelectionPolicy.mode
    sel_n_frames: int = SelectionPolicy.n_frames
    fixed_step: int = SelectionPolicy.fixed_step
    theta_min: float = SelectionPolicy.theta_min
    t_min: float = SelectionPolicy.t_min
    anchor: str = SelectionPolicy.anchor

    # triangulation
    h_eps: float = DEFAULT_H_EPS
    d_max: float = DEFAULT_D_MAX

    # refinement
    iterations: int = RefineConfig.iterations
    mu: float = RefineConfig.mu
    kappa: float = RefineConfig.kappa
    omega: float = RefineConfig.omega
    tau: float = RefineConfig.tau
    w_max: float = RefineConfig.w_max
    sigma_min: float = RefineConfig.sigma_min
    beta: float = RefineConfig.beta
    sigma_cap: float = RefineConfig.sigma_cap
    weight_mode: str = RefineConfig.weight_mode

    # evaluation
    sweep_thresholds: str = " ".join(f"{t:g}" for t in SWEEP_THRESHOLDS)
    ablate_iterations: str = "0 1 3 5 7 9"

    def intrinsics_obj(self) -> Intrinsics:
        # only a negative value centres; NaN reaches Intrinsics, which rejects it
        cx = self.width / 2.0 if self.cx < 0 else self.cx
        cy = self.height / 2.0 if self.cy < 0 else self.cy
        return Intrinsics(fx=self.fx, fy=self.fy, cx=cx, cy=cy, width=self.width, height=self.height)

    def selection_policy(self) -> SelectionPolicy:
        """The selection settings: every SelectionPolicy field read from its config key."""
        return SelectionPolicy(
            **{f.name: getattr(self, SELECTION_KEYS.get(f.name, f.name)) for f in dataclasses.fields(SelectionPolicy)}
        )

    def refine_config(self) -> RefineConfig:
        """The refinement settings: every RefineConfig field read from the same-named key."""
        return RefineConfig(**{f.name: getattr(self, f.name) for f in dataclasses.fields(RefineConfig)})

    def noise_model(self, frame_index: int) -> NoiseModel:
        base = self.noise_seed if self.noise_seed >= 0 else self.seed + 1
        return NoiseModel(
            sigma_flow=self.sigma_flow,
            outlier_rate=self.outlier_rate,
            outlier_span=self.outlier_span,
            seed=base + frame_index,
        )

    def scene_settings(self) -> SceneSettings:
        """The scene's shape settings: every SceneSettings field read from the same-named key."""
        return SceneSettings(**{f.name: getattr(self, f.name) for f in dataclasses.fields(SceneSettings)})

    def trajectory_obj(self) -> Trajectory:
        """The synthetic trajectory of trajectory_kind, built from its keys."""
        velocity = (self.vx, self.vy, self.vz)
        if self.trajectory_kind == "constant_velocity":
            return constant_velocity_trajectory(self.n_frames, velocity, self.dt, self.yaw_rate)
        if self.trajectory_kind == "stop_and_go":
            return stop_and_go_trajectory(self.n_frames, velocity, self.move, self.dwell, self.dt)
        if self.trajectory_kind == "orbit":
            return orbit_trajectory(self.n_frames, self.orbit_radius, self.dt)
        raise ConfigError(f"unknown trajectory_kind {self.trajectory_kind!r}")

    def sweep_threshold_list(self) -> list[float]:
        """At least one threshold, each as metrics.check_thresholds requires."""
        try:
            values = [float(t) for t in self.sweep_thresholds.split()]
        except ValueError as e:
            raise ConfigError(f"bad sweep_thresholds: {e}") from e
        try:
            check_thresholds(values)
        except InputError as e:
            raise ConfigError("sweep_thresholds must be positive numbers") from e
        if not values:
            raise ConfigError("sweep_thresholds must be positive numbers")
        return values

    def ablate_iteration_list(self) -> list[int]:
        try:
            values = [int(t) for t in self.ablate_iterations.split()]
        except ValueError as e:
            raise ConfigError(f"bad ablate_iterations: {e}") from e
        if not values or any(v < 0 for v in values):
            raise ConfigError("ablate_iterations must be nonnegative integers")
        if len(set(values)) != len(values):
            raise ConfigError("ablate_iterations must not repeat a value")
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
    if cfg.workers < 1:
        raise ConfigError("workers must be at least 1")
    try:
        cfg.intrinsics_obj()
        cfg.refine_config()
        cfg.selection_policy()
        cfg.noise_model(0)
        cfg.scene_settings()
        cfg.trajectory_obj()
        check_limits(cfg.h_eps, cfg.d_max)
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


def synthesize(cfg: RunConfig):
    """The seeded synthetic chain: (intrinsics, trajectory, scene, keyframe, frames).

    ``frames`` lazily yields (index, pose, exact, noisy) for every other frame
    in index order, rendering and corrupting (``cfg.noise_model(index)``) each
    one when it is reached, so a caller that streams them holds one at a time.
    """
    k = cfg.intrinsics_obj()
    traj = cfg.trajectory_obj()
    scene = make_scene(cfg.width, cfg.height, cfg.seed, cfg.scene_settings())
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
    shown, root = root, Path(root)
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
    # frame 0's noise seed is the base every frame's seed is offset from
    header = [f"seed = {cfg.seed}", f"noise_seed = {cfg.noise_model(0).seed}", f"keyframe = {keyframe}"]
    fileio.write_lines(manifest, header + [f"file = {name}" for name in files])
    line = f"wrote bundle under {shown} ({len(files)} files, keyframe {keyframe})"
    return {"keyframe": keyframe, "files": files, "manifest": manifest, "lines": [line], "warnings": []}


def _select(cfg: RunConfig, root: Path):
    """(trajectory, keyframe, selection, warnings): the selection step of every command that selects."""
    traj = fileio.read_trajectory(root / cfg.trajectory)
    keyframe = resolve_keyframe(cfg, len(traj))
    selection = select_frames(traj, keyframe, cfg.selection_policy())
    shortfall = f"selection shortfall: wanted {cfg.sel_n_frames - 1} frames, got {len(selection.indices)}"
    return traj, keyframe, selection, [shortfall] if selection.shortfall else []


def _triangulate_stage(cfg: RunConfig, root: Path):
    """Shared front half of estimate/triangulate/ablate: select and triangulate."""
    traj, keyframe, selection, warnings = _select(cfg, root)
    k = fileio.read_intrinsics(root / cfg.intrinsics)
    if not selection.indices:
        raise NumericalError("frame selection produced no usable frames")
    # each selected file's header and size are checked here, in selection
    # order, before any band is read
    observations = tuple(
        (FlowFile(_flow_path(root, cfg, cfg.flow_prefix, index)), traj.relative_pose(keyframe, index))
        for index in selection.indices
    )
    inp = TriangulationInput(k, observations)
    init = triangulate_map(inp, h_eps=cfg.h_eps, d_max=cfg.d_max, workers=cfg.workers)
    if not np.any(init.valid):
        raise NumericalError("triangulation left no valid pixels")
    return keyframe, selection, init, warnings


def _write_initial(init: InitialDepth, out: Path) -> None:
    for field, name in INITIAL_FILES.items():
        fileio.write_pfm(getattr(init, field), out / name)


def cmd_triangulate(cfg: RunConfig, root) -> dict:
    """Selection plus triangulation; writes the initial depth and confidences."""
    root = Path(root)
    keyframe, selection, init, warnings = _triangulate_stage(cfg, root)
    _write_initial(init, root / cfg.out_dir)
    return {"keyframe": keyframe, "selection": selection, "init": init, "warnings": warnings, "lines": []}


def _load_initial(out: Path) -> InitialDepth:
    """The initial maps in out_dir, at the files' float32 precision, the one triangulate_map gives."""
    maps = {field: fileio.read_pfm(out / name) for field, name in INITIAL_FILES.items()}
    return InitialDepth(**maps)


def _weights(cfg: RunConfig, root: Path, init: InitialDepth) -> WeightMaps:
    # the image goes straight into build_weights, so it is freed before the iterations
    return build_weights(init, fileio.read_image(root / cfg.image), cfg.refine_config())


def _write_refined(result: RefineResult, out: Path) -> None:
    fileio.write_pfm(result.depth, out / REFINED_DEPTH_FILE)
    fileio.write_pfm(result.uncertainty, out / SIGMA_FILE)
    fileio.write_lines(out / OBJECTIVE_FILE, [f"{step} {value:.17g}" for step, value in enumerate(result.objective)])


def cmd_refine(cfg: RunConfig, root) -> dict:
    """Refine a previously triangulated initial depth found in out_dir."""
    root = Path(root)
    out = root / cfg.out_dir
    init = _load_initial(out)
    depth, weights = init.depth, _weights(cfg, root, init)
    del init  # conf_h and conf_r are read only by build_weights, so they go before the iterations
    result = refine(depth, weights, cfg.refine_config(), workers=cfg.workers)
    _write_refined(result, out)
    return {"depth": depth, "result": result, "warnings": [], "lines": []}


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
    fileio.write_lines(out / REPORT_FILE, text)
    fileio.write_lines(out / KEYVALUE_FILE, kv)
    return text


def _score_maps(scorer: Scorer, initial, refined, sigma, thresholds, executor):
    """(initial report, (refined report, rho, sweep rows)), the same with or without an executor.

    Scoring runs big-array sorts and ufuncs, which release the interpreter
    lock, so with an executor the initial map is scored on it while the
    refined map is scored here, and then sigma is ranked on it while
    |refined - gt| is ranked here: the refined map's task starts that rank
    pair, so it must not run on the executor. Without one, all of it runs
    here in that order. Either way the initial map's error wins when both
    maps would raise.
    """
    tasks = [lambda: scorer.report(initial), lambda: scorer.prediction(refined).score(sigma, thresholds, executor)]
    initial_report, refined_scores = run(executor, tasks)
    return initial_report, refined_scores


def cmd_estimate(cfg: RunConfig, root) -> dict:
    """Full chain: select, triangulate, refine, and (with ground truth) evaluate; then write every file."""
    root = Path(root)
    keyframe, selection, init, warnings = _triangulate_stage(cfg, root)
    result = refine(init.depth, _weights(cfg, root, init), cfg.refine_config(), workers=cfg.workers)

    summary = {"keyframe": keyframe, "selection": selection, "warnings": warnings, "init": init, "result": result}
    gt_path = root / cfg.gt_depth
    entries = _run_entries(keyframe, selection, warnings)
    if gt_path.is_file():
        # both maps are scored where the triangulation is valid: the refined
        # map also covers inpainted pixels, but one mask keeps them comparable
        scorer = Scorer(fileio.read_pfm(gt_path), init.valid)
        with pool(min(cfg.workers, 2), "score") as executor:
            initial_report, (refined_report, corr, sweep) = _score_maps(
                scorer, init.depth, result.depth, result.uncertainty, cfg.sweep_threshold_list(), executor
            )
        entries += _metric_entries("initial", initial_report) + _metric_entries("refined", refined_report)
        entries += _uncertainty_entries(corr)
        summary.update(
            {"initial_report": initial_report, "refined_report": refined_report, "corr": corr, "sweep": sweep}
        )
        summary["lines"] = [f"initial rmse = {initial_report.rmse:.6g}", f"refined rmse = {refined_report.rmse:.6g}"]
    else:
        summary["lines"] = ["estimate complete (no ground truth found, metrics skipped)"]

    # written only now, so a run that fails leaves out_dir as it found it
    out = root / cfg.out_dir
    _write_initial(init, out)
    _write_refined(result, out)
    if "sweep" in summary:
        fileio.write_lines(out / SWEEP_FILE, sweep_csv_lines(summary["sweep"]))
    _write_reports(out, entries)
    return summary


def cmd_ablate(cfg: RunConfig, root) -> dict:
    """Sweep iteration counts and confidence-input variants on one bundle.

    Emits one CSV row per (weight mode, iteration count), in the grid's order.
    One run per mode scores each grid iterate as refine makes it (Jacobi
    iterates do not depend on the total count), so one iterate is held at a time.
    """
    root = Path(root)
    keyframe, selection, init, warnings = _triangulate_stage(cfg, root)
    scorer = Scorer(fileio.read_pfm(root / cfg.gt_depth), init.valid)
    intensity = fileio.read_image(root / cfg.image)
    iteration_grid = cfg.ablate_iteration_list()

    initial_report = scorer.report(init.depth)
    reports: dict[tuple[str, int], MetricReport] = {}
    for mode in WEIGHT_MODES:
        rc = dataclasses.replace(cfg.refine_config(), weight_mode=mode, iterations=max(iteration_grid))

        def score(k, d):
            if k in iteration_grid:
                reports[(mode, k)] = scorer.report(d)

        refine(init.depth, build_weights(init, intensity, rc), rc, workers=cfg.workers, on_iterate=score)
    rows = [((mode, f"{k}"), reports[(mode, k)]) for mode in WEIGHT_MODES for k in iteration_grid]
    csv_path = root / cfg.out_dir / ABLATION_FILE
    fileio.write_lines(csv_path, csv_lines(("weight_mode", "iterations"), rows))
    return {
        "keyframe": keyframe,
        "selection": selection,
        "warnings": warnings,
        "initial_report": initial_report,
        "reports": reports,
        "lines": [f"wrote {csv_path}"],
    }


def cmd_eval(cfg: RunConfig, root) -> dict:
    """Score an existing predicted depth map against ground truth."""
    root = Path(root)
    out = root / cfg.out_dir
    pred = fileio.read_pfm(root / cfg.pred_depth if cfg.pred_depth else out / REFINED_DEPTH_FILE)
    prediction = Scorer(fileio.read_pfm(root / cfg.gt_depth), np.isfinite(pred)).prediction(pred)
    summary: dict = {"warnings": []}
    sigma_path = root / cfg.sigma_map if cfg.sigma_map else out / SIGMA_FILE
    # a sigma_map that is set must be read; the default is scored when estimate wrote it
    if cfg.sigma_map or sigma_path.is_file():
        sigma = fileio.read_pfm(sigma_path)
        with pool(min(cfg.workers, 2), "score") as executor:
            report, corr, sweep = prediction.score(sigma, cfg.sweep_threshold_list(), executor)
        entries = _metric_entries("eval", report) + _uncertainty_entries(corr)
        summary.update({"corr": corr, "sweep": sweep})
        fileio.write_lines(out / SWEEP_FILE, sweep_csv_lines(sweep))
    else:
        report = prediction.report()
        entries = _metric_entries("eval", report)
    summary["report"] = report
    summary["lines"] = _write_reports(out, entries)
    return summary


def cmd_select(cfg: RunConfig, root) -> dict:
    """Run frame selection only; its lines are the selected indices, one per line."""
    _, keyframe, selection, warnings = _select(cfg, Path(root))
    lines = [str(index) for index in selection.indices]
    return {"keyframe": keyframe, "selection": selection, "warnings": warnings, "lines": lines}


# Every subcommand: its command and its help text. Each command takes
# (cfg, root) and returns a summary whose "lines" the CLI prints to stdout
# and whose "warnings" it prints to stderr.
COMMANDS = {
    "synth": (cmd_synth, "render a synthetic bundle (trajectory, flow, depth, texture)"),
    "select": (cmd_select, "print the adjacent frames chosen for the keyframe"),
    "triangulate": (cmd_triangulate, "triangulate the initial depth and confidence maps"),
    "refine": (cmd_refine, "refine a triangulated depth map already in out_dir"),
    "estimate": (cmd_estimate, "full chain: select, triangulate, refine, evaluate"),
    "ablate": (cmd_ablate, "sweep iteration counts and confidence variants"),
    "eval": (cmd_eval, "score a predicted depth map against ground truth"),
}
