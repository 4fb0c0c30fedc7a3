import dataclasses
import math
import platform
import re
import shutil
import threading
from pathlib import Path

import numpy as np
import pytest

from triad import (
    ConfigError,
    FlowField,
    Intrinsics,
    RefineConfig,
    RelativePose,
    SceneSettings,
    SelectionPolicy,
    TriangulationInput,
    build_weights,
    evaluate,
    refine,
    triangulate_map,
)
import triad.workers as workers_module
from triad import cli, pipeline
from triad.cli import MMAP_THRESHOLD, build_parser, fix_heap_thresholds, main
from triad.fileio import read_flow, read_image, read_pfm, write_flow, write_image, write_pfm
from triad.metrics import SPEARMAN_MIN_PIXELS, csv_lines
from triad.triangulate import DEFAULT_D_MAX, DEFAULT_H_EPS
from triad.pipeline import (
    SELECTION_KEYS,
    RunConfig,
    cmd_ablate,
    cmd_estimate,
    cmd_synth,
    load_run_config,
    parse_config_file,
    synthesize,
)

from helpers import read_keyvalues, suite_case


def run_cli(*args):
    return main(list(args))


def synth_opts(**overrides):
    base = {
        "width": 160,
        "height": 120,
        "fx": 200.0,
        "fy": 200.0,
        "sigma_flow": 0.5,
        "outlier_rate": 0.02,
        "seed": 7,
        "fixed_step": 1,
    }
    base.update(overrides)
    return [f"--opt={k}={v}" for k, v in base.items()]


# at 320x240 refinement has three row bands, so two or more workers split them
QVGA = {"width": 320, "height": 240, "fx": 400.0, "fy": 400.0}


@pytest.fixture(scope="module")
def qvga_bundle(tmp_path_factory):
    root = tmp_path_factory.mktemp("qvga")
    assert run_cli("synth", "--root", str(root), *synth_opts(**QVGA)) == 0
    return root


def record_thread_starts(monkeypatch) -> list:
    """Every thread started from now on, appended as it starts."""
    started = []
    start = threading.Thread.start

    def recording_start(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", recording_start)
    return started


class TestConfigLoading:
    def test_defaults(self):
        cfg = load_run_config()
        assert cfg.iterations == 7
        assert cfg.selection_mode == "fixed"

    def test_file_env_flag_precedence(self, tmp_path, monkeypatch):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("# comment\nmu = 2.0\nkappa = 0.4\nseed = 3\n")
        monkeypatch.setenv("TRIAD_KAPPA", "0.5")
        monkeypatch.setenv("TRIAD_OMEGA", "0.8")
        import os

        cfg = load_run_config(cfg_file, overrides=["omega=0.7"], env=os.environ)
        assert cfg.mu == 2.0  # file
        assert cfg.kappa == 0.5  # env beats file
        assert cfg.omega == 0.7  # flag beats env
        assert cfg.seed == 3

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            load_run_config(overrides=["not_a_key=1"])

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            load_run_config(overrides=["iterations=seven"])

    def test_missing_config_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_run_config(tmp_path / "absent.cfg")

    def test_malformed_config_line(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("mu 2.0\n")
        with pytest.raises(ConfigError):
            parse_config_file(bad)

    def test_infinite_sweep_threshold_is_legal(self):
        cfg = load_run_config(overrides=["sweep_thresholds=inf 0.5"])
        assert cfg.sweep_threshold_list() == [math.inf, 0.5]

    @pytest.mark.parametrize(
        "bad, message",
        [("h_eps=nan", "h_eps must be a finite nonnegative number"),
         ("d_max=-1", "d_max must be positive and finite"),
         ("sweep_thresholds=0.5 nan", "sweep_thresholds must be positive numbers"),
         ("sweep_thresholds=", "sweep_thresholds must be positive numbers")],
    )
    def test_layer_rules_fail_as_config_errors(self, bad, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            load_run_config(overrides=[bad])

    def test_middle_keyframe_default(self):
        from triad.pipeline import resolve_keyframe

        assert resolve_keyframe(RunConfig(), 5) == 2
        assert resolve_keyframe(RunConfig(keyframe=4), 5) == 4
        with pytest.raises(ConfigError):
            resolve_keyframe(RunConfig(keyframe=9), 5)


    def test_defaults_match_their_owners(self):
        run_defaults = {f.name: f.default for f in dataclasses.fields(RunConfig)}
        owned = [(f.name, f.default) for f in dataclasses.fields(RefineConfig)]
        owned += [(SELECTION_KEYS.get(f.name, f.name), f.default) for f in dataclasses.fields(SelectionPolicy)]
        owned += [(f.name, f.default) for f in dataclasses.fields(SceneSettings)]
        owned += [("h_eps", DEFAULT_H_EPS), ("d_max", DEFAULT_D_MAX)]
        for key, default in owned:
            assert run_defaults[key] == default, key

    def test_refine_config_fields_are_run_config_keys(self):
        assert RunConfig().refine_config() == RefineConfig()

    def test_scene_settings_fields_are_run_config_keys(self):
        assert RunConfig().scene_settings() == SceneSettings()
        cfg = RunConfig(
            n_bumps=2, base_depth=3.0, bump_amplitude=0.5, bump_sigma_lo=0.1, bump_sigma_hi=0.2, texture_cutoff=0.04
        )
        assert cfg.scene_settings() == SceneSettings(2, 3.0, 0.5, 0.1, 0.2, 0.04)

    def test_selection_policy_fields_are_run_config_keys(self):
        assert RunConfig().selection_policy() == SelectionPolicy()
        cfg = RunConfig(selection_mode="adaptive", sel_n_frames=3, fixed_step=2, theta_min=0.1, t_min=0.2, anchor="keyframe")
        assert cfg.selection_policy() == SelectionPolicy("adaptive", 3, 2, 0.1, 0.2, "keyframe")

    def test_readme_configuration_table_lists_run_config_defaults(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
        rows = [line.split(" | ") for line in section.splitlines() if line.startswith("| `")]
        assert rows
        defaults = {f.name: f.default for f in dataclasses.fields(RunConfig)}
        for cells in rows:
            keys = re.findall(r"`(\w+)`", cells[0])
            values = [value.strip().strip("`") for value in cells[1].split(",")]
            assert len(keys) == len(values), cells
            for key, value in zip(keys, values):
                # a listed default, read as a config value, is the field's default
                assert key in defaults, key
                assert getattr(load_run_config(overrides=[f"{key}={value}"]), key) == defaults[key], key


class TestSynthBundle:
    def test_byte_identical_across_runs(self, tmp_path):
        for name in ("a", "b"):
            assert run_cli("synth", "--root", str(tmp_path / name), *synth_opts()) == 0
        files_a = sorted(p for p in (tmp_path / "a").rglob("*") if p.is_file())
        files_b = sorted(p for p in (tmp_path / "b").rglob("*") if p.is_file())
        assert [p.name for p in files_a] == [p.name for p in files_b]
        for pa, pb in zip(files_a, files_b):
            assert pa.read_bytes() == pb.read_bytes(), pa.name

    def test_manifest_lists_expected_file_count(self, tmp_path):
        assert run_cli("synth", "--root", str(tmp_path), *synth_opts()) == 0
        lines = (tmp_path / "manifest.txt").read_text().splitlines()
        file_lines = [l for l in lines if l.startswith("file = ")]
        n_frames = 5
        assert len(file_lines) == 2 * (n_frames - 1) + 1 + 1 + 2
        for line in file_lines:
            assert (tmp_path / line.removeprefix("file = ")).is_file()

    def test_non_ascii_flow_dir(self, tmp_path):
        opts = synth_opts(flow_dir="flöw")
        assert run_cli("synth", "--root", str(tmp_path), *opts) == 0
        lines = (tmp_path / "manifest.txt").read_text(encoding="utf-8").splitlines()
        assert lines[:2] == ["seed = 7", "noise_seed = 8"]
        files = [line.removeprefix("file = ") for line in lines if line.startswith("file = ")]
        assert len(files) == 4 + 2 * 4
        assert sum(name.startswith("flöw/") for name in files) == 2 * 4
        assert all((tmp_path / name).is_file() for name in files)
        assert run_cli("estimate", "--root", str(tmp_path), *opts) == 0

    def test_synth_over_longer_files_writes_the_same_bytes(self, tmp_path):
        # each output replaces a longer file of the same name completely
        fresh, reused = tmp_path / "fresh", tmp_path / "reused"
        assert run_cli("synth", "--root", str(fresh), *synth_opts()) == 0
        files = sorted(p.relative_to(fresh) for p in fresh.rglob("*") if p.is_file())
        for name in files:
            (reused / name).parent.mkdir(parents=True, exist_ok=True)
            (reused / name).write_bytes(b"\xff" * ((fresh / name).stat().st_size + 4096))
        assert run_cli("synth", "--root", str(reused), *synth_opts()) == 0
        for name in files:
            assert (reused / name).read_bytes() == (fresh / name).read_bytes(), name

    def test_zero_noise_corrupted_flow_equals_exact(self, tmp_path):
        assert run_cli(
            "synth", "--root", str(tmp_path), *synth_opts(sigma_flow=0.0, outlier_rate=0.0)
        ) == 0
        for index in (0, 1, 3, 4):
            exact = (tmp_path / "flow" / f"exact_{index:04d}.flo").read_bytes()
            noisy = (tmp_path / "flow" / f"noisy_{index:04d}.flo").read_bytes()
            assert exact == noisy


class TestEstimate:
    @pytest.fixture(scope="class")
    @staticmethod
    def bundle(tmp_path_factory):
        root = tmp_path_factory.mktemp("bundle")
        assert run_cli("synth", "--root", str(root), *synth_opts()) == 0
        assert run_cli("estimate", "--root", str(root), *synth_opts()) == 0
        return root

    def test_report_contains_both_metric_blocks(self, bundle):
        text = (bundle / "out" / "report.txt").read_text()
        assert "[initial]" in text
        assert "[refined]" in text
        kv = read_keyvalues(bundle / "out" / "report.kv")
        assert "initial.rmse" in kv
        assert "refined.rmse" in kv
        assert "uncertainty.spearman_rho" in kv

    def test_outputs_exist(self, bundle):
        out = bundle / "out"
        for name in (
            "depth_initial.pfm",
            "conf_h.pfm",
            "conf_r.pfm",
            "depth_refined.pfm",
            "sigma.pfm",
            "objective.txt",
            "sweep.csv",
        ):
            assert (out / name).is_file(), name

    def test_objective_log_is_monotone(self, bundle):
        lines = (bundle / "out" / "objective.txt").read_text().splitlines()
        values = [float(line.split()[1]) for line in lines]
        assert len(values) == 7 + 1
        assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))

    def test_every_output_raster_round_trips(self, bundle, tmp_path):
        for pfm in sorted((bundle / "out").glob("*.pfm")):
            img = read_pfm(pfm)
            write_pfm(img, tmp_path / "copy.pfm")
            assert (tmp_path / "copy.pfm").read_bytes() == pfm.read_bytes(), pfm.name
        for flo in sorted((bundle / "flow").glob("*.flo")):
            write_flow(read_flow(flo), tmp_path / "copy.flo")
            assert (tmp_path / "copy.flo").read_bytes() == flo.read_bytes(), flo.name
        texture = bundle / "texture.pgm"
        write_image(read_image(texture), tmp_path / "copy.pgm")
        assert (tmp_path / "copy.pgm").read_bytes() == texture.read_bytes()

    def test_estimate_reruns_byte_identical(self, bundle):
        for out in ("det_a", "det_b"):
            assert run_cli(
                "estimate", "--root", str(bundle), *synth_opts(), f"--opt=out_dir={out}"
            ) == 0
        files = sorted((bundle / "det_a").iterdir())
        assert files
        for fa in files:
            fb = bundle / "det_b" / fa.name
            assert fa.read_bytes() == fb.read_bytes(), fa.name

    def test_rerun_over_longer_files_writes_the_same_bytes(self, bundle):
        fresh, reused = bundle / "out", bundle / "reused"
        reused.mkdir()
        for f in fresh.iterdir():
            (reused / f.name).write_bytes(b"\xff" * (f.stat().st_size + 4096))
        assert run_cli("estimate", "--root", str(bundle), *synth_opts(), "--opt=out_dir=reused") == 0
        for f in fresh.iterdir():
            assert (reused / f.name).read_bytes() == f.read_bytes(), f.name

    @staticmethod
    def assert_workers_do_not_change(bundle, command, written="sweep.csv", **scene):
        outs = {workers: f"{command}_w{workers}" for workers in (1, 2, 8)}
        for workers, out in outs.items():
            opts = [*synth_opts(**scene), f"--opt=workers={workers}", f"--opt=out_dir={out}"]
            if command == "refine":  # refine reads the initial maps from its out_dir
                assert run_cli("triangulate", "--root", str(bundle), *opts) == 0
            if command == "eval":  # eval scores the maps the bundle's estimate wrote into out/
                opts += ["--opt=pred_depth=out/depth_refined.pfm", "--opt=sigma_map=out/sigma.pfm"]
            assert run_cli(command, "--root", str(bundle), *opts) == 0
        files1 = sorted((bundle / outs[1]).iterdir())
        assert written in [f.name for f in files1]
        for f1 in files1:
            for workers in (2, 8):
                assert f1.read_bytes() == (bundle / outs[workers] / f1.name).read_bytes(), (f1.name, workers)

    def test_workers_do_not_change_outputs(self, bundle):
        self.assert_workers_do_not_change(bundle, "estimate")

    def test_workers_do_not_change_eval_outputs(self, bundle):
        self.assert_workers_do_not_change(bundle, "eval")

    def test_workers_do_not_change_refine_outputs(self, qvga_bundle):
        self.assert_workers_do_not_change(qvga_bundle, "refine", "objective.txt", **QVGA)

    def test_workers_do_not_change_ablate_outputs(self, qvga_bundle):
        self.assert_workers_do_not_change(qvga_bundle, "ablate", "ablation.csv", **QVGA)

    def test_noise_free_chain_is_exact(self, tmp_path):
        # exactness degrades with pixel-space curvature, so run at full size
        root = tmp_path / "clean"
        opts = synth_opts(sigma_flow=0.0, outlier_rate=0.0, width=320, height=240, fx=400.0, fy=400.0)
        assert run_cli("synth", "--root", str(root), *opts) == 0
        assert run_cli("estimate", "--root", str(root), *opts) == 0
        kv = read_keyvalues(root / "out" / "report.kv")
        gt = read_pfm(root / "depth_gt.pfm")
        assert float(kv["initial.rmse"]) < 1e-6 * np.nanmean(gt)
        assert float(kv["refined.rmse"]) < 1e-4

    def test_triangulate_then_refine_matches_estimate(self, bundle):
        # estimate refines the float32 maps triangulate writes, so the staged
        # path, which reads them back from the files, writes the same bytes
        names = ("depth_initial.pfm", "conf_h.pfm", "conf_r.pfm", "depth_refined.pfm", "sigma.pfm", "objective.txt")
        for workers in (1, 2):
            opts = [*synth_opts(), f"--opt=workers={workers}"]
            direct, staged = f"direct_w{workers}", f"staged_w{workers}"
            assert run_cli("estimate", "--root", str(bundle), *opts, f"--opt=out_dir={direct}") == 0
            assert run_cli("triangulate", "--root", str(bundle), *opts, f"--opt=out_dir={staged}") == 0
            assert run_cli("refine", "--root", str(bundle), *opts, f"--opt=out_dir={staged}") == 0
            for name in names:
                want = (bundle / direct / name).read_bytes()
                assert (bundle / staged / name).read_bytes() == want, (name, workers)

    def test_estimate_without_ground_truth_skips_metrics(self, tmp_path, capsys):
        root = tmp_path / "nogt"
        opts = synth_opts()
        assert run_cli("synth", "--root", str(root), *opts) == 0
        (root / "depth_gt.pfm").unlink()
        assert run_cli("estimate", "--root", str(root), *opts) == 0
        assert "metrics skipped" in capsys.readouterr().out
        text = (root / "out" / "report.txt").read_text()
        assert "[run]" in text
        assert "[initial]" not in text
        assert (root / "out" / "depth_refined.pfm").is_file()

    def test_config_file_drives_cli(self, tmp_path):
        root = tmp_path / "cfgrun"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# synthetic run\nwidth = 96\nheight = 72\nfx = 120\nfy = 120\n"
            "sigma_flow = 0\noutlier_rate = 0\nfixed_step = 1\n"
        )
        assert run_cli("synth", "--root", str(root), "--config", str(cfg)) == 0
        assert run_cli("estimate", "--root", str(root), "--config", str(cfg)) == 0
        depth = read_pfm(root / "out" / "depth_refined.pfm")
        assert depth.shape == (72, 96)

    def test_selection_shortfall_recorded_as_warning(self, tmp_path):
        root = tmp_path / "short"
        opts = synth_opts(n_frames=4, keyframe=0)
        assert run_cli("synth", "--root", str(root), *opts) == 0
        assert run_cli("estimate", "--root", str(root), *opts) == 0
        kv = read_keyvalues(root / "out" / "report.kv")
        assert kv["run.shortfall"] == "true"
        assert "run.warning" in kv


class TestEvalCommand:
    def test_eval_scores_written_prediction(self, tmp_path, capsys):
        root = tmp_path / "e"
        opts = synth_opts()
        assert run_cli("synth", "--root", str(root), *opts) == 0
        assert run_cli("estimate", "--root", str(root), *opts) == 0
        assert run_cli("eval", "--root", str(root), *opts) == 0
        printed = capsys.readouterr().out
        assert "rmse" in printed
        # eval rewrites the report files for the prediction it scored
        kv = read_keyvalues(root / "out" / "report.kv")
        assert "eval.rmse" in kv
        assert "uncertainty.spearman_rho" in kv  # sigma map was present

    def test_eval_follows_out_dir(self, tmp_path):
        # a stale map in the default out/ must not be what eval scores for out_dir=o2
        root = tmp_path / "o"
        opts = synth_opts(width=96, height=72, fx=120.0, fy=120.0)
        assert run_cli("synth", "--root", str(root), *opts) == 0
        assert run_cli("estimate", "--root", str(root), *opts, "--opt=iterations=0") == 0
        assert run_cli("estimate", "--root", str(root), *opts, "--opt=out_dir=o2") == 0
        named = ["--opt=pred_depth=o2/depth_refined.pfm", "--opt=sigma_map=o2/sigma.pfm", "--opt=out_dir=o3"]
        assert run_cli("eval", "--root", str(root), *opts, *named) == 0
        assert run_cli("eval", "--root", str(root), *opts, "--opt=out_dir=stale") == 2
        assert run_cli("eval", "--root", str(root), *opts, "--opt=out_dir=o2") == 0
        for name in ("report.txt", "report.kv", "sweep.csv"):
            assert (root / "o2" / name).read_bytes() == (root / "o3" / name).read_bytes(), name
        assert not (root / "stale").exists()

    def test_eval_reports_full_coverage_metrics(self, tmp_path):
        root = tmp_path / "e2"
        gt = np.full((8, 8), 2.0, dtype=np.float32)
        pred = gt + 0.1
        (root / "out").mkdir(parents=True)
        write_pfm(gt, root / "depth_gt.pfm")
        write_pfm(pred, root / "out" / "depth_refined.pfm")
        assert run_cli("eval", "--root", str(root)) == 0
        kv = read_keyvalues(root / "out" / "report.kv")
        assert float(kv["eval.rmse"]) == pytest.approx(0.1, rel=1e-5)


class TestEvalSigmaShape:
    def test_sigma_size_mismatch_is_two_before_any_report(self, tmp_path, capsys):
        root = tmp_path / "sigma"
        opts = synth_opts(width=32, height=24, fx=40.0, fy=40.0)
        assert run_cli("synth", "--root", str(root), *opts) == 0
        assert run_cli("estimate", "--root", str(root), *opts) == 0
        out = root / "out"
        written = [out / name for name in ("report.txt", "report.kv", "sweep.csv")]
        for path in written:
            path.unlink()
        write_pfm(np.full((10, 10), 0.1, dtype=np.float32), out / "sigma.pfm")
        capsys.readouterr()
        assert run_cli("eval", "--root", str(root), *opts) == 2
        assert "sigma shape (10, 10) != depth shape (24, 32)" in capsys.readouterr().err
        assert not any(path.exists() for path in written)


class TestParserReuse:
    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_options_do_not_leak_between_calls(self, tmp_path, monkeypatch, capsys):
        seen = []
        load = cli.load_run_config

        def recording_load(path, opts, env):
            seen.append(list(opts))
            return load(path, opts, env)

        monkeypatch.setattr(cli, "load_run_config", recording_load)
        root = str(tmp_path / "p")
        assert run_cli("synth", "--root", root, *synth_opts()) == 0
        capsys.readouterr()
        printed = []
        for opts in (["--opt=fixed_step=1"], ["--opt=fixed_step=2", "--opt=sel_n_frames=2"], []):
            assert run_cli("select", "--root", root, *opts) == 0
            printed.append(capsys.readouterr().out)
        assert seen[1:] == [["fixed_step=1"], ["fixed_step=2", "sel_n_frames=2"], []]
        assert printed[0] != printed[1]
        assert build_parser().parse_args(["select"]).opt == []

    def test_usage_error_still_exits_one(self, tmp_path):
        root = str(tmp_path / "u")
        assert run_cli("select", "--root", root, "--bogus") == 1
        assert run_cli("synth", "--root", root, *synth_opts()) == 0
        assert run_cli("select", "--root", root, "--opt") == 1
        assert run_cli("select", "--root", root) == 0


class TestSelectCommand:
    def test_prints_indices_one_per_line(self, tmp_path, capsys):
        root = tmp_path / "s"
        opts = synth_opts()
        assert run_cli("synth", "--root", str(root), *opts) == 0
        capsys.readouterr()  # drop the synth summary line
        assert run_cli("select", "--root", str(root), *opts) == 0
        printed = capsys.readouterr().out.strip().splitlines()
        assert printed == ["0", "1", "3", "4"]


class TestExitCodes:
    def test_usage_error_is_one(self):
        assert run_cli("not-a-command") == 1

    def test_bad_override_is_one(self, tmp_path):
        assert run_cli("synth", "--root", str(tmp_path), "--opt=bogus_key=1") == 1

    def test_missing_config_file_is_one(self, tmp_path):
        assert run_cli("synth", "--root", str(tmp_path), "--config", str(tmp_path / "nope.cfg")) == 1

    def test_missing_data_is_two(self, tmp_path):
        assert run_cli("estimate", "--root", str(tmp_path)) == 2

    @staticmethod
    def _bad_trajectory_is_two_before_any_output(root, capsys, command, text, message):
        opts = synth_opts(width=32, height=24, fx=40.0, fy=40.0)
        assert run_cli("synth", "--root", str(root), *opts) == 0
        (root / "trajectory.txt").write_text(text)
        before = sorted(root.rglob("*"))
        capsys.readouterr()
        assert run_cli(command, "--root", str(root), *opts) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip() == f"data error: {message}"
        assert sorted(root.rglob("*")) == before

    @pytest.mark.parametrize("command", ["select", "estimate"])
    def test_empty_trajectory_is_two_before_any_output(self, tmp_path, capsys, command):
        root = tmp_path / "e"
        message = f"{root / 'trajectory.txt'}: no poses"
        self._bad_trajectory_is_two_before_any_output(root, capsys, command, "", message)

    @pytest.mark.parametrize("command", ["select", "estimate"])
    @pytest.mark.parametrize(
        "text",
        [
            # a later infinite timestamp passes the increasing check, and a
            # lone NaN timestamp has no neighbour to be compared with
            "0 0 0 0 0 0 0 1\ninf 0.1 0 0 0 0 0 1\n",
            "nan 0 0 0 0 0 0 1\n",
        ],
    )
    def test_non_finite_timestamp_is_two_before_any_output(self, tmp_path, capsys, command, text):
        message = "timestamps must be finite"
        self._bad_trajectory_is_two_before_any_output(tmp_path / "t", capsys, command, text, message)

    def test_corrupt_flow_file_is_two(self, tmp_path):
        root = tmp_path / "c"
        opts = synth_opts()
        assert run_cli("synth", "--root", str(root), *opts) == 0
        victim = root / "flow" / "noisy_0000.flo"
        victim.write_bytes(b"XXXX" + victim.read_bytes()[4:])
        assert run_cli("estimate", "--root", str(root), *opts) == 2

    def test_no_selectable_frames_is_three(self, tmp_path):
        root = tmp_path / "z"
        opts = synth_opts(vx=0.0)  # stationary camera
        assert run_cli("synth", "--root", str(root), *opts) == 0
        code = run_cli(
            "estimate", "--root", str(root), *opts, "--opt=selection_mode=adaptive"
        )
        assert code == 3

    @pytest.mark.parametrize(
        "bad",
        ["omega=2", "iterations=-1", "selection_mode=bogus", "fixed_step=0", "sweep_thresholds=-1"]
        + [f"{key}=nan" for key in ("mu", "kappa", "tau", "w_max", "sigma_min", "beta", "sigma_cap")]
        + ["mu=inf", "sweep_thresholds=nan", "sweep_thresholds=0.5 nan", "h_eps=nan", "d_max=nan", "d_max=-1"]
        + ["workers=0", "workers=-3", "fx=inf", "cx=1000", "ablate_iterations=0 1 1"]
        + ["theta_min=nan", "t_min=nan", "cx=nan", "cy=nan"],
    )
    def test_bad_derived_setting_is_one_before_any_output(self, tmp_path, bad):
        root = tmp_path / "bad"
        opts = synth_opts()
        assert run_cli("synth", "--root", str(root), *opts) == 0
        assert run_cli("estimate", "--root", str(root), *opts, f"--opt={bad}") == 1
        out = root / "out"
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize(
        "bad",
        ["sigma_flow=nan", "sigma_flow=-1", "sigma_flow=inf", "sigma_flow=2e9"]
        + ["outlier_rate=nan", "outlier_rate=1.5", "outlier_span=-1", "outlier_span=inf", "outlier_span=nan"]
        + ["bump_amplitude=inf", "bump_amplitude=-0.1", "bump_sigma_lo=nan", "bump_sigma_lo=0"]
        + ["bump_sigma_lo=0.5", "bump_sigma_hi=-1", "bump_sigma_hi=inf", "n_bumps=-1"]
        + ["base_depth=nan", "base_depth=0", "base_depth=inf", "texture_cutoff=nan", "texture_cutoff=0"]
        + ["seed=-1"]
        + ["vx=inf", "vy=nan", "vz=-inf", "yaw_rate=nan", "yaw_rate=inf", "dt=nan", "dt=0", "dt=inf", "n_frames=0"]
        + ["trajectory_kind=orbit orbit_radius=nan", "trajectory_kind=stop_and_go move=0", "trajectory_kind=foo"]
        + ["keyframe=5"]
        + ["width=0", "height=-5", "fx=-1", "fy=nan", "cx=1000", "fx=inf", "workers=0", "workers=-3"],
    )
    def test_bad_synth_setting_is_one_before_any_output(self, tmp_path, capsys, bad):
        root = tmp_path / "bad"
        opts = ["--opt=width=32", "--opt=height=24", "--opt=fx=40", "--opt=fy=40"]
        assert run_cli("synth", "--root", str(root), *opts, *(f"--opt={b}" for b in bad.split())) == 1
        assert "config error" in capsys.readouterr().err
        assert not root.exists() or not any(root.iterdir())

    def test_default_settings_compose(self, tmp_path):
        # synth's default bundle holds the 4 frames around its keyframe, which default selection takes
        root = str(tmp_path / "defaults")
        assert run_cli("synth", "--root", root) == 0
        assert run_cli("estimate", "--root", root) == 0
        written = sorted(path.name for path in (tmp_path / "defaults" / "out").iterdir())
        assert written == sorted(
            ["depth_initial.pfm", "conf_h.pfm", "conf_r.pfm", "depth_refined.pfm", "sigma.pfm"]
            + ["objective.txt", "report.txt", "report.kv", "sweep.csv"]
        )

    def test_orbit_bundle_keeps_its_adjacent_flow(self, tmp_path):
        # each orbit camera faces the circle's centre, where the keyframe's scene sits
        keys = dict(width=96, height=72, fx=100.0, fy=100.0, n_frames=12, trajectory_kind="orbit", seed=2, keyframe=6)
        *_, keyframe, frames = synthesize(RunConfig(**keys))
        kept = {index: exact.valid.mean() for index, _, exact, _ in frames if abs(index - keyframe) <= 2}
        assert len(kept) == 4 and min(kept.values()) > 0.8, kept
        root = str(tmp_path / "orbit")
        opts = [f"--opt={key}={value}" for key, value in keys.items()]
        assert run_cli("synth", "--root", root, *opts) == 0
        assert run_cli("estimate", "--root", root, *opts) == 0

    def test_tiny_map_reports_spearman_undefined(self, tmp_path):
        root = tmp_path / "tiny"
        opts = ["--opt=width=3", "--opt=height=3", "--opt=fx=4", "--opt=fy=4"]
        assert run_cli("synth", "--root", str(root), *opts) == 0
        assert run_cli("estimate", "--root", str(root), *opts, "--opt=fixed_step=1") == 0
        kv = read_keyvalues(root / "out" / "report.kv")
        assert int(kv["refined.n_evaluated"]) < SPEARMAN_MIN_PIXELS
        assert kv["uncertainty.spearman_defined"] == "false"
        assert kv["uncertainty.spearman_rho"] == "0"
        assert run_cli("eval", "--root", str(root), *opts) == 0
        assert read_keyvalues(root / "out" / "report.kv")["uncertainty.spearman_defined"] == "false"

    def test_all_pixels_degenerate_is_three(self, tmp_path):
        root = tmp_path / "deg"
        opts = synth_opts()
        assert run_cli("synth", "--root", str(root), *opts) == 0
        # a depth cap below the scene distance rejects every solve
        assert run_cli("estimate", "--root", str(root), *opts, "--opt=d_max=0.001") == 3


class TestAblate:
    @pytest.fixture(scope="class")
    @staticmethod
    def ablation(tmp_path_factory):
        root = tmp_path_factory.mktemp("ablate")
        opts = synth_opts()
        assert run_cli("synth", "--root", str(root), *opts) == 0
        cfg = load_run_config(overrides=[o.removeprefix("--opt=") for o in opts])
        summary = cmd_ablate(cfg, root)
        return root, summary

    def test_csv_covers_iteration_grid_and_modes(self, ablation):
        root, _ = ablation
        lines = (root / "out" / "ablation.csv").read_text().splitlines()
        assert len(lines) == 1 + 4 * 6
        body = [line.split(",") for line in lines[1:]]
        assert {row[0] for row in body} == {"full", "hessian_only", "residual_only", "constant"}
        assert {int(row[1]) for row in body} == {0, 1, 3, 5, 7, 9}

    def test_zero_iteration_row_equals_initial_metrics(self, ablation):
        _, summary = ablation
        for mode in ("full", "constant"):
            row = summary["reports"][(mode, 0)]
            assert row.rmse == summary["initial_report"].rmse
            assert row.abs_rel == summary["initial_report"].abs_rel

    def test_rows_equal_separate_refine_runs(self, ablation):
        root, summary = ablation
        opts = [o.removeprefix("--opt=") for o in synth_opts()]
        for mode in ("full", "residual_only"):
            for k in (0, 3, 9):
                extra = [f"weight_mode={mode}", f"iterations={k}", f"out_dir=single_{mode}_{k}"]
                cfg = load_run_config(overrides=opts + extra)
                single = cmd_estimate(cfg, root)
                gt = read_pfm(root / cfg.gt_depth).astype(np.float64)
                mask = single["init"].valid & np.isfinite(gt)
                assert evaluate(single["result"].depth, gt, mask) == summary["reports"][(mode, k)]

    def test_unsorted_grid_keeps_its_order(self, ablation):
        # refine shows the iterates in ascending order; the rows follow the grid
        root, _ = ablation
        opts = [o.removeprefix("--opt=") for o in synth_opts()]
        cfg = load_run_config(overrides=opts + ["ablate_iterations=9 0 3", "out_dir=unsorted"])
        cmd_ablate(cfg, root)
        lines = (root / "unsorted" / "ablation.csv").read_text().splitlines()
        modes = ("full", "hessian_only", "residual_only", "constant")
        assert [line.split(",")[:2] for line in lines[1:]] == [[m, k] for m in modes for k in ("9", "0", "3")]
        for line in lines[1:]:
            mode, k = line.split(",")[:2]
            extra = [f"weight_mode={mode}", f"iterations={k}", f"out_dir=single_{mode}_{k}"]
            single = cmd_estimate(load_run_config(overrides=opts + extra), root)
            assert csv_lines(("weight_mode", "iterations"), [((mode, k), single["refined_report"])])[1] == line

    def test_full_confidence_beats_constant_in_median(self):
        full, constant = [], []
        for seed in range(20):
            case_kw = dict(width=160, height=120, fx=200.0, fy=200.0)
            full_case = suite_case(seed, **case_kw)
            gt, mask = full_case["gt"], full_case["mask"]
            full.append(evaluate(full_case["result"].depth, gt, mask).rmse)
            from triad import RefineConfig

            const_case = suite_case(
                seed, refine_cfg=RefineConfig(weight_mode="constant"), **case_kw
            )
            constant.append(evaluate(const_case["result"].depth, gt, mask).rmse)
        assert np.median(full) <= np.median(constant)


class TestScoringPool:
    @pytest.fixture(scope="class")
    @staticmethod
    def bundle(tmp_path_factory):
        root = tmp_path_factory.mktemp("pool")
        assert run_cli("synth", "--root", str(root), *synth_opts()) == 0
        return root

    @pytest.mark.parametrize("workers", [1, 2])
    def test_every_started_thread_is_joined(self, bundle, monkeypatch, workers):
        started = record_thread_starts(monkeypatch)
        before = threading.active_count()
        assert run_cli("estimate", "--root", str(bundle), *synth_opts(), f"--opt=workers={workers}") == 0
        assert threading.active_count() == before
        assert not any(thread.is_alive() for thread in started)
        assert bool(started) == (workers > 1)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("command", ["refine", "ablate"])
    def test_every_refine_thread_is_joined(self, qvga_bundle, monkeypatch, command, workers):
        opts = [*synth_opts(**QVGA), f"--opt=workers={workers}", f"--opt=out_dir=joined_{command}_{workers}"]
        if command == "refine":  # refine reads the initial maps from its out_dir
            assert run_cli("triangulate", "--root", str(qvga_bundle), *opts) == 0
        started = record_thread_starts(monkeypatch)
        before = threading.active_count()
        assert run_cli(command, "--root", str(qvga_bundle), *opts) == 0
        assert threading.active_count() == before
        assert not any(thread.is_alive() for thread in started)
        assert any(thread.name.startswith("refine") for thread in started) == (workers > 1)

    @pytest.mark.parametrize(
        "gt_value, code, message",
        [(-1.0, 2, "data error: depth must be positive on evaluated pixels"),
         (math.nan, 3, "numerical failure: no pixels to evaluate")],
    )
    def test_failing_scoring_exits_alike_for_any_worker_count(self, bundle, capsys, gt_value, code, message):
        # both maps fail on this ground truth, and the initial map's error is reported
        write_pfm(np.full((120, 160), gt_value, dtype=np.float32), bundle / "bad_gt.pfm")
        for workers in (1, 2, 8):
            before = threading.active_count()
            argv = ["--opt=gt_depth=bad_gt.pfm", f"--opt=workers={workers}", f"--opt=out_dir=bad_w{workers}"]
            assert run_cli("estimate", "--root", str(bundle), *synth_opts(), *argv) == code
            assert capsys.readouterr().err.strip() == message
            assert threading.active_count() == before


class TestThreadCount:
    """Triangulation and refinement start at most one thread per row band but one, whatever ``workers`` asks."""

    @pytest.mark.parametrize("width, height, workers, most", [(160, 120, 2, 0), (160, 120, 32, 0), (640, 480, 32, 9)])
    def test_threads_follow_the_bands(self, monkeypatch, width, height, workers, most):
        k = Intrinsics(fx=float(width), fy=float(width), cx=width / 2, cy=height / 2, width=width, height=height)
        flow = FlowField(np.zeros((height, width, 2)), np.ones((height, width), dtype=bool))
        inp = TriangulationInput(k, ((flow, RelativePose(np.eye(3), np.array([0.1, 0.0, 0.0]))),))
        cfg = RefineConfig(iterations=2)
        started = record_thread_starts(monkeypatch)
        init = triangulate_map(inp, workers=workers)
        assert len(started) <= most
        if most:
            assert all(thread.name.startswith("triangulate") for thread in started)
        triangulated = len(started)
        refine(init.depth, build_weights(init, np.zeros((height, width)), cfg), cfg, workers=workers)
        assert len(started) - triangulated <= most
        assert not any(thread.is_alive() for thread in started)


class TestFailingEstimate:
    """A failing estimate leaves its out_dir as it found it, and a failing ablate or eval makes none.

    Each for any worker count.
    """

    OTHER_SIZE = "data error: pred, gt, and mask must share one shape: gt 10x10, mask 72x96"
    HUGE_HEADER = "data error: {root}/huge.pfm: truncated PFM payload (28 < 4000000000024 bytes)"
    CASES = [
        ("image=small.pgm", 2, "data error: intensity shape must match the depth map"),
        ("gt_depth=not_pfm.pfm", 2, "data error: {root}/not_pfm.pfm: bad PFM magic b'hello'"),
        ("gt_depth=nan_gt.pfm", 3, "numerical failure: no pixels to evaluate"),
        ("gt_depth=small_gt.pfm", 2, OTHER_SIZE),
        ("gt_depth=huge.pfm", 2, HUGE_HEADER),
    ]

    @pytest.fixture(scope="class")
    @staticmethod
    def bundle(tmp_path_factory):
        root = tmp_path_factory.mktemp("failing")
        opts = synth_opts(width=96, height=72, fx=120.0, fy=120.0)
        assert run_cli("synth", "--root", str(root), *opts) == 0
        write_image(np.zeros((10, 10)), root / "small.pgm")
        (root / "not_pfm.pfm").write_bytes(b"hello\n")
        write_pfm(np.full((72, 96), np.nan, dtype=np.float32), root / "nan_gt.pfm")
        write_pfm(np.full((10, 10), 2.0, dtype=np.float32), root / "small_gt.pfm")
        (root / "huge.pfm").write_bytes(b"Pf\n1000000 1000000\n-1.0\n" + b"\0" * 4)
        assert run_cli("estimate", "--root", str(root), *opts, "--opt=out_dir=earlier") == 0
        return root, opts

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "bad, code, message", CASES, ids=["small-image", "gt-not-pfm", "gt-all-nan", "gt-other-size", "gt-huge-header"]
    )
    def test_writes_nothing(self, bundle, capsys, workers, bad, code, message):
        root, opts = bundle
        earlier = {path.name: path.read_bytes() for path in (root / "earlier").iterdir()}
        assert len(earlier) == 9
        for out_dir in (f"fresh_{workers}", "earlier"):
            capsys.readouterr()
            argv = [f"--opt={bad}", f"--opt=workers={workers}", f"--opt=out_dir={out_dir}"]
            assert run_cli("estimate", "--root", str(root), *opts, *argv) == code
            assert capsys.readouterr().err.strip() == message.format(root=root)
        assert not (root / f"fresh_{workers}").exists()
        assert {path.name: path.read_bytes() for path in (root / "earlier").iterdir()} == earlier

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("bad", ["truncated", "corrupt", "other-size", "shrinks-after-check"])
    def test_bad_last_selected_flow_writes_nothing(self, bundle, capsys, monkeypatch, workers, bad):
        # every selected flow file is checked before the first band is read,
        # and one that shrinks after its check fails its band read the same way
        root, opts = bundle
        monkeypatch.setattr(workers_module, "BAND_PIXELS", 1000)  # 7 bands, so 2 workers start a thread
        capsys.readouterr()
        assert run_cli("select", "--root", str(root), *opts) == 0
        last = int(capsys.readouterr().out.split()[-1])
        flow_dir = f"flow_{bad}_{workers}"
        shutil.copytree(root / "flow", root / flow_dir)
        path = root / flow_dir / f"noisy_{last:04d}.flo"
        data = path.read_bytes()
        truncated = f"data error: {path}: truncated flow payload ({len(data) - 5} < {len(data)} bytes)"
        if bad == "truncated":
            path.write_bytes(data[:-5])
            message = truncated
        elif bad == "corrupt":
            path.write_bytes(b"XXXX" + data[4:])
            message = f"data error: {path}: bad flow magic b'XXXX'"
        elif bad == "other-size":
            write_flow(np.zeros((72, 95, 2), dtype=np.float32), path)
            message = "data error: flow field is 95x72, intrinsics expect 96x72"
        else:
            triangulate_map = pipeline.triangulate_map

            def shrink_then_triangulate(*args, **kwargs):
                path.write_bytes(data[:-5])
                return triangulate_map(*args, **kwargs)

            monkeypatch.setattr(pipeline, "triangulate_map", shrink_then_triangulate)
            message = truncated
        earlier = {name.name: name.read_bytes() for name in (root / "earlier").iterdir()}
        before = threading.active_count()
        for out_dir in (f"fresh_{bad}_{workers}", "earlier"):
            argv = [f"--opt=flow_dir={flow_dir}", f"--opt=workers={workers}", f"--opt=out_dir={out_dir}"]
            assert run_cli("estimate", "--root", str(root), *opts, *argv) == 2
            assert capsys.readouterr().err.strip() == message
        assert not (root / f"fresh_{bad}_{workers}").exists()
        assert {name.name: name.read_bytes() for name in (root / "earlier").iterdir()} == earlier
        assert threading.active_count() == before

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "command, bad, message",
        [("ablate", "image=small.pgm", "data error: intensity shape must match the depth map"),
         ("eval", "sigma_map=not_pfm.pfm", "data error: {root}/not_pfm.pfm: bad PFM magic b'hello'"),
         ("ablate", "gt_depth=small_gt.pfm", OTHER_SIZE),
         ("eval", "gt_depth=small_gt.pfm", OTHER_SIZE),
         ("ablate", "gt_depth=huge.pfm", HUGE_HEADER),
         ("eval", "gt_depth=huge.pfm", HUGE_HEADER)],
        ids=["ablate-small-image", "eval-sigma-not-pfm", "ablate-gt-other-size", "eval-gt-other-size",
             "ablate-gt-huge-header", "eval-gt-huge-header"],
    )
    def test_ablate_and_eval_make_no_out_dir(self, bundle, capsys, workers, command, bad, message):
        root, opts = bundle
        out_dir = f"fresh_{command}_{workers}"
        argv = [f"--opt={bad}", "--opt=pred_depth=earlier/depth_refined.pfm", f"--opt=workers={workers}"]
        capsys.readouterr()
        assert run_cli(command, "--root", str(root), *opts, *argv, f"--opt=out_dir={out_dir}") == 2
        assert capsys.readouterr().err.strip() == message.format(root=root)
        assert not (root / out_dir).exists()


class TestLibraryEstimate:
    def test_summary_reports_match_disk(self, tmp_path):
        root = tmp_path / "lib"
        opts = [o.removeprefix("--opt=") for o in synth_opts()]
        cfg = load_run_config(overrides=opts)
        cmd_synth(cfg, root)
        summary = cmd_estimate(cfg, root)
        kv = read_keyvalues(root / "out" / "report.kv")
        assert float(kv["initial.rmse"]) == pytest.approx(summary["initial_report"].rmse, rel=1e-10)
        assert float(kv["refined.rmse"]) == pytest.approx(summary["refined_report"].rmse, rel=1e-10)
        assert kv["run.selected"] == "0 1 3 4"


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's")
class TestHeapThresholds:
    def test_thresholds_accepted(self):
        assert fix_heap_thresholds()

    def test_freed_block_is_reused_without_page_faults(self):
        import resource

        # With glibc's default thresholds a block this size is mapped on its
        # own and unmapped when freed, so filling it again faults every page.
        fix_heap_thresholds()
        n = (MMAP_THRESHOLD - (1 << 20)) // 8
        faults = []
        for _ in range(2):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            block = np.full(n, 1.0)
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
            del block
        assert faults[1] < 100, faults
