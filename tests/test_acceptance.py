"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The noisy evaluation suite (helpers.suite_case) is 20 seeded runs at
320x240 with 1 px flow noise and 3% outliers on a room-scale synthetic scene.
"""

import dataclasses
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from triad import (
    RefineConfig,
    RelativePose,
    SelectionPolicy,
    TriangulationInput,
    error_uncertainty_correlation,
    evaluate,
    laplacian_nll,
    refine,
    build_weights,
    select_frames,
    triangulate_map,
    uncertainty_sweep,
)
from triad.cli import main
from triad.fileio import read_pfm
from triad.metrics import DELTA_THRESHOLDS
from triad.pipeline import RunConfig, synthesize
from triad.synth import constant_velocity_trajectory
from triad.triangulate import InitialDepth
from helpers import (
    apply,
    golden_section_argmin,
    random_rotation,
    read_keyvalues,
    suite_case,
    triangulate_pixel,
    weight_maps,
)


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"\n[criterion {number:02d}] FAIL - {description}")
        raise
    print(f"\n[criterion {number:02d}] PASS - {description}")


@pytest.fixture(scope="module")
def suite_runs():
    return [suite_case(seed) for seed in range(20)]


def _rmse(pred, gt, mask):
    return float(np.sqrt(np.mean((pred[mask] - gt[mask]) ** 2)))


def test_criterion_01_triangulation_oracle_equivalence():
    with criterion(1, "closed-form depth matches 1-D search on >= 1000 random pixels"):
        rng = np.random.default_rng(2024)
        start = time.perf_counter()
        checked = 0
        while checked < 1000:
            n_views = int(rng.integers(1, 6))  # N in {2..6} counting the keyframe
            depth_true = rng.uniform(0.5, 10.0)
            m = np.array([rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5), 1.0])
            point = m * depth_true
            observations = []
            while len(observations) < n_views:
                rot = np.linalg.qr(np.eye(3) + 0.1 * (random_rotation(rng) - np.eye(3)))[0]
                if np.linalg.det(rot) < 0:
                    continue
                pose = RelativePose(rot, rng.uniform(-0.5, 0.5, 3))
                transformed = apply(pose, point)
                if transformed[2] < 0.2:
                    continue
                observations.append((transformed + 1e-3 * rng.standard_normal(3), pose))
            result = triangulate_pixel(m, observations)
            if result is None:
                continue
            # independent evaluation of the cost, minimized by golden section
            rays = np.array([s / np.linalg.norm(s) for s, _ in observations])
            rotated = np.array([pose.rotation @ m for _, pose in observations])
            translations = np.array([pose.translation for _, pose in observations])

            def cost(d):
                res = np.cross(rays, rotated * d + translations)
                return float(np.sum(res * res))

            argmin = golden_section_argmin(cost, 1e-6, 100.0)
            assert abs(result[0] - argmin) <= 1e-6 * result[0]
            checked += 1
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"oracle sweep took {elapsed:.1f}s"


def test_criterion_02_noise_free_end_to_end(tmp_path):
    with criterion(2, "zero-noise bundle: initial and refined depth are exact"):
        start = time.perf_counter()
        root = tmp_path / "clean"
        opts = [
            "--opt=sigma_flow=0",
            "--opt=outlier_rate=0",
            "--opt=fixed_step=1",
        ]
        assert main(["synth", "--root", str(root), *opts]) == 0
        assert main(["estimate", "--root", str(root), *opts]) == 0
        elapsed = time.perf_counter() - start
        kv = read_keyvalues(root / "out" / "report.kv")
        gt = read_pfm(root / "depth_gt.pfm").astype(np.float64)
        mean_depth = float(np.mean(gt))
        assert float(kv["initial.rmse"]) < 1e-6 * mean_depth
        assert float(kv["refined.rmse"]) < 1e-4
        assert elapsed < 30.0, f"end-to-end run took {elapsed:.1f}s"


def test_criterion_03_refinement_descent(tmp_path, suite_runs):
    with criterion(3, "objective log never increases (within 1e-9) on any run"):
        for case in suite_runs:
            objective = case["result"].objective
            assert all(b <= a + 1e-9 for a, b in zip(objective, objective[1:]))
        # and through the CLI objective log
        root = tmp_path / "run"
        opts = ["--opt=fixed_step=1", "--opt=width=160", "--opt=height=120", "--opt=fx=200", "--opt=fy=200"]
        assert main(["synth", "--root", str(root), *opts]) == 0
        assert main(["estimate", "--root", str(root), *opts]) == 0
        values = [
            float(line.split()[1])
            for line in (root / "out" / "objective.txt").read_text().splitlines()
        ]
        assert len(values) == 8
        assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))


def test_criterion_04_refinement_improvement(suite_runs):
    with criterion(4, "refined depth beats triangulated depth by >= 10% median RMSE"):
        initial, refined = [], []
        for case in suite_runs:
            gt, mask = case["gt"], case["mask"]
            initial.append(_rmse(case["init"].depth, gt, mask))
            refined.append(_rmse(case["result"].depth, gt, mask))
        assert np.median(refined) < np.median(initial)
        improvement = np.median([1.0 - r / i for i, r in zip(initial, refined)])
        assert improvement >= 0.10, f"median improvement {improvement:.1%}"


def test_criterion_05_jacobi_matches_direct_solve():
    with criterion(5, "500 Jacobi iterations agree with the dense normal-equation solve"):
        rng = np.random.default_rng(99)
        h = w = 4
        depth = rng.uniform(1.0, 3.0, (h, w))
        data_w = rng.uniform(0.5, 2.0, (h, w))
        init = InitialDepth(
            depth=depth, conf_h=np.ones((h, w)), conf_r=np.zeros((h, w)),
        )
        mu, omega = 0.5, 0.9
        weights = weight_maps(data_w, np.ones((h, w - 1)), np.ones((h - 1, w)), mu)
        result = refine(init, weights, RefineConfig(mu=mu, omega=omega, iterations=500))
        a = np.zeros((h * w, h * w))
        b = np.zeros(h * w)
        for y in range(h):
            for x in range(w):
                i = y * w + x
                a[i, i] += data_w[y, x]
                b[i] += data_w[y, x] * depth[y, x]
                for dy, dx in ((0, 1), (0, -1), (1, 0), (-1, 0)):
                    yy, xx = y + dy, x + dx
                    if 0 <= yy < h and 0 <= xx < w:
                        a[i, i] += mu
                        a[i, yy * w + xx] -= mu
        direct = np.linalg.solve(a, b).reshape(h, w)
        assert np.abs(result.depth - direct).max() <= 1e-6


def test_criterion_06_uncertainty_quality(suite_runs):
    with criterion(6, "sigma correlates with error; masking trades coverage for accuracy"):
        rhos = []
        for case in suite_runs:
            gt, mask = case["gt"], case["mask"]
            refined = case["result"].depth
            sigma = case["result"].uncertainty
            corr = error_uncertainty_correlation(refined, sigma, gt, mask)
            assert corr.defined
            rhos.append(corr.rho)
            # coverage must shrink monotonically as the threshold tightens
            rows = uncertainty_sweep(refined, sigma, gt, mask=mask)
            coverages = [row.coverage_percent for row in rows]
            assert all(b <= a for a, b in zip(coverages, coverages[1:]))
            # retaining the 90% most certain pixels must reduce RMSE
            t90 = float(np.percentile(sigma[mask], 90))
            full = evaluate(refined, gt, mask)
            kept = evaluate(refined, gt, mask & (sigma < t90))
            assert kept.rmse < full.rmse
        assert np.median(rhos) >= 0.3, f"median rho {np.median(rhos):.3f}"


def test_criterion_07_selection_equivalence_and_benefit():
    with criterion(7, "adaptive matches fixed at constant velocity and wins on stop-and-go"):
        # (a) exact index equality on constant-velocity trajectories
        speed, step = 0.0625, 2
        traj = constant_velocity_trajectory(40, velocity=(speed, 0, 0))
        adaptive = SelectionPolicy(mode="adaptive", n_frames=5, theta_min=np.pi, t_min=speed * step)
        fixed = SelectionPolicy(mode="fixed", n_frames=5, fixed_step=step)
        for keyframe in range(6, 34):
            assert (
                select_frames(traj, keyframe, adaptive).indices
                == select_frames(traj, keyframe, fixed).indices
            )

        # (b) stop-and-go: the fixed stride lands on dwelling frames
        stop_and_go = dict(n_frames=25, trajectory_kind="stop_and_go", vx=0.08, move=1, dwell=3)
        cfg = RunConfig(width=160, height=120, fx=200.0, fy=200.0, **stop_and_go)
        policies = {
            "fixed": SelectionPolicy(mode="fixed", n_frames=5, fixed_step=1),
            "adaptive": SelectionPolicy(mode="adaptive", n_frames=5, theta_min=np.pi, t_min=0.04),
        }
        wins = 0
        for seed in range(20):
            k, traj, scene, keyframe, frames = synthesize(dataclasses.replace(cfg, seed=seed, noise_seed=seed * 100))
            observations = {index: (noisy, pose) for index, pose, _, noisy in frames}
            gt = scene.depth_map()
            rmse = {}
            for name, policy in policies.items():
                selection = select_frames(traj, keyframe, policy)
                init = triangulate_map(TriangulationInput(k, tuple(observations[i] for i in selection.indices)))
                mask = init.valid & np.isfinite(gt)
                rmse[name] = _rmse(init.depth, gt, mask)
            if rmse["adaptive"] <= rmse["fixed"]:
                wins += 1
        assert wins >= 18, f"adaptive won only {wins}/20 runs"


def test_criterion_08_metric_self_consistency():
    with criterion(8, "metrics match direct recomputation and their scaling laws"):
        gt = np.array([1.0, 2.0, 4.0])
        pred = np.array([1.1, 2.0, 3.0])
        report = evaluate(pred, gt)
        assert abs(report.abs_rel - (0.1 + 0.0 + 0.25) / 3) <= 1e-12
        assert abs(report.sq_rel - (0.01 + 0.0 + 0.25) / 3) <= 1e-12
        assert abs(report.rmse - math.sqrt((0.01 + 0.0 + 1.0) / 3)) <= 1e-12
        assert abs(
            report.log_rmse
            - math.sqrt((math.log(1.1) ** 2 + (math.log(3) - math.log(4)) ** 2) / 3)
        ) <= 1e-12
        assert abs(
            report.irmse - math.sqrt(((1 / 1.1 - 1) ** 2 + (1 / 3 - 1 / 4) ** 2) / 3)
        ) <= 1e-12

        rng = np.random.default_rng(5)
        for _ in range(20):
            g = rng.uniform(0.5, 5.0, 256)
            p = g * rng.uniform(0.4, 2.5, 256)
            acc = list(evaluate(p, g).delta_acc.values())
            assert all(b >= a for a, b in zip(acc, acc[1:]))

        g = rng.uniform(0.5, 5.0, 256)
        p = g * rng.uniform(0.8, 1.2, 256)
        base = evaluate(p, g)
        for s in (0.5, 4.0):
            scaled = evaluate(s * p, s * g)
            assert abs(scaled.rmse - s * base.rmse) <= 1e-9
            assert abs(scaled.irmse - base.irmse / s) <= 1e-9
            assert abs(scaled.abs_rel - base.abs_rel) <= 1e-9
            assert abs(scaled.log_rmse - base.log_rmse) <= 1e-9
            for t in DELTA_THRESHOLDS:
                assert abs(scaled.delta_acc[t] - base.delta_acc[t]) <= 1e-9


def test_criterion_09_likelihood_evaluator():
    with criterion(9, "damped Laplacian log-likelihood matches manual arithmetic"):
        gt = np.array([[2.0, 4.0]])
        depths = [np.array([[2.5, 3.0]]), np.array([[2.25, 3.5]])]
        sigmas = [np.array([[0.5, 2.0]]), np.array([[0.25, 1.0]])]
        want = 0.83 * (0.5 / 0.5 + math.log(0.5) + 1.0 / 2.0 + math.log(2.0))
        want += 0.25 / 0.25 + math.log(0.25) + 0.5 / 1.0 + math.log(1.0)
        assert abs(laplacian_nll(depths, sigmas, gt, lam=0.83) - want) <= 1e-12

        # six iterates exercise the full K = 5 geometric damping
        gt = np.array([[0.0]])
        depths = [np.array([[k + 1.0]]) for k in range(6)]
        sigmas = [np.ones((1, 1))] * 6
        want = sum(0.83 ** (5 - k) * (k + 1) for k in range(6))
        assert abs(laplacian_nll(depths, sigmas, gt) - want) <= 1e-12


def test_criterion_10_performance_and_worker_determinism():
    with criterion(10, "VGA keyframe: triangulate + refine under 1 s, worker-count invariant"):
        vga = RunConfig(width=640, height=480, fx=800.0, fy=800.0, sigma_flow=0.0, outlier_rate=0.0)
        k, _, scene, _, frames = synthesize(vga)
        inp = TriangulationInput(k, tuple((exact, pose) for _, pose, exact, _ in frames))
        cfg = RefineConfig()

        triangulate_map(inp, workers=2)  # warm-up

        start = time.perf_counter()
        init = triangulate_map(inp, workers=8)
        weights = build_weights(init, scene.texture, cfg)
        result = refine(init, weights, cfg)
        elapsed = time.perf_counter() - start
        assert result.depth.shape == (vga.height, vga.width)
        assert elapsed < 1.0, f"took {elapsed:.3f}s"

        single = triangulate_map(inp, workers=1)
        assert np.array_equal(single.depth, init.depth, equal_nan=True)
        assert np.array_equal(single.conf_h, init.conf_h, equal_nan=True)
        assert np.array_equal(single.conf_r, init.conf_r, equal_nan=True)
        assert np.array_equal(single.valid, init.valid)
