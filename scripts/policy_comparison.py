#!/usr/bin/env python3
"""Compare fixed-stride and motion-adaptive frame selection on stop-and-go motion.

A camera that pauses between moves defeats a fixed stride: some selected
frames share the keyframe's pose and contribute no baseline. The adaptive
policy skips ahead until the motion thresholds clear. This script reports the
initial-depth RMSE for both policies over a batch of seeded scenes.

    python scripts/policy_comparison.py --seeds 20 --dwell 3
"""

import argparse
import dataclasses
import sys

import numpy as np

from triad import SelectionPolicy, TriangulationInput, evaluate, select_frames, triangulate_map
from triad.pipeline import RunConfig, synthesize


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=20)
    parser.add_argument("--width", type=int, default=160)
    parser.add_argument("--height", type=int, default=120)
    parser.add_argument("--fx", type=float, default=200.0)
    parser.add_argument("--frames", type=int, default=25)
    parser.add_argument("--move", type=int, default=1)
    parser.add_argument("--dwell", type=int, default=3)
    parser.add_argument("--speed", type=float, default=0.08)
    parser.add_argument("--sigma-flow", type=float, default=1.0)
    parser.add_argument("--outlier-rate", type=float, default=0.03)
    args = parser.parse_args(argv)

    cfg = RunConfig(
        width=args.width, height=args.height, fx=args.fx, fy=args.fx, n_frames=args.frames,
        trajectory_kind="stop_and_go", vx=args.speed, move=args.move, dwell=args.dwell,
        sigma_flow=args.sigma_flow, outlier_rate=args.outlier_rate,
    )
    policies = {
        "fixed": SelectionPolicy(mode="fixed", n_frames=5, fixed_step=1),
        "adaptive": SelectionPolicy(
            mode="adaptive", n_frames=5, theta_min=np.pi, t_min=args.speed / 2
        ),
    }

    _, traj, _, keyframe, _ = synthesize(cfg)  # the trajectory, and so each selection, is the same for every seed
    selections = {name: select_frames(traj, keyframe, policy) for name, policy in policies.items()}
    results = {name: [] for name in policies}
    wins = 0
    for seed in range(args.seeds):
        # one bundle per seed; both policies pick their frames from it
        k, _, scene, _, frames = synthesize(dataclasses.replace(cfg, seed=seed, noise_seed=seed * 100))
        observations = {index: (noisy, pose) for index, pose, _, noisy in frames}
        gt = scene.depth_map()
        rmse = {}
        for name, selection in selections.items():
            init = triangulate_map(TriangulationInput(k, tuple(observations[i] for i in selection.indices)))
            mask = init.valid & np.isfinite(gt)
            rmse[name] = evaluate(init.depth, gt, mask).rmse
            results[name].append(rmse[name])
        if rmse["adaptive"] <= rmse["fixed"]:
            wins += 1

    for name, selection in selections.items():
        print(f"{name}: frames {list(selection.indices)}")
    print(f"{'policy':>9} {'median rmse':>12} {'mean rmse':>10}")
    for name, values in results.items():
        print(f"{name:>9} {np.median(values):12.4f} {np.mean(values):10.4f}")
    print(f"adaptive <= fixed in {wins}/{args.seeds} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
