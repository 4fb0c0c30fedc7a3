#!/usr/bin/env python3
"""Sweep flow noise and report initial vs. refined depth accuracy.

For each (sigma_flow, outlier_rate) cell, runs the full chain on a batch of
seeded room-scale scenes and prints median RMSE for the triangulated and the
refined depth map, the median improvement, and the median Spearman
correlation between the predicted uncertainty and the actual error.

    python scripts/noise_sweep.py --seeds 10 --width 320 --height 240
"""

import argparse
import sys

import numpy as np

from triad import (
    RefineConfig,
    TriangulationInput,
    build_weights,
    error_uncertainty_correlation,
    evaluate,
    refine,
    triangulate_map,
)
from triad.pipeline import ROOM_SUITE, RunConfig, synthesize


def run_once(seed, sigma_flow, outlier_rate, width, height, fx):
    room = dict(ROOM_SUITE, seed=seed, sigma_flow=sigma_flow, outlier_rate=outlier_rate)
    k, _, scene, _, frames = synthesize(RunConfig(**room, width=width, height=height, fx=fx, fy=fx))
    init = triangulate_map(TriangulationInput(k, tuple((noisy, pose) for _, pose, _, noisy in frames)))
    cfg = RefineConfig()
    result = refine(init, build_weights(init, scene.texture, cfg), cfg)
    gt = scene.depth_map()
    mask = init.valid & np.isfinite(gt)
    initial = evaluate(init.depth, gt, mask).rmse
    refined = evaluate(result.depth, gt, mask).rmse
    rho = error_uncertainty_correlation(result.depth, result.uncertainty, gt, mask).rho
    return initial, refined, rho


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--width", type=int, default=320)
    parser.add_argument("--height", type=int, default=240)
    parser.add_argument("--fx", type=float, default=400.0)
    parser.add_argument("--sigmas", type=float, nargs="+", default=[0.5, 1.0, 2.0])
    parser.add_argument("--outlier-rates", type=float, nargs="+", default=[0.0, 0.03])
    parser.add_argument("--csv", type=str, default=None, help="optional CSV output path")
    args = parser.parse_args(argv)

    rows = []
    print(f"{'sigma':>6} {'outliers':>8} {'init rmse':>10} {'refined':>10} {'improv':>8} {'rho':>6}")
    for sigma in args.sigmas:
        for rate in args.outlier_rates:
            stats = [
                run_once(seed, sigma, rate, args.width, args.height, args.fx)
                for seed in range(args.seeds)
            ]
            init = float(np.median([s[0] for s in stats]))
            refined = float(np.median([s[1] for s in stats]))
            rho = float(np.median([s[2] for s in stats]))
            improvement = 1.0 - refined / init
            rows.append((sigma, rate, init, refined, improvement, rho))
            print(f"{sigma:6.2f} {rate:8.2f} {init:10.4f} {refined:10.4f} {improvement:7.1%} {rho:6.3f}")

    if args.csv:
        with open(args.csv, "w", encoding="ascii") as f:
            f.write("sigma_flow,outlier_rate,initial_rmse,refined_rmse,improvement,spearman_rho\n")
            for row in rows:
                f.write(",".join(f"{v:.6g}" for v in row) + "\n")
        print(f"wrote {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
