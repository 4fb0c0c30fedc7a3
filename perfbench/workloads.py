"""The three benchmark workloads and the run.cfg values of their seeded bundles.

Scene geometry comes from a fixed suite of scene seeds, one per bundle slot,
and the workload seed draws the flow noise and outliers of every bundle.
Drawing the scenes from the seed as well moves the median RMSE between seeds
by far more than any regression bound could absorb (over 80 room-scale scenes
the per-scene RMSE has a coefficient of variation of 60-80 %), while with a
fixed suite a new noise draw moves it by about 1 %.
"""

from __future__ import annotations

from dataclasses import dataclass

# The room-scale suite scene, moving sideways at 0.05 m per frame, with 1 px
# flow noise and 3 % outliers.
SUITE_SCENE = {
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

VGA = {"width": 640, "height": 480, "fx": 800.0, "fy": 800.0}
QVGA = {"width": 320, "height": 240, "fx": 400.0, "fy": 400.0}

# Set-up is repeated this many times per run, each time on its own bundles,
# and setup_s reports the median repetition.
SETUP_REPEATS = 3

ESTIMATE_FILES = (
    "depth_initial.pfm",
    "conf_h.pfm",
    "conf_r.pfm",
    "depth_refined.pfm",
    "sigma.pfm",
    "objective.txt",
    "report.txt",
    "report.kv",
    "sweep.csv",
)
REFINE_FILES = ("depth_refined.pfm", "sigma.pfm", "objective.txt")


@dataclass(frozen=True)
class Workload:
    """One timed CLI call shape and the bundles it rotates through."""

    command: str  # triad subcommand each timed call runs
    config: dict  # keys written to every bundle's run.cfg, on top of SUITE_SCENE
    call_opts: tuple[str, ...]  # extra --opt KEY=VALUE on every call
    iterations: int  # refinement iterations each call runs
    bundles_per_setup: int
    writes: tuple[str, ...]  # files each call writes into out_dir
    prepass_dir: str  # out_dir of the set-up triangulation pre-pass
    alt_workers: int | None  # worker count compared byte for byte once per run
    frames_used: int  # adjacent frames the selection must pick


WORKLOADS = {
    "estimate_vga": Workload(
        command="estimate",
        config={**VGA, "n_frames": 5, "sel_n_frames": 5, "fixed_step": 1, "workers": 2},
        call_opts=(),
        iterations=7,
        bundles_per_setup=1,
        writes=ESTIMATE_FILES,
        prepass_dir="prepass",
        alt_workers=1,
        frames_used=4,
    ),
    "estimate_qvga_8view": Workload(
        command="estimate",
        config={**QVGA, "n_frames": 9, "sel_n_frames": 9, "fixed_step": 1, "workers": 1},
        call_opts=(),
        iterations=7,
        bundles_per_setup=2,
        writes=ESTIMATE_FILES,
        prepass_dir="prepass",
        alt_workers=2,
        frames_used=8,
    ),
    "refine_vga_40it": Workload(
        command="refine",
        config={**VGA, "n_frames": 5, "sel_n_frames": 5, "fixed_step": 1, "workers": 2},
        call_opts=("iterations=40",),
        iterations=40,
        bundles_per_setup=1,
        writes=REFINE_FILES,
        prepass_dir="out",  # refine reads the pre-pass maps from out_dir
        alt_workers=None,
        frames_used=4,
    ),
}


def bundle_values(workload: Workload, seed: int, slot: int) -> dict:
    """run.cfg contents for bundle ``slot``; frame indices stay below 16."""
    noise_seed = 16 * (seed * 64 + slot)
    return {**SUITE_SCENE, **workload.config, "seed": slot, "noise_seed": noise_seed}

