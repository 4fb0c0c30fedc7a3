"""The package's public surface: the names ``triad`` exports and what they bind."""

import importlib
import inspect

import triad

PUBLIC = [
    "ConfigError",
    "CorrelationResult",
    "EmptyEvaluation",
    "FlowField",
    "FormatError",
    "InitialDepth",
    "InputError",
    "Intrinsics",
    "MetricReport",
    "NoiseModel",
    "NumericalError",
    "RefineConfig",
    "RefineResult",
    "RelativePose",
    "SceneSettings",
    "Scorer",
    "Selection",
    "SelectionPolicy",
    "SweepRow",
    "SyntheticScene",
    "Trajectory",
    "TriadError",
    "TriangulationInput",
    "WeightMaps",
    "build_weights",
    "corrupt_flow",
    "epipolar_loss",
    "error_uncertainty_correlation",
    "evaluate",
    "laplacian_nll",
    "make_scene",
    "normalized_grid",
    "refine",
    "relative_angle_translation",
    "render_flow",
    "render_flows",
    "select_frames",
    "triangulate_map",
    "uncertainty_sweep",
]


def test_public_names_are_pinned_and_resolve():
    assert sorted(triad.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(triad, name, None) is not None, name


def test_refine_is_the_function_and_refinement_the_module():
    assert inspect.ismodule(triad.refinement)
    assert importlib.import_module("triad.refinement") is triad.refinement
    assert inspect.isfunction(triad.refine)
    assert triad.refine is triad.refinement.refine
