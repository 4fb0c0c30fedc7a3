"""The package's public surface: the names ``triad`` exports, what they bind and what it imports."""

import ast
import importlib
import inspect
import sys
from pathlib import Path

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


def test_runtime_imports_are_numpy_and_the_standard_library():
    # pyproject.toml's one runtime dependency is numpy, and README promises "runtime: numpy only"
    allowed = {"triad", "numpy"} | set(sys.stdlib_module_names)
    sources = sorted((Path(__file__).parents[1] / "src" / "triad").glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = ["triad" if node.level else node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in allowed, f"{path.name} imports {name}"
