"""Multi-view dense depth from optical-flow triangulation.

Per-pixel depth is triangulated from dense flow correspondences and camera
poses, scored with two confidence channels, iteratively refined under a
confidence-weighted least-squares objective with an edge-aware smoothness
prior, and accompanied by a per-pixel Laplacian uncertainty scale. A synthetic
scene generator, a full metric harness, and a CLI pipeline make every stage
testable without datasets.
"""

from .errors import (
    ConfigError,
    EmptyEvaluation,
    FormatError,
    InputError,
    NumericalError,
    TriadError,
)
from .flow import FlowField
from .geometry import (
    Intrinsics,
    RelativePose,
    Trajectory,
    normalized_grid,
    relative_angle_translation,
)
from .metrics import (
    CorrelationResult,
    MetricReport,
    Scorer,
    SweepRow,
    error_uncertainty_correlation,
    evaluate,
    uncertainty_sweep,
)
from .refinement import RefineConfig, RefineResult, WeightMaps, build_weights, laplacian_nll, refine
from .select import Selection, SelectionPolicy, select_frames
from .synth import (
    NoiseModel,
    SceneSettings,
    SyntheticScene,
    corrupt_flow,
    make_scene,
    render_flow,
    render_flows,
)
from .triangulate import (
    InitialDepth,
    TriangulationInput,
    epipolar_loss,
    triangulate_map,
)

__version__ = "0.1.0"

__all__ = [
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
    "Selection",
    "Scorer",
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
