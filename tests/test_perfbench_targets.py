"""perfbench's ``--trace`` spans patch names in triad's modules; each one must still resolve.

``perfbench/spans.py`` imports only the standard library, so it is loaded by
path. A name it patches that moved or was dropped would otherwise show only
when a traced benchmark run fails.
"""

import importlib
import importlib.util
from pathlib import Path

from triad.flow import FlowField

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patch_target_resolves():
    for module_name, attr, _, _ in load_spans().TARGETS:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), f"{module_name}.{attr}"


def test_from_raster_is_a_classmethod():
    # the tracer rewraps the descriptor's function, so a plain function would break it
    assert isinstance(FlowField.__dict__["from_raster"], classmethod)
