"""perfbench's ``--trace`` spans patch names in triad's modules; each one must still resolve.

``perfbench/spans.py`` imports only the standard library, so it is loaded by
path. A name it patches that moved or was dropped would otherwise show only
when a traced benchmark run fails. The same holds for the functions
``perfbench/harness.py`` calls directly, with the arguments it passes them.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import triad.workers as workers_module
from triad.flow import FlowField
from triad.pipeline import RunConfig, _triangulate_stage, cmd_estimate, cmd_synth

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


@pytest.mark.parametrize("workers", [1, 2])
def test_flow_spans_see_every_band_read(tmp_path, monkeypatch, workers):
    # triangulation reads each selected frame's flow a row band at a time
    # through fileio.read_flow and FlowField.from_raster, looked up at each
    # call, so the spans count frames x bands calls and the whole files' bytes
    settings = dict(width=96, height=72, fx=120.0, fy=120.0, n_frames=5, fixed_step=1, workers=workers)
    cmd_synth(RunConfig(**settings), tmp_path)
    monkeypatch.setattr(workers_module, "BAND_PIXELS", 1000)
    spans = load_spans()
    tracer = spans.Tracer()
    with tracer.installed(0):
        _, selection, _, _ = _triangulate_stage(RunConfig(**settings), tmp_path)
    totals = spans.totals_by_call(tracer.spans)[0]
    frames, bands = len(selection.indices), len(workers_module.row_bands(72, 96))
    assert frames == 4 and bands == 7
    assert totals["fileio.read_flow"]["calls"] == totals["flow.from_raster"]["calls"] == frames * bands
    assert totals["fileio.read_flow"]["bytes"] == frames * 72 * 96 * 2 * 4
    assert totals["flow.from_raster"]["px"] == frames * 72 * 96


@pytest.mark.parametrize("iterations", [0, 3])
def test_every_counter_reads_a_real_result(tmp_path, iterations):
    # each counter reads fields of its function's arguments or result, so a
    # renamed field would otherwise fail only inside a traced benchmark run
    settings = dict(width=96, height=72, fx=120.0, fy=120.0, n_frames=5, fixed_step=1, iterations=iterations)
    spans = load_spans()
    tracer = spans.Tracer()
    with tracer.installed(0):
        cmd_synth(RunConfig(**settings), tmp_path)
        cmd_estimate(RunConfig(**settings), tmp_path)
    recorded = {span[0]: span[5] for span in tracer.spans}
    counted = [name for _, _, name, counter in spans.TARGETS if counter is not None] + ["flow.from_raster"]
    assert all(recorded.get(name) for name in counted), {name: recorded.get(name) for name in counted}
    assert recorded["refine.refine"] == {"iterations": iterations}


# (module, name, the positional arguments perfbench/harness.py passes)
HARNESS_CALLS = [
    ("triad.pipeline", "cmd_synth", ("cfg", "root")),
    ("triad.pipeline", "cmd_triangulate", ("cfg", "root")),
    ("triad.pipeline", "load_run_config", ("run.cfg", (), {})),
    ("triad.cli", "main", (["estimate", "--root", "bundle"],)),
]


def test_every_harness_call_binds():
    for module_name, attr, args in HARNESS_CALLS:
        function = getattr(importlib.import_module(module_name), attr, None)
        assert callable(function), f"{module_name}.{attr}"
        inspect.signature(function).bind(*args)


def test_main_returns_an_int_exit_code(tmp_path, capsys):
    from triad.cli import main

    # a bundle with no trajectory is a data error
    code = main(["select", "--root", str(tmp_path)])
    assert type(code) is int and code == 2
    assert capsys.readouterr().err.startswith("data error: ")
