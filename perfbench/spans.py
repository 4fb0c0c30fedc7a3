"""Spans around the public functions of each triad layer, patched from outside.

Each wrapper replaces the name its caller looks up: the pipeline imports most
layer functions into its own namespace, reads and writes go through the
``triad.fileio`` module attribute, and flow decode goes through the
``FlowField.from_raster`` classmethod. ``geometry`` runs only inside
triangulation and synthesis, so its cost lands in their spans.

Spans stay in memory as [name, start_ns, end_ns, parent, call_id, attrs] and
are written out when the run ends. Every wrapped function runs on the calling
thread (the triangulation pool's workers call none of them), so one stack of
open spans gives each span its parent.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

ROOT_SPAN = "cli.main"


def _frames(args, kwargs, result):
    return {"frames": len(result.indices)}


def _flow_valid(args, kwargs, result):
    return {"valid_px": int(result.valid.sum()), "px": int(result.valid.size)}


def _result_bytes(args, kwargs, result):
    return {"bytes": int(result.nbytes)}


def _written_bytes(args, kwargs, result):
    return {"bytes": 4 * int(args[0].size)}  # rasters are written as float32


def _pixel_obs(args, kwargs, result):
    k = args[0].intrinsics
    return {"pixel_obs": k.width * k.height * len(args[0].observations)}


def _iterations(args, kwargs, result):
    return {"iterations": len(result.objective) - 1}


# (module, attribute, span name, counter run after the span closes)
TARGETS = (
    ("triad.pipeline", "select_frames", "select.select_frames", _frames),
    ("triad.pipeline", "triangulate_map", "triangulate.triangulate_map", _pixel_obs),
    ("triad.pipeline", "build_weights", "refine.build_weights", None),
    ("triad.pipeline", "refine", "refine.refine", _iterations),
    ("triad.pipeline", "evaluate", "metrics.evaluate", None),
    ("triad.pipeline", "error_uncertainty_correlation", "metrics.error_uncertainty_correlation", None),
    ("triad.pipeline", "uncertainty_sweep", "metrics.uncertainty_sweep", None),
    ("triad.pipeline", "make_scene", "synth.make_scene", None),
    ("triad.pipeline", "render_flow", "synth.render_flow", None),
    ("triad.pipeline", "corrupt_flow", "synth.corrupt_flow", None),
    ("triad.fileio", "read_flow", "fileio.read_flow", _result_bytes),
    ("triad.fileio", "read_pfm", "fileio.read_pfm", None),
    ("triad.fileio", "write_pfm", "fileio.write_pfm", _written_bytes),
    ("triad.fileio", "read_image", "fileio.read_image", None),
    ("triad.fileio", "write_flow", "fileio.write_flow", None),
)


class Tracer:
    """Installs span-recording wrappers and keeps the spans they record."""

    def __init__(self):
        self.spans: list[list] = []
        self.call_id = None
        self._open: list[int] = []

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0, 0, self._open[-1] if self._open else -1, self.call_id, None]
            self.spans.append(span)
            self._open.append(index)
            span[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                self._open.pop()
            if counter is not None:
                span[5] = counter(args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def installed(self, call_id):
        """Patch every target for the block; spans recorded in it carry ``call_id``."""
        import importlib

        from triad.flow import FlowField

        saved = []
        for module_name, attr, name, counter in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, counter))
        descriptor = FlowField.__dict__["from_raster"]
        saved.append((FlowField, "from_raster", descriptor))
        FlowField.from_raster = classmethod(self._wrap("flow.from_raster", descriptor.__func__, _flow_valid))
        self.call_id = call_id
        try:
            yield self
        finally:
            self.call_id = None
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def root(self, fn, *args):
        """Run ``fn`` as the root span of one keyframe call."""
        return self._wrap(ROOT_SPAN, fn, None)(*args)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent, call_id, attrs in self.spans:
                f.write(json.dumps({"name": name, "start_ns": start, "end_ns": end, "parent": parent,
                                    "call": call_id, "attrs": attrs or {}}) + "\n")


def totals_by_call(spans) -> dict:
    """call_id -> span name -> {"self_ns", "calls", counter sums}.

    A span's self time is its duration minus the durations of its direct
    children; children never overlap because they run on one thread.
    """
    child_ns = defaultdict(int)
    for name, start, end, parent, call_id, attrs in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    totals = defaultdict(lambda: defaultdict(lambda: defaultdict(float)))
    for index, (name, start, end, parent, call_id, attrs) in enumerate(spans):
        entry = totals[call_id][name]
        entry["self_ns"] += end - start - child_ns[index]
        entry["calls"] += 1
        for key, value in (attrs or {}).items():
            entry[key] += value
    return totals


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def layer_metrics(totals, call_ids, setup_ids, objective_ratios) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: medians over traced keyframe calls, synthesis per set-up bundle."""
    calls = [totals[c] for c in call_ids]
    bundles = [totals[b] for b in setup_ids]

    def ms(name, entries=calls):
        return _median(e[name]["self_ns"] / 1e6 for e in entries)

    def count(name, key="calls"):
        return _median(e[name][key] for e in calls)

    def ratio(name, num, den, scale=1.0):  # median over the calls that reached the layer
        return _median(scale * e[name][num] / e[name][den] for e in calls if e[name][den])

    return {
        "flow.from_raster.ms": (ms("flow.from_raster"), "ms"),
        "flow.from_raster.calls": (count("flow.from_raster"), "count"),
        "flow.valid_fraction": (ratio("flow.from_raster", "valid_px", "px"), "fraction"),
        "fileio.read_flow.ms": (ms("fileio.read_flow"), "ms"),
        "fileio.read_flow.mb": (count("fileio.read_flow", "bytes") / 1e6, "MB"),
        "triangulate.triangulate_map.ms": (ms("triangulate.triangulate_map"), "ms"),
        "triangulate.triangulate_map.calls": (count("triangulate.triangulate_map"), "count"),
        "triangulate.pixel_obs_per_s": (ratio("triangulate.triangulate_map", "pixel_obs", "self_ns", 1e9), "1/s"),
        "refine.refine.ms": (ms("refine.refine"), "ms"),
        "refine.ms_per_iteration": (ratio("refine.refine", "self_ns", "iterations", 1e-6), "ms"),
        "refine.iterations": (count("refine.refine", "iterations"), "count"),
        "refine.objective_ratio": (_median(objective_ratios), "ratio"),
        "refine.build_weights.ms": (ms("refine.build_weights"), "ms"),
        "metrics.error_uncertainty_correlation.ms": (ms("metrics.error_uncertainty_correlation"), "ms"),
        "metrics.error_uncertainty_correlation.calls": (count("metrics.error_uncertainty_correlation"), "count"),
        "metrics.evaluate.ms": (ms("metrics.evaluate"), "ms"),
        "metrics.evaluate.calls": (count("metrics.evaluate"), "count"),
        "metrics.uncertainty_sweep.ms": (ms("metrics.uncertainty_sweep"), "ms"),
        "fileio.write_pfm.ms": (ms("fileio.write_pfm"), "ms"),
        "fileio.write_pfm.mb": (count("fileio.write_pfm", "bytes") / 1e6, "MB"),
        "fileio.read_pfm.ms": (ms("fileio.read_pfm"), "ms"),
        "fileio.read_image.ms": (ms("fileio.read_image"), "ms"),
        "select.select_frames.ms": (ms("select.select_frames"), "ms"),
        "select.frames_used": (count("select.select_frames", "frames"), "count"),
        "synth.make_scene.ms": (ms("synth.make_scene", bundles), "ms"),
        "synth.render_flow.ms": (ms("synth.render_flow", bundles), "ms"),
        "synth.corrupt_flow.ms": (ms("synth.corrupt_flow", bundles), "ms"),
        "fileio.write_flow.ms": (ms("fileio.write_flow", bundles), "ms"),
        "pipeline.self_ms": (ms(ROOT_SPAN), "ms"),
    }


def layer_shares(totals, call_ids) -> dict[str, float]:
    """Each span name's share of the summed root-span time over the traced calls."""
    self_ns = defaultdict(float)
    root_ns = 0.0
    for c in call_ids:
        for name, entry in totals[c].items():
            self_ns[name] += entry["self_ns"]
        root_ns += sum(entry["self_ns"] for entry in totals[c].values())
    return {name: value / root_ns for name, value in sorted(self_ns.items(), key=lambda kv: -kv[1]) if value}
