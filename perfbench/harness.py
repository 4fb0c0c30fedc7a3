"""Set-up, timed loop, traced, memory and invariance passes, and the report.

Imported by run.py after the thread pools are pinned and triad is loaded.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import sys
import time
import tracemalloc
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import outputs
import reference
import spans
from workloads import SETUP_REPEATS, Workload, bundle_values

MIN_TIMED_CALLS = 21  # keeps a tail percentile with ten calls beyond it
MEMORY_CALLS = 3
MAX_FAILURES = 10  # past this the run is a failure; stop calling
SETUP_KERNEL_RUNS = 3  # reference kernel runs before and after each set-up repetition
ACCURACY_METRICS = ("initial_rmse_m", "refined_rmse_m", "valid_fraction", "spearman_rho")


@dataclass
class Bundle:
    """One synthetic bundle on disk.

    ``valid`` is the pre-pass validity mask; ``digests`` are set by the
    bundle's first successful call and every later call must match them.
    """

    root: Path
    config_path: Path
    valid: np.ndarray
    digests: dict[str, str] | None = None

    @property
    def out(self) -> Path:
        return self.root / "out"


class Run:
    """Calls the CLI with its output captured, checks what it wrote, counts failures.

    ``failed`` counts failed operations: a call with a nonzero exit code or a
    wrong output, a worker-count comparison that differs, or a bundle whose
    report.kv disagrees with its written maps.
    """

    def __init__(self, cli, workload: Workload):
        self.cli = cli
        self.workload = workload
        self.attempted = 0
        self.failed = 0

    def fail(self, what: str, problems: list[str]) -> None:
        self.failed += 1
        for problem in problems:
            print(f"FAILED {what}: {problem}", file=sys.stderr)

    def argv(self, bundle: Bundle, *extra_opts: str) -> list[str]:
        argv = [self.workload.command, "--root", str(bundle.root), "--config", str(bundle.config_path)]
        for opt in self.workload.call_opts + extra_opts:
            argv += ["--opt", opt]
        return argv

    def call(self, argv, tracer=None) -> tuple[int, float]:
        """One CLI call; returns (exit code, seconds). An exception counts as exit code -1."""
        self.attempted += 1
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = time.perf_counter()
            try:
                code = tracer.root(self.cli.main, argv) if tracer else self.cli.main(argv)
            except Exception:
                code = -1
                sink.write(traceback.format_exc())
            elapsed = time.perf_counter() - start
        if code != 0:
            self.fail(" ".join(argv), [f"exit code {code}: {sink.getvalue().strip()[-400:]}"])
        return code, elapsed

    def checked_call(self, bundle: Bundle, tracer=None) -> float | None:
        """One call on a bundle plus every output check; returns seconds, or None if anything failed."""
        for name in self.workload.writes:
            (bundle.out / name).unlink(missing_ok=True)
        code, elapsed = self.call(self.argv(bundle), tracer)
        if code != 0:
            return None
        problems = outputs.check_call(bundle.out, self.workload.writes, self.workload.iterations, bundle.valid)
        digests = {name: outputs.digest(bundle.out / name) for name in self.workload.writes}
        if bundle.digests is None:
            bundle.digests = digests
        elif digests != bundle.digests:
            problems.append("outputs differ from the bundle's first call")
        if problems:
            self.fail(bundle.root.name, problems)
            return None
        return elapsed


def setup_id(slot: int) -> str:
    return f"setup{slot:02d}"


def build_bundle(workload: Workload, seed: int, slot: int, run_dir: Path, tracer) -> Bundle:
    """Synthesize and pre-triangulate one bundle through the public pipeline commands."""
    from triad.pipeline import cmd_synth, cmd_triangulate, load_run_config

    values = bundle_values(workload, seed, slot)
    root = run_dir / f"bundle{slot:02d}"
    root.mkdir(parents=True)
    config_path = root / "run.cfg"
    config_path.write_text("".join(f"{key} = {value}\n" for key, value in values.items()), encoding="ascii")
    cfg = load_run_config(config_path, (), {})
    prepass = load_run_config(config_path, (f"out_dir={workload.prepass_dir}",), {})
    with tracer.installed(setup_id(slot)) if tracer else contextlib.nullcontext():
        cmd_synth(cfg, root)
        cmd_triangulate(prepass, root)
    valid = np.isfinite(outputs.read_pfm(root / workload.prepass_dir / "depth_initial.pfm"))
    return Bundle(root, config_path, valid)


def set_up(run: Run, seed: int, run_dir: Path, tracer) -> tuple[list[Bundle], list[float], list[float]]:
    """Bundles, pre-pass and one warm-up call per bundle, repeated.

    Returns the bundles, each repetition's seconds, and the median reference
    kernel time in ms before the first repetition and after each one, which
    gauge the host's speed around every repetition.
    """
    per_repeat = run.workload.bundles_per_setup
    bundles, repeat_s = [], []
    reference.warm_up()
    kernel_ms = [reference.median_ms(SETUP_KERNEL_RUNS)]
    for repeat in range(SETUP_REPEATS):
        start = time.perf_counter()
        built = [build_bundle(run.workload, seed, repeat * per_repeat + i, run_dir, tracer) for i in range(per_repeat)]
        for bundle in built:
            run.checked_call(bundle)
        repeat_s.append(time.perf_counter() - start)
        kernel_ms.append(reference.median_ms(SETUP_KERNEL_RUNS))
        bundles += built
    return bundles, repeat_s, kernel_ms


@dataclass
class Loop:
    """Latencies from the timed loop, in ms.

    ``plain_scaled_ms`` holds each plain call's wall time scaled to the
    reference host speed (see reference.py) by the kernel runs on either side
    of the call; ``kernel_ms`` is every kernel time the loop measured.
    """

    plain_ms: list[float]
    plain_scaled_ms: list[float]
    traced_ms: list[float]
    traced_ids: list[int]
    kernel_ms: list[float]


def timed_loop(run: Run, bundles: list[Bundle], seconds: float, tracer) -> Loop:
    """One closed-loop client rotating through the bundles for ``seconds``.

    The reference kernel runs before the first call and after every call.
    With a tracer, plain and traced calls alternate, so drift in the machine's
    speed hits both alike.
    """
    loop = Loop([], [], [], [], [reference.time_kernel()])
    min_calls = 0 if tracer else MIN_TIMED_CALLS
    start = time.perf_counter()
    i = 0
    while (time.perf_counter() - start < seconds or len(loop.plain_ms) < min_calls) and run.failed <= MAX_FAILURES:
        bundle = bundles[i % len(bundles)]
        traced = tracer and i % 2
        if traced:
            with tracer.installed(i):
                elapsed = run.checked_call(bundle, tracer)
        else:
            elapsed = run.checked_call(bundle)
        loop.kernel_ms.append(reference.time_kernel())
        if elapsed is not None and traced:
            loop.traced_ids.append(i)
            loop.traced_ms.append(elapsed * 1e3)
        elif elapsed is not None:
            host_ms = (loop.kernel_ms[-2] + loop.kernel_ms[-1]) / 2
            loop.plain_ms.append(elapsed * 1e3)
            loop.plain_scaled_ms.append(elapsed * 1e3 * reference.REFERENCE_MS / host_ms)
        i += 1
    return loop


def tail(latencies_ms: list[float]) -> tuple[float, float, int]:
    """(value, percentile, calls beyond) at the highest percentile with at least ten calls beyond it."""
    ordered = sorted(latencies_ms)
    rank = max(1, len(ordered) - 10)
    return ordered[rank - 1], 100.0 * rank / len(ordered), len(ordered) - rank


def memory_pass(run: Run, bundle: Bundle) -> float:
    """Median tracemalloc peak of one call, in MB.

    With two workers the peak depends on how the bands' temporaries
    interleave, so the pass measures MEMORY_CALLS calls one at a time.
    """
    peaks = []
    for _ in range(MEMORY_CALLS):
        tracemalloc.start()
        try:
            run.checked_call(bundle)
            peaks.append(tracemalloc.get_traced_memory()[1] / 1e6)
        finally:
            tracemalloc.stop()
    return statistics.median(peaks)


def worker_invariance(run: Run, bundle: Bundle) -> None:
    """The bundle's outputs must be byte-identical with the other worker count."""
    workload = run.workload
    alt_dir = "out_alt"
    code, _ = run.call(run.argv(bundle, f"workers={workload.alt_workers}", f"out_dir={alt_dir}"))
    if code != 0:
        return
    differ = [name for name in workload.writes
              if (bundle.root / alt_dir / name).read_bytes() != (bundle.out / name).read_bytes()]
    if differ:
        run.fail(bundle.root.name, [f"{', '.join(differ)} differ between workers={workload.config['workers']} "
                                    f"and workers={workload.alt_workers}"])


def score(run: Run, bundles: list[Bundle]) -> dict[str, float]:
    """Median accuracy over the bundles, scored from the files their calls wrote."""
    scored = []
    for bundle in bundles:
        if bundle.digests is None:
            continue  # no call on it ever succeeded
        scored.append(outputs.accuracy(bundle.root, bundle.out))
        if run.workload.command == "estimate":
            problems = outputs.report_problems(bundle.out, scored[-1], run.workload.frames_used)
            if problems:
                run.fail(bundle.root.name, problems)
    return {name: statistics.median(s[name] for s in scored) for name in ACCURACY_METRICS}


def end_to_end(run: Run, bundles, loop: Loop, repeat_s, setup_kernel_ms, import_s) -> tuple[dict, dict]:
    """Memory pass, worker invariance and accuracy after the timed loop; returns (metrics, summary).

    Latency, throughput and set-up time are scaled to the reference host
    speed; their wall-clock values go to the summary.
    """
    peak_mb = memory_pass(run, bundles[0])
    if run.workload.alt_workers is not None:
        worker_invariance(run, bundles[0])
    accuracy = score(run, bundles)
    scaled = loop.plain_scaled_ms
    tail_ms, tail_pct, beyond = tail(scaled)
    wall_setup_s = import_s + statistics.median(repeat_s)
    # The import ran just before the first kernel runs, each repetition between two.
    scaled_repeat_s = [seconds * reference.REFERENCE_MS / ((before + after) / 2)
                       for seconds, before, after in zip(repeat_s, setup_kernel_ms, setup_kernel_ms[1:])]
    setup_s = import_s * reference.REFERENCE_MS / setup_kernel_ms[0] + statistics.median(scaled_repeat_s)
    metrics = {
        "latency_ms_p50": (statistics.median(scaled), "ms"),
        "latency_ms_tail": (tail_ms, "ms"),
        "keyframes_per_s": (len(scaled) / (sum(scaled) / 1e3), "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_mem_mb": (peak_mb, "MB"),
        "completed_fraction": ((run.attempted - run.failed) / run.attempted, "fraction"),
        "initial_rmse_m": (accuracy["initial_rmse_m"], "m"),
        "refined_rmse_m": (accuracy["refined_rmse_m"], "m"),
        "valid_fraction": (accuracy["valid_fraction"], "fraction"),
        "spearman_rho": (accuracy["spearman_rho"], "1"),
    }
    summary = {
        "timed_calls": len(scaled),
        "tail_percentile": round(tail_pct, 1),
        "tail_calls_beyond": beyond,
        "failed_fraction": run.failed / run.attempted,
        "wall_latency_ms_p50": statistics.median(loop.plain_ms),
        "wall_latency_ms_tail": tail(loop.plain_ms)[0],
        "wall_setup_s": wall_setup_s,
        "kernel_ms_p50": statistics.median(loop.kernel_ms),
        "setup_kernel_ms": setup_kernel_ms,
        "import_s": import_s,
        "setup_repeats_s": repeat_s,
    }
    return metrics, summary


def per_layer(tracer, bundles, loop: Loop, spans_path: Path) -> tuple[dict, dict]:
    """Per-layer metrics from the spans, which are written to ``spans_path``; returns (metrics, summary)."""
    # Every call on a bundle writes identical bytes (checked), so the last
    # call's objective.txt stands for all of that bundle's calls.
    ratios = [outputs.accuracy(b.root, b.out)["objective_ratio"] for b in bundles if b.digests]
    totals = spans.totals_by_call(tracer.spans)
    metrics = spans.layer_metrics(totals, loop.traced_ids, [setup_id(slot) for slot in range(len(bundles))], ratios)
    metrics["bench.trace_overhead_ms"] = (statistics.median(loop.traced_ms) - statistics.median(loop.plain_ms), "ms")
    tracer.dump(spans_path)
    summary = {
        "plain_calls": len(loop.plain_ms),
        "traced_calls": len(loop.traced_ms),
        "shares": spans.layer_shares(totals, loop.traced_ids),
    }
    return metrics, summary


def provenance() -> dict:
    cpu = platform.machine()
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as f:
        cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def report(args, metrics: dict, summary: dict, loop: Loop, run: Run, results_dir: Path) -> None:
    """Store the full record, print the summary, and print the result line last."""
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(),
        "summary": summary,
        "latencies_ms": loop.plain_ms,
        "scaled_latencies_ms": loop.plain_scaled_ms,
        "kernel_ms": loop.kernel_ms,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    print(f"# workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print("# " + ", ".join(f"{k} {v}" for k, v in record["provenance"].items()))
    for key, value in summary.items():
        if key == "shares":
            for name, share in value.items():
                print(f"# share of call time  {name:42s} {100 * share:6.2f} %")
        else:
            print(f"# {key} = {value}")
    for name, (value, unit) in metrics.items():
        print(f"{name:45s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": record["metrics"],
    }))


def run(cli, workload: Workload, args, import_s: float, checkout: Path) -> int:
    """Run one workload; prints the summary and the result line, returns the exit code."""
    results_dir = checkout / ".perfbench_out"
    work_dir = checkout / ".perfbench_work"
    run_dir = work_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    results_dir.mkdir(exist_ok=True)
    bench = Run(cli, workload)
    tracer = spans.Tracer() if args.trace else None
    try:
        bundles, repeat_s, setup_kernel_ms = set_up(bench, args.seed, run_dir, tracer)
        loop = timed_loop(bench, bundles, args.seconds, tracer)
        if not loop.plain_ms or (tracer and not loop.traced_ms):
            print("perfbench: no timed call succeeded", file=sys.stderr)
            return 1
        if tracer:
            spans_path = results_dir / f"{args.workload}-seed{args.seed}-spans.jsonl"
            metrics, summary = per_layer(tracer, bundles, loop, spans_path)
        else:
            metrics, summary = end_to_end(bench, bundles, loop, repeat_s, setup_kernel_ms, import_s)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_dir.rmdir()
    report(args, metrics, summary, loop, bench, results_dir)
    return 0 if bench.failed == 0 else 1
