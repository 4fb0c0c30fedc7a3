#!/usr/bin/env python3
"""triad benchmark: per-keyframe latency and depth accuracy, with traced per-layer spans.

Run from the root of a checkout (triad is imported from its ``src/``):

    python3 perfbench/run.py --workload estimate_vga --seed 1 --seconds 25 --trace 0

Workloads: estimate_vga, estimate_qvga_8view, refine_vga_40it (see
perfbench/workloads.py and perfbench/README.md). One client calls
``triad.cli.main`` in a closed loop, each call on the next of several seeded
bundles, and checks every call's outputs. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates plain and traced calls and
reports per-layer metrics from the spans. The last line of standard output
is one JSON object; a human-readable summary precedes it. The exit code is 0
only when every call and check passed.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent
THREAD_POOL_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def import_triad():
    """Import triad's CLI from this checkout's src/, or exit 2 when it is not there."""
    src = CHECKOUT / "src"
    sys.path.insert(0, str(src))
    try:
        import triad.cli as cli
    except ImportError as e:
        print(f"perfbench: cannot import triad from {src}: {e}", file=sys.stderr)
        sys.exit(2)
    if src not in Path(cli.__file__).resolve().parents:
        print(f"perfbench: triad was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        sys.exit(2)
    return cli


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    # Pin the BLAS and OpenMP pools before numpy loads, so only the
    # pipeline's own `workers` threads run; drop TRIAD_* so each bundle's
    # run.cfg is the only configuration a call sees.
    for var in THREAD_POOL_VARS:
        os.environ[var] = "1"
    for var in [v for v in os.environ if v.startswith("TRIAD_")]:
        del os.environ[var]

    start = time.perf_counter()
    cli = import_triad()
    import_s = time.perf_counter() - start

    import harness

    return harness.run(cli, WORKLOADS[args.workload], args, import_s, CHECKOUT)


if __name__ == "__main__":
    sys.exit(main())
