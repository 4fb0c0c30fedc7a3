"""Command-line entry point.

Subcommands: synth, select, triangulate, refine, estimate, ablate, eval.
Every subcommand shares the same configuration surface: an optional
"key = value" config file, TRIAD_<KEY> environment variables, and repeatable
--opt KEY=VALUE overrides (later sources win). All paths in the config are
resolved against --root.

Exit codes: 0 success, 1 usage or configuration error, 2 data or format
error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import ctypes
import os
import sys

from .errors import ConfigError, EmptyEvaluation, FormatError, InputError, NumericalError
from .pipeline import (
    cmd_ablate,
    cmd_estimate,
    cmd_eval,
    cmd_refine,
    cmd_select,
    cmd_synth,
    cmd_triangulate,
    load_run_config,
)


# glibc mallopt parameters, from <malloc.h>.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
# Blocks below this come from the heap rather than from their own mapping; the
# largest arrays a command allocates, VGA (H, W, 3) float64 grids, take 7.4 MB.
MMAP_THRESHOLD = 32 << 20
# Free memory at the top of the heap is kept up to this size. It exceeds what
# one command frees (a VGA ablate up to 40 iterations keeps 41 iterates, 100 MB).
TRIM_THRESHOLD = 256 << 20


def fix_heap_thresholds() -> bool:
    """Fix glibc's malloc trim and mmap thresholds; False where there is no mallopt.

    By default glibc raises both thresholds as a process frees large blocks,
    so whether the image-sized arrays freed at the end of one command go back
    to the system, and are faulted back in by the next command in the same
    process, depends on that process's heap layout. It varied from process
    to process: a VGA estimate took 0 or 12 900 page faults per call (about
    35 ms) on the same inputs. Fixed thresholds keep the freed blocks in
    every process.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mmap_set = mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    trim_set = mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD)
    return bool(mmap_set and trim_set)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


_COMMANDS = {
    "synth": (cmd_synth, "render a synthetic bundle (trajectory, flow, depth, texture)"),
    "select": (cmd_select, "print the adjacent frames chosen for the keyframe"),
    "triangulate": (cmd_triangulate, "triangulate the initial depth and confidence maps"),
    "refine": (cmd_refine, "refine a triangulated depth map already in out_dir"),
    "estimate": (cmd_estimate, "full chain: select, triangulate, refine, evaluate"),
    "ablate": (cmd_ablate, "sweep iteration counts and confidence variants"),
    "eval": (cmd_eval, "score a predicted depth map against ground truth"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="triad", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--root", default=".", help="directory all config paths resolve against")
        p.add_argument("--config", default=None, help="key = value config file")
        p.add_argument(
            "--opt",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override one config key (repeatable; wins over file and environment)",
        )
    return parser


def main(argv=None) -> int:
    fix_heap_thresholds()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1

    try:
        cfg = load_run_config(args.config, args.opt, os.environ)
        handler = _COMMANDS[args.command][0]
        summary = handler(cfg, args.root)
    except (ConfigError, _UsageError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except (FormatError, InputError, OSError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except (NumericalError, EmptyEvaluation) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3

    if args.command == "select":
        selection = summary["selection"]
        for index in selection.indices:
            print(index)
        if selection.shortfall:
            print("warning: selection shortfall", file=sys.stderr)
    elif args.command == "synth":
        print(f"wrote bundle under {args.root} ({len(summary['files'])} files, keyframe {summary['keyframe']})")
    elif args.command == "eval":
        for line in summary["text"]:
            print(line)
    elif args.command == "estimate":
        for warning in summary["warnings"]:
            print(f"warning: {warning}", file=sys.stderr)
        if "refined_report" in summary:
            print(f"initial rmse = {summary['initial_report'].rmse:.6g}")
            print(f"refined rmse = {summary['refined_report'].rmse:.6g}")
        else:
            print("estimate complete (no ground truth found, metrics skipped)")
    elif args.command == "ablate":
        print(f"wrote {summary['csv_path']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
