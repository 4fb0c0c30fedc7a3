"""The exact stdout and stderr of every subcommand on one 96x72 bundle, pinned.

Each subcommand returns the lines it prints and its warnings; the CLI prints
the lines to stdout and each warning to stderr as "warning: ...". A change to
the wording, the order or the numbers of any command shows here.
"""

import pytest

from triad.cli import main

OPTS = ["--opt=width=96", "--opt=height=72", "--opt=fx=120", "--opt=fy=120", "--opt=fixed_step=1"]
# 9 frames wanted from a 5-frame bundle: 8 adjacent frames asked for, 4 exist
SHORT = "--opt=sel_n_frames=9"
SHORTFALL = "warning: selection shortfall: wanted 8 frames, got 4\n"

SELECT = "0\n1\n3\n4\n"
ESTIMATE = "initial rmse = 0.291718\nrefined rmse = 0.137733\n"
NO_TRUTH = "estimate complete (no ground truth found, metrics skipped)\n"
EVAL = """\
[eval]
n_evaluated = 6912
abs_rel = 0.0587533911603
sq_rel = 0.00959852854722
log_rmse = 0.0734262917968
irmse = 0.0392555793831
rmse = 0.137696011851
delta[1.05] = 43.3015046296
delta[1.1] = 80.9751157407
delta[1.25] = 99.927662037
delta[1.5625] = 100
delta[1.953125] = 100
"""
UNCERTAINTY = """\
[uncertainty]
spearman_rho = -0.111090517191
spearman_defined = true
"""


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    root = tmp_path_factory.mktemp("text")
    assert main(["synth", "--root", str(root), *OPTS]) == 0
    return root


def run(capsys, command, root, *opts):
    """(exit code, stdout, stderr) of one CLI call."""
    capsys.readouterr()
    code = main([command, "--root", str(root), *OPTS, *opts])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_synth(tmp_path, capsys):
    root = tmp_path / "bundle"
    assert run(capsys, "synth", root) == (0, f"wrote bundle under {root} (12 files, keyframe 2)\n", "")


@pytest.mark.parametrize(
    "command, opts, out, err",
    [
        ("select", [], SELECT, ""),
        ("triangulate", [], "", ""),
        ("estimate", [], ESTIMATE, ""),
        ("estimate", ["--opt=gt_depth=missing.pfm"], NO_TRUTH, ""),
        ("ablate", [], "wrote {out}/ablation.csv\n", ""),
        ("select", [SHORT], SELECT, SHORTFALL),
        ("triangulate", [SHORT], "", SHORTFALL),
        ("estimate", [SHORT], ESTIMATE, SHORTFALL),
        ("ablate", [SHORT], "wrote {out}/ablation.csv\n", SHORTFALL),
    ],
    ids=["select", "triangulate", "estimate", "estimate-no-truth", "ablate"]
    + ["select-short", "triangulate-short", "estimate-short", "ablate-short"],
)
def test_command(bundle, capsys, request, command, opts, out, err):
    out_dir = "out_" + request.node.callspec.id
    result = run(capsys, command, bundle, f"--opt=out_dir={out_dir}", *opts)
    assert result == (0, out.format(out=bundle / out_dir), err)


def test_refine(bundle, capsys):
    assert run(capsys, "triangulate", bundle, "--opt=out_dir=out_refine")[0] == 0
    assert run(capsys, "refine", bundle, "--opt=out_dir=out_refine") == (0, "", "")


@pytest.mark.parametrize("sigma", [True, False], ids=["sigma", "no-sigma"])
def test_eval(bundle, capsys, sigma):
    out_dir = f"out_eval_{sigma}"
    assert run(capsys, "estimate", bundle, f"--opt=out_dir={out_dir}")[0] == 0
    opts = [f"--opt=pred_depth={out_dir}/depth_refined.pfm"]
    if sigma:
        opts += [f"--opt=out_dir={out_dir}", f"--opt=sigma_map={out_dir}/sigma.pfm"]
    else:  # sigma_map unset and an out_dir that holds no sigma.pfm
        opts += [f"--opt=out_dir={out_dir}_scored"]
    assert run(capsys, "eval", bundle, *opts) == (0, EVAL + (UNCERTAINTY if sigma else ""), "")


def test_eval_missing_sigma_map(bundle, capsys):
    out = bundle / "out_eval_missing"
    assert run(capsys, "estimate", bundle, "--opt=out_dir=out_eval_missing")[0] == 0
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    missing = bundle / "missing.pfm"
    err = f"data error: [Errno 2] No such file or directory: '{missing}'\n"
    assert run(capsys, "eval", bundle, "--opt=out_dir=out_eval_missing", "--opt=sigma_map=missing.pfm") == (2, "", err)
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before
