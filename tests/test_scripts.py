import re
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


# The scripts' output with the small arguments below, pinned: a change to the
# synthetic chain or to the estimators must not move an experiment's numbers.
NOISE_SWEEP_CSV = """\
sigma_flow,outlier_rate,initial_rmse,refined_rmse,improvement,spearman_rho
1,0.03,0.719082,0.536975,0.253249,0.409179
"""
POLICY_COMPARISON_STDOUT = """\
fixed: frames [10, 11, 13, 14]
adaptive: frames [4, 8, 13, 17]
   policy  median rmse  mean rmse
    fixed       0.4512     0.4512
 adaptive       0.2400     0.2400
adaptive <= fixed in 2/2 runs
"""


def test_noise_sweep_runs(tmp_path):
    csv = tmp_path / "sweep.csv"
    proc = run_script(
        "noise_sweep.py",
        "--seeds", "2", "--width", "96", "--height", "72", "--fx", "120",
        "--sigmas", "1.0", "--outlier-rates", "0.03", "--csv", str(csv),
    )
    assert proc.returncode == 0, proc.stderr
    assert "refined" in proc.stdout
    assert csv.read_text() == NOISE_SWEEP_CSV


def test_policy_comparison_runs():
    proc = run_script(
        "policy_comparison.py",
        "--seeds", "2", "--width", "96", "--height", "72", "--fx", "120",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == POLICY_COMPARISON_STDOUT


def test_readme_library_example_runs(capsys):
    readme = SCRIPTS.parent / "README.md"
    section = readme.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    (code,) = re.findall(r"```python\n(.*?)```", section, re.DOTALL)
    exec(compile(code, str(readme), "exec"), {})
    assert capsys.readouterr().out.startswith("(240, 320) ")
