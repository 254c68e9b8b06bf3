"""Smoke runs of the reproduction scripts at a tiny design."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                          capture_output=True, text=True, env=env, timeout=300)


@pytest.mark.parametrize("which, stats", [("1", ["emp_G_star", "emp_T"]),
                                          ("2", ["emp_G_star", "emp_T", "emp_boot"])])
def test_reproduce_table(which, stats):
    proc = run_script("reproduce_table.py", "--which", which, "--outer", "1", "--inner", "5")
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split() == ["Distribution", "n", *stats]
    assert len(rows) == 9
    assert all(len(row.split()) == 2 + len(stats) for row in rows)


def test_coverage_experiment():
    proc = run_script("coverage_experiment.py", "--recipe", "cdf", "--model", "exponential1",
                      "--n", "20", "--reps", "5", "--x", "0.7")
    assert proc.returncode == 0, proc.stderr
    assert '"recipe": "cdf"' in proc.stdout
