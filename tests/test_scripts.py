"""The experiments in scripts/ run to completion on small arguments."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).parent.parent / "scripts"


def _run(name, *args):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_regularity_experiment_checks_pass():
    # the last column is the randomized test at the resolution's regularity
    lines = _run("regularity_experiment.py", "--count", "4").splitlines()
    header = lines[0].split()
    assert header[-1] == "bs-check"
    rows = [line.split() for line in lines[1:]]
    assert [row[-1] for row in rows] == ["ok"] * 4
    # sat_defect's regularity, read off the saturation, is the resolution's
    reg, sat_reg = header.index("reg"), header.index("sat-reg")
    assert all(row[reg] == row[sat_reg] for row in rows)


@pytest.mark.parametrize("name", ["twisted_cubic_walkthrough.py", "worst_case_probe.py"])
def test_script_runs(name):
    assert _run(name)
