import csv
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_python(args, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, QSPEEDLIM_OUT=str(tmp_path), PYTHONPATH=path)
    return subprocess.run([sys.executable, *args], cwd=tmp_path, env=env,
                          capture_output=True, text=True)


def run_demo(name, tmp_path):
    return run_python([str(ROOT / "demos" / f"{name}.py")], tmp_path)


def test_readme_quick_start_runs(tmp_path):
    # the documented library API must stay the one the package has
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    proc = run_python(["-c", blocks[0]], tmp_path)
    assert proc.returncode == 0, proc.stderr
    event_time, satisfied = proc.stdout.split()
    assert abs(float(event_time) - math.pi) <= 1e-6
    assert satisfied == "True"


def test_two_level_demo_writes_survival_curves(tmp_path):
    proc = run_demo("two_level_speed_limits", tmp_path)
    assert proc.returncode == 0, proc.stderr
    for name in ("orthogonal-gap", "antipodal-gap"):
        with open(tmp_path / "two-level" / f"{name}-survival.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "survival", "survival_bound"]
        assert len(rows) == 2002  # default 2000 steps: 2001 grid rows


@pytest.mark.parametrize("name", ["entanglement_decay", "gue_ensemble_margins",
                                  "integrator_convergence", "qac_ising_chain"])
def test_demo_runs_cleanly(name, tmp_path):
    proc = run_demo(name, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
