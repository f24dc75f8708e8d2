import csv
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_two_level_demo_writes_survival_curves(tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, QSPEEDLIM_OUT=str(tmp_path), PYTHONPATH=path)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / "two_level_speed_limits.py")],
                          cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    for name in ("orthogonal-gap", "antipodal-gap"):
        with open(tmp_path / "two-level" / f"{name}-survival.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "survival", "survival_bound"]
        assert len(rows) == 2002  # default 2000 steps: 2001 grid rows
