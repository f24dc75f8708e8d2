"""Smoke test of the benchmark's correctness gate.

    python3 -m pytest -q perfbench/test_gate.py
"""

import contextlib
import copy
import io
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import gate  # noqa: E402


def _report(seed, orth_time, margin, slack=1e-7):
    return {
        "provenance": {"campaign": "gue-ensemble", "seed": seed,
                       "config_hash": "abc"},
        "events": {
            "orthogonal": {"triggered": orth_time is not None, "time": orth_time,
                           "bracket_width": 1e-9 if orth_time else None},
            "antipodal": {"triggered": False, "time": None, "bracket_width": None},
        },
        "margins": [
            {"name": "survival", "margin": margin, "slack": slack,
             "satisfied": margin + slack >= 0},
            {"name": "antipodal_time", "margin": None, "slack": 0.0,
             "satisfied": True},
        ],
    }


def _write_campaign(out: Path, reports, n_violations=0):
    out.mkdir(parents=True, exist_ok=True)
    triggered = sum(r["events"]["orthogonal"]["triggered"] for r in reports)
    (out / "summary.json").write_text(json.dumps({
        "n_violations": n_violations,
        "trigger_rates": {"orthogonal": triggered / len(reports),
                          "antipodal": 0.0}}))
    for i, rep in enumerate(reports):
        (out / f"report-{i:04d}.json").write_text(json.dumps(rep))


@pytest.fixture
def reference(tmp_path):
    _write_campaign(tmp_path / "ref", [_report(0, 3.0, 0.5), _report(1, None, 0.25)])
    return gate.digest(0, tmp_path / "ref")


def _check(tmp_path, reports, code=0, n_violations=0):
    _write_campaign(tmp_path / "got", reports, n_violations)
    return gate.digest(code, tmp_path / "got")


def test_identical_outputs_pass(tmp_path, reference):
    assert gate.compare(copy.deepcopy(reference), reference) == []


def test_drift_within_widths_and_slack_passes(tmp_path, reference):
    got = _check(tmp_path, [_report(0, 3.0 + 1.5e-9, 0.5 + 5e-8),
                            _report(1, None, 0.25)])
    assert gate.compare(got, reference) == []


def test_config_hash_is_not_part_of_the_match(tmp_path, reference):
    reports = [_report(0, 3.0, 0.5), _report(1, None, 0.25)]
    for rep in reports:
        rep["provenance"]["config_hash"] = "changed"
    assert gate.compare(_check(tmp_path, reports), reference) == []


@pytest.mark.parametrize("reports, code, n_violations, expect", [
    ([_report(0, 3.0 + 3e-9, 0.5), _report(1, None, 0.25)], 0, 0, "time"),
    ([_report(0, 3.0, 0.5 + 2e-7), _report(1, None, 0.25)], 0, 0, "margin"),
    ([_report(0, 3.0, 0.5), _report(1, 2.0, 0.25)], 0, 0, "triggered"),
    ([_report(0, 3.0, 0.5), _report(2, None, 0.25)], 0, 0, "member runs"),
    ([_report(0, 3.0, 0.5), _report(1, None, 0.25)], 1, 0, "exit code"),
    ([_report(0, 3.0, 0.5), _report(1, None, 0.25)], 0, 1, "violations"),
])
def test_mismatch_fails(tmp_path, reference, reports, code, n_violations, expect):
    problems = gate.compare(_check(tmp_path, reports, code, n_violations), reference)
    assert any(expect in p for p in problems), problems


def test_decay_outputs_count_rows_and_violations(tmp_path):
    out = tmp_path / "decay"
    out.mkdir()
    (out / "report.json").write_text(json.dumps(_report(0, 3.0, -1.0)))
    (out / "trajectory.csv").write_text("t\n0\n1\n")
    (out / "decay.csv").write_text("t\n0\n")
    got = gate.digest(0, out)
    assert got["rows"] == {"trajectory.csv": 3, "decay.csv": 2}
    assert got["n_violations"] == 1


def test_recorded_reference_matches_the_program(tmp_path):
    """The closed-form suite is the same on every seed, so one short run
    checks the recorded reference against the program in this tree."""
    from qspeedlim.cli import main

    out = tmp_path / "verify"
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["verify", "--out", str(out)])
    reference = json.loads((BENCH / "reference" / "suite-small.json").read_text())
    assert gate.compare(gate.digest(code, out), reference["0"]["verify"]) == []
