"""Reports are invariant under (t, hbar) -> (lambda t, lambda hbar).

In s = t/hbar the relation hbar d(t, beta) <= int_0^t ||(H - beta) phi0|| dtau
reads d <= int_0^s ||(H - beta) phi0|| ds, and hbar drops out. evolve runs the
numerics in s, so a run at (lambda t, lambda hbar) must report what the run at
(t, 1) reports, with its times and time-valued margins in units of lambda.
"""

import json

import pytest

from qspeedlim.cli import main

LAMBDAS = [1e-300, 1e-20, 1e-3, 1e20]

T_VALUES = (1.0, 4.0, 16.0, 1e6)

NAMES = ["qac", "ensemble", "decay", "verify"]

CHAIN3 = {"n": 3, "couplings": [[0, 1, -1.0], [1, 2, -1.0]], "fields": [[0, 0.25], [2, -0.5]]}

# lhs, rhs and margin agree to this fraction of the larger of |lhs| and |rhs|:
# a horizon taken from hbar-relative characteristic times is lambda-scaled
# only to an ulp, so the s grid, and every sum on it, moves by round-off
VALUE_RTOL = 1e-9
# a slack holds hbar sqrt(2 norm_max_dev), and norm_max_dev is round-off of a
# few ulps, so it moves by up to about 5e-9 in units of lambda
SLACK_ATOL = 5e-8


def command(name, lam, tmp_path):
    if name == "qac":
        chain3 = tmp_path / "chain3.json"
        chain3.write_text(json.dumps(CHAIN3))
        times = ",".join(repr(lam * T) for T in T_VALUES)
        argv = ["qac", "--instance", str(chain3), "--T", times]
    elif name == "ensemble":  # seed 4 reaches the antipodal state
        argv = ["ensemble", "--dim", "2", "--seeds", "0..6"]
    elif name == "verify":  # the analytic suite, its horizons in units of hbar
        argv = ["verify"]
    else:
        argv = ["decay", "--two-level"]
    return argv + ["--hbar", repr(lam), "--out", str(tmp_path / "out")]


def run(name, lam, tmp_path):
    """Exit code, summary and reports (ordered by T, then seed) of one command."""
    rc = main(command(name, lam, tmp_path))
    out = tmp_path / "out"
    reports = [json.loads(p.read_text()) for p in sorted(out.glob("report*.json"))]
    reports.sort(key=lambda r: (r["provenance"].get("T", 0.0), r["provenance"].get("seed", 0)))
    summary = out / "summary.json"
    return rc, json.loads(summary.read_text()) if summary.exists() else None, reports


@pytest.fixture(scope="module")
def unit_runs(tmp_path_factory):
    return {name: run(name, 1.0, tmp_path_factory.mktemp(name))
            for name in NAMES}


def assert_scaled(got, want, unit, rtol, atol=0.0):
    if want is None:
        assert got is None
    else:
        assert abs(got / unit - want) <= rtol + atol, (got, want, unit)


@pytest.mark.parametrize("lam", LAMBDAS)
@pytest.mark.parametrize("name", NAMES)
def test_reports_scale_with_hbar(name, lam, tmp_path, unit_runs):
    rc, summary, reports = run(name, lam, tmp_path)
    want_rc, want_summary, want_reports = unit_runs[name]
    assert rc == want_rc == 0
    if summary is not None:
        for key in ("n_runs", "n_violations", "trigger_rates"):
            assert summary[key] == want_summary[key]
    assert len(reports) == len(want_reports) > 0
    for report, want in zip(reports, want_reports):
        for kind, event in report["events"].items():
            base = want["events"][kind]
            assert event["triggered"] == base["triggered"]
            assert (event["note"] is None) == (base["note"] is None)
            if name == "qac":  # T / hbar is exact, so the run walks the same s grid
                assert event["functional_value"] == base["functional_value"]
            else:
                assert abs(event["functional_value"] - base["functional_value"]) <= 1e-12
            if event["triggered"]:
                width = max(event["bracket_width"], lam * base["bracket_width"])
                assert abs(event["time"] - lam * base["time"]) <= width
        for key, value in report["characteristic_times"].items():
            base = want["characteristic_times"][key]  # None where unreachable
            assert_scaled(value, base, lam, VALUE_RTOL * (base or 0.0))
        assert [m["name"] for m in report["margins"]] == [m["name"] for m in want["margins"]]
        for margin, base in zip(report["margins"], want["margins"]):
            assert margin["satisfied"] == base["satisfied"]
            unit = 1.0 if margin["name"] == "survival" else lam
            scale = max(abs(base["lhs"] or 0.0), abs(base["rhs"] or 0.0))
            for key in ("lhs", "rhs", "margin"):
                assert_scaled(margin[key], base[key], unit, VALUE_RTOL * scale)
            assert_scaled(margin["slack"], base["slack"], unit, VALUE_RTOL * base["slack"],
                          SLACK_ATOL)
