import dataclasses
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qspeedlim import campaigns, cli
from qspeedlim.bounds import BoundReport, CharacteristicTimes, Margin, MomentPair
from qspeedlim.campaigns import CampaignResult
from qspeedlim.cli import (
    _finish_campaign,
    main,
    parse_schedule,
    parse_seeds,
    parse_times,
)
from qspeedlim.schedules import Schedule

FAST = ["--steps", "400"]

FUZZ_BASES = [
    {"kind": "analytic-two-level", "parameters": {}, "integrator": {"steps": 40}},
    {"kind": "gue-ensemble", "parameters": {"dim": 2, "seeds": [0, 1]},
     "integrator": {"steps": 40}},
    {"kind": "qac-ising", "integrator": {"steps": 40},
     "parameters": {"instance": {"n": 1, "fields": [[0, -0.5]]}, "T_values": [1.0],
                    "sched": {"kind": "poly", "power": 2}}},
    {"kind": "entanglement-compare", "parameters": {"subsystem_dim": 2, "seeds": [0]},
     "integrator": {"steps": 40}},
]

_FUZZ_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 4), st.text(max_size=3),
    st.sampled_from([-1.0, 0.0, 0.5, 2.5, 1e308, math.nan, math.inf, -math.inf]))
FUZZ_VALUES = st.one_of(
    _FUZZ_SCALARS, st.lists(_FUZZ_SCALARS, max_size=3),
    st.dictionaries(st.sampled_from(["kind", "power", "n", "knots"]),
                    st.one_of(_FUZZ_SCALARS, st.sampled_from(["linear", "poly"])),
                    max_size=2))


def run_main(argv, capsys=None):
    rc = main(argv)
    return rc


def with_forced_violation(report):
    """report with a failing margin appended; the bounds cannot fail
    honestly, so the exit-1 paths are reached this way."""
    forced = Margin(name="forced", lhs=2.0, rhs=1.0, slack=0.0)
    return dataclasses.replace(report, margins=(*report.margins, forced))


def src_env():
    """The environment with this checkout's sources first on PYTHONPATH."""
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def run_cli_process(argv, **kwargs):
    """The CLI in a fresh interpreter, with this checkout's sources first on the path."""
    return subprocess.run([sys.executable, "-m", "qspeedlim.cli", *argv], capture_output=True,
                          text=True, env=src_env(), **kwargs)


class TestArgumentParsing:
    def test_seed_range(self):
        assert parse_seeds("0..5") == [0, 1, 2, 3, 4]

    def test_seed_comma_list(self):
        assert parse_seeds("3, 7,11") == [3, 7, 11]

    def test_times(self):
        assert parse_times("1,4,16") == [1.0, 4.0, 16.0]

    def test_empty_times_rejected(self):
        with pytest.raises(ValueError):
            parse_times(" , ")

    def test_schedule_specs(self):
        assert Schedule.from_dict(parse_schedule("linear")).kind == "linear"
        sched = Schedule.from_dict(parse_schedule("poly:2"))
        assert sched.kind == "poly"
        assert sched.g(0.5) == pytest.approx(0.25)

    def test_schedule_from_file(self, tmp_path):
        path = tmp_path / "sched.json"
        path.write_text(json.dumps({"kind": "poly", "power": 3.0}))
        assert Schedule.from_dict(parse_schedule(str(path))).power == 3.0

    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_ensemble_requires_dim(self):
        with pytest.raises(SystemExit) as err:
            main(["ensemble"])
        assert err.value.code == 2


class TestVerify:
    def test_analytic_and_campaign_conflict(self, tmp_path, capsys):
        path = tmp_path / "campaign.json"
        path.write_text(json.dumps(FUZZ_BASES[0]))
        with pytest.raises(SystemExit) as err:
            main(["verify", "--analytic", "--campaign", str(path), "--out", str(tmp_path)])
        assert err.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err
        assert not (tmp_path / "summary.json").exists()

    def test_analytic_suite_exits_0(self, tmp_path, capsys):
        rc = main(["verify", "--analytic", "--out", str(tmp_path), *FAST])
        assert rc == 0
        out = capsys.readouterr().out
        assert "hbar = 1" in out
        assert "0 violations" in out
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["kind"] == "analytic-two-level"
        assert summary["n_violations"] == 0

    def test_hbar_override_in_header(self, tmp_path, capsys):
        rc = main(["verify", "--out", str(tmp_path), "--hbar", "2.0", *FAST])
        assert rc == 0
        assert "hbar = 2" in capsys.readouterr().out

    def test_campaign_file(self, tmp_path):
        campaign_path = tmp_path / "campaign.json"
        campaign_path.write_text(json.dumps({
            "kind": "gue-ensemble",
            "parameters": {"dim": 2, "seed_range": [0, 2]},
            "integrator": {"steps": 300},
        }))
        out = tmp_path / "results"
        rc = main(["verify", "--campaign", str(campaign_path), "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_runs"] == 2

    def test_campaign_hbar_in_header(self, tmp_path, capsys):
        campaign_path = tmp_path / "campaign.json"
        campaign_path.write_text(json.dumps({
            "kind": "analytic-two-level", "integrator": {"hbar": 2.0, "steps": 400}}))
        rc = main(["verify", "--campaign", str(campaign_path), "--out", str(tmp_path / "r")])
        assert rc == 0
        assert "hbar = 2" in capsys.readouterr().out

    @pytest.mark.parametrize("campaign, field", [
        ({"kind": "gue-ensemble", "parameters": {"dim": 2, "seeds": [0]},
          "integrator": {"stepz": 10}}, "stepz"),
        ({"kind": "gue-ensemble", "parameters": {"dim": "2", "seeds": [0]}}, "dim"),
        ({"kind": "gue-ensemble", "parameters": {"dim": 2, "seeds": [0]},
          "integrator": {"record_states": "no"}}, "record_states"),
        ({"kind": "qac-ising", "parameters": {"instance": {"n": 1, "fields": [[0, -0.5]]},
                                              "T_values": [1.0, 4.0]},
          "integrator": {"steps": 50, "record_states": False}}, "record_states"),
    ], ids=["unknown-integrator-key", "mistyped-parameter", "string-record-states",
            "qac-record-states"])
    def test_campaign_type_errors_exit_2(self, tmp_path, capsys, campaign, field):
        campaign_path = tmp_path / "campaign.json"
        campaign_path.write_text(json.dumps(campaign))
        rc = main(["verify", "--campaign", str(campaign_path), "--out", str(tmp_path / "r")])
        assert rc == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("parameters, field", [
        ({"instance": "inst.json"}, "instance"),
        ({"T_values": 5}, "T_values"),
        ({"sched": {"kind": "poly", "power": "2"}}, "power"),
        ({"sched": "linear"}, "schedule"),
        ({"sched": {"kind": "poly", "power": 1e400}}, "power"),
    ], ids=["instance-path", "scalar-T-values", "string-power", "string-sched",
            "infinite-power"])
    def test_nested_qac_parameter_errors_exit_2(self, tmp_path, capsys, parameters, field):
        campaign = {"kind": "qac-ising", "integrator": {"steps": 50},
                    "parameters": {"instance": {"n": 1, "fields": [[0, -0.5]]},
                                   "T_values": [1.0], **parameters}}
        campaign_path = tmp_path / "campaign.json"
        campaign_path.write_text(json.dumps(campaign))
        rc = main(["verify", "--campaign", str(campaign_path), "--out", str(tmp_path / "r")])
        assert rc == 2
        assert field in capsys.readouterr().err

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_fuzzed_campaign_exits_0_or_2(self, data):
        # well-formed small campaigns with one field replaced by an arbitrary
        # JSON value; sizes stay small so a valid draw runs in milliseconds
        campaign = json.loads(json.dumps(data.draw(st.sampled_from(FUZZ_BASES))))
        section = data.draw(st.sampled_from(["parameters", "integrator", None]))
        if section is not None:
            names = sorted(campaign[section]) + ["dim", "seeds", "sched", "power", "n"]
            campaign[section][data.draw(st.sampled_from(names))] = data.draw(FUZZ_VALUES)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "campaign.json"
            path.write_text(json.dumps(campaign))
            rc = main(["verify", "--campaign", str(path), "--out", str(Path(tmp) / "r")])
        assert rc in (0, 2), campaign

    def test_verbose_prints_member_lines(self, tmp_path, capsys):
        rc = main(["verify", "-v", "--out", str(tmp_path), *FAST])
        assert rc == 0
        out = capsys.readouterr().out
        assert "[0000]" in out and "-> ok" in out

    def test_dt_steps_conflict_exits_2(self, tmp_path, capsys):
        rc = main(["verify", "--dt", "0.1", "--steps", "100",
                   "--out", str(tmp_path)])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_summary_bytes_reproducible(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["verify", "--out", str(out), *FAST]) == 0
        assert (a / "summary.csv").read_bytes() == (b / "summary.csv").read_bytes()
        assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()


@pytest.mark.parametrize("argv, campaign", [
    (["verify"], {"kind": "analytic-two-level", "parameters": {}}),
    (["ensemble", "--dim", "2", "--seeds", "0..3", "--horizon-mult", "3", "--shift-ground",
      "--hbar", "2"],
     {"kind": "gue-ensemble", "integrator": {"hbar": 2.0},
      "parameters": {"dim": 2, "seeds": [0, 1, 2], "horizon_mult": 3.0, "shift_ground": True}}),
    (["qac", "--instance", "chain3.json", "--schedule", "poly:2", "--T", "1,4",
      "--shift-ground", "--method", "rk4"],
     {"kind": "qac-ising", "integrator": {"method": "rk4"},
      "parameters": {"instance": {"n": 3, "couplings": [[0, 1, -1.0], [1, 2, -1.0]],
                                  "fields": [[0, 0.25], [2, -0.5]]},
                     "sched": {"kind": "poly", "power": 2.0}, "T_values": [1.0, 4.0],
                     "shift_problem_ground": True}}),
    (["entangle", "--subsystem-dim", "2", "--seeds", "0..2", "--horizon-mult", "4"],
     {"kind": "entanglement-compare",
      "parameters": {"subsystem_dim": 2, "seeds": [0, 1], "horizon_mult": 4.0}}),
], ids=["verify", "ensemble", "qac", "entangle"])
def test_flags_and_campaign_file_write_the_same_bytes(tmp_path, monkeypatch, argv, campaign):
    # a verb's flags spell the campaign a file holds, and both take one path
    (tmp_path / "chain3.json").write_text(json.dumps(campaign["parameters"].get("instance", {})))
    integrator = {**campaign.get("integrator", {}), "steps": 400}
    (tmp_path / "campaign.json").write_text(json.dumps({**campaign, "integrator": integrator}))
    monkeypatch.chdir(tmp_path)
    assert main([*argv, *FAST, "--out", "flags"]) == 0
    assert main(["verify", "--campaign", "campaign.json", "--out", "file"]) == 0
    names = sorted(path.name for path in (tmp_path / "flags").iterdir())
    assert names == sorted(path.name for path in (tmp_path / "file").iterdir())
    assert {"summary.json", "summary.csv", "report-0000.json"} <= set(names)
    for name in names:
        assert (tmp_path / "flags" / name).read_bytes() == (tmp_path / "file" / name).read_bytes()


class TestEnsemble:
    def test_small_ensemble(self, tmp_path):
        rc = main(["ensemble", "--dim", "2", "--seeds", "0..3",
                   "--out", str(tmp_path), "--steps", "300"])
        assert rc == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["n_runs"] == 3
        assert (tmp_path / "summary.csv").exists()
        assert (tmp_path / "report-0002.json").exists()

    def test_comma_seed_list(self, tmp_path):
        rc = main(["ensemble", "--dim", "2", "--seeds", "1,5",
                   "--out", str(tmp_path), "--steps", "300"])
        assert rc == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["n_runs"] == 2

    def test_workers_flag(self, tmp_path):
        # --workers went with the thread pool; an old command line is a usage error
        with pytest.raises(SystemExit) as err:
            main(["ensemble", "--dim", "2", "--seeds", "0..4", "--workers", "2",
                  "--out", str(tmp_path), "--steps", "300"])
        assert err.value.code == 2

    def test_astronomical_horizon_is_input_error(self, tmp_path, capsys):
        # phases of ~1e300 carry no significant digits, so no bound is checked
        rc = main(["ensemble", "--dim", "8", "--seeds", "0..2", "--horizon-mult", "1e300",
                   "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "integration failed at t = " in err and "largest phase" in err


class TestQac:
    @pytest.fixture
    def instance_path(self, tmp_path):
        path = tmp_path / "chain3.json"
        path.write_text(json.dumps({
            "n": 3,
            "couplings": [[0, 1, -1.0], [1, 2, -1.0]],
            "fields": [],
        }))
        return path

    def test_per_T_reports(self, instance_path, tmp_path, capsys):
        out = tmp_path / "qac-out"
        rc = main(["qac", "--instance", str(instance_path),
                   "--schedule", "linear", "--T", "1,4",
                   "--out", str(out), "--steps", "300"])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_runs"] == 2
        assert len(summary["qac_diagnostics"]) == 2
        assert (out / "report-0001.json").exists()

    def test_poly_schedule_spec(self, instance_path, tmp_path):
        rc = main(["qac", "--instance", str(instance_path),
                   "--schedule", "poly:2", "--T", "1",
                   "--out", str(tmp_path / "o"), "--steps", "300"])
        assert rc == 0

    def test_concave_schedule_holds_every_bound(self, tmp_path):
        # the acceptance chain; a grid trapezoid of a concave g undercounted
        # G(t) and put the survival floor past the survival at T = 4 and 16,
        # and a midpoint sample of g near tau = 0, where g' is unbounded, put
        # the survival itself below the floor for p = 0.1 and 0.3
        path = tmp_path / "chain3.json"
        path.write_text(json.dumps({"n": 3, "couplings": [[0, 1, -1.0], [1, 2, -1.0]],
                                    "fields": [[0, 0.25], [2, -0.5]]}))
        for spec in ("poly:0.5", "poly:0.3", "poly:0.1"):
            out = tmp_path / spec.replace(":", "-")
            rc = main(["qac", "--instance", str(path), "--schedule", spec,
                       "--T", "1,4,16", "--out", str(out)])
            assert rc == 0, spec
            assert json.loads((out / "summary.json").read_text())["n_violations"] == 0, spec

    def test_malformed_instance_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n": 1,\n "couplings": }\n')
        rc = main(["qac", "--instance", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error" in err and "bad.json:2" in err

    def test_missing_instance_file_exits_2(self, tmp_path, capsys):
        rc = main(["qac", "--instance", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_unallocatable_step_grid_exits_2(self, instance_path, tmp_path, capfd):
        # 4e13 steps: the 291 TiB time grid fails to allocate at once
        rc = main(["qac", "--instance", str(instance_path), "--T", "4", "--dt", "1e-13",
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capfd.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_rk4_prints_only_the_error(self, instance_path, tmp_path, capfd):
        # pytest records warnings rather than printing them, so a numpy
        # RuntimeWarning on the way to the norm check is raised here instead
        rc = main(["qac", "--instance", str(instance_path), "--method", "rk4", "--steps", "10",
                   "--T", "1e150", "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capfd.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: integration failed")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_ising_energy_prints_only_the_error(self, tmp_path, capfd):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"n": 2, "fields": [[0, 1e308], [1, 1e308]]}))
        rc = main(["qac", "--instance", str(path), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capfd.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: Ising instance")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_knot_integral_is_input_error(self, instance_path, tmp_path, capfd):
        # every knot is finite, but the trapezoid integrals of f and g overflow
        path = tmp_path / "knots.json"
        path.write_text(json.dumps({"kind": "tabulated",
                                    "knots": [[0, 1, 0], [0.5, 1e308, 1e308], [1, 0, 1]]}))
        rc = main(["qac", "--instance", str(instance_path), "--schedule", str(path),
                   "--T", "4", "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capfd.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and "knots" in err

    def test_overflowing_moments_are_input_error(self, tmp_path, capfd):
        # <H^2> and <H>^2 both overflow at a field of 1e308
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"n": 1, "fields": [[0, 1e308]]}))
        rc = main(["qac", "--instance", str(path), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capfd.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and "moments" in err

    def test_astronomical_T_returns_promptly(self, tmp_path):
        # phases of ~1e300 carry no significant digits, so the run is
        # rejected before its first step
        path = tmp_path / "chain3.json"
        path.write_text(json.dumps({"n": 3, "couplings": [[0, 1, -1.0], [1, 2, -1.0]],
                                    "fields": [[0, 0.25], [2, -0.5]]}))
        proc = run_cli_process(["qac", "--instance", str(path), "--T", "1e300",
                                "--out", str(tmp_path / "o")], timeout=10)
        assert proc.returncode == 2, proc.stderr
        assert "largest phase" in proc.stderr
        assert "Warning" not in proc.stderr


class TestDecay:
    def test_two_level_outputs(self, tmp_path, capsys):
        rc = main(["decay", "--two-level", "--out", str(tmp_path), *FAST])
        assert rc == 0
        header = (tmp_path / "decay.csv").read_text().splitlines()[0]
        assert header.split(",") == ["t", "survival", "survival_bound",
                                     "bound_vacuous", "exp_decay_diagnostic",
                                     "regime_ok"]
        assert (tmp_path / "trajectory.csv").exists()
        assert (tmp_path / "report.json").exists()
        out = capsys.readouterr().out
        # the two-level gap system reaches orthogonality at pi
        assert "orthogonality reached at t = 3.14159" in out
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["measured_orth_time"] == pytest.approx(math.pi, abs=1e-6)

    def test_random_system(self, tmp_path):
        rc = main(["decay", "--dim", "3", "--seed", "4",
                   "--out", str(tmp_path), "--steps", "300"])
        assert rc == 0
        sidecar = json.loads((tmp_path / "trajectory.meta.json").read_text())
        assert sidecar["seed"] == 4

    def test_beta_override_changes_columns(self, tmp_path):
        rc = main(["decay", "--two-level", "--beta", "0.3",
                   "--out", str(tmp_path), *FAST])
        assert rc == 0
        header = (tmp_path / "trajectory.csv").read_text().splitlines()[0]
        assert "distance_const0.3" in header
        assert "distance_opt" not in header

    @pytest.mark.parametrize("beta", ["nan", "inf", "-inf", "1e308", "1e200"])
    def test_non_finite_or_overflowing_beta_is_input_error(self, tmp_path, capsys, beta):
        # 1e308 is finite, but its phase integral overflows, and 1e200 overflows
        # the norm of (H - beta) phi0; none of these is a violation
        rc = main(["decay", "--two-level", f"--beta={beta}", "--out", str(tmp_path), *FAST])
        assert rc == 2
        captured = capsys.readouterr()
        assert "violating report" not in captured.out
        assert "beta" in captured.err

    @pytest.mark.parametrize("beta", ["1e308", "1e200"])
    def test_overflowing_beta_prints_only_the_error(self, tmp_path, beta):
        proc = run_cli_process(["decay", "--two-level", "--beta", beta,
                                "--out", str(tmp_path), *FAST])
        assert proc.returncode == 2
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("error: ")

    @pytest.mark.parametrize("hbar", ["1e300", "1e-300"])
    def test_extreme_hbar_exits_cleanly(self, tmp_path, hbar):
        # hbar**2 overflows or underflows at these; the survival floor is taken in t/hbar
        proc = run_cli_process(["decay", "--two-level", "--hbar", hbar,
                                "--out", str(tmp_path), *FAST])
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("argv", [
        ["decay", "--two-level", "--hbar", "1e-320"],
        ["ensemble", "--dim", "2", "--seeds", "0..2", "--hbar", "5e-324"],
    ], ids=["decay", "ensemble"])
    def test_subnormal_step_rejected(self, tmp_path, capfd, argv):
        # these hbar are subnormal, so s = t/hbar would have lost its digits
        rc = main([*argv, "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capfd.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: hbar must be ") and "hbar" in err

    @pytest.mark.parametrize("argv", [
        ["decay", "--two-level", "--horizon", "1e300", "--dt", "1e-300"],
        ["decay", "--two-level", "--dt", "1e-320"],
    ], ids=["horizon", "dt"])
    def test_step_count_past_the_float_range_rejected(self, tmp_path, capfd, argv):
        # horizon / dt overflows to inf: no step count exists, an input error
        rc = main([*argv, "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capfd.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: horizon ") and "dt" in err

    def test_report_matches_the_ensemble_member(self, tmp_path):
        # decay and ensemble share one time-independent recipe
        assert main(["decay", "--dim", "8", "--seed", "3", "--out", str(tmp_path / "d")]) == 0
        assert main(["ensemble", "--dim", "8", "--seeds", "3..4",
                     "--out", str(tmp_path / "e")]) == 0
        decay = json.loads((tmp_path / "d" / "report.json").read_text())
        member = json.loads((tmp_path / "e" / "report-0000.json").read_text())
        assert decay.pop("provenance") != member.pop("provenance")
        assert decay == member

    def test_needs_system_choice(self, tmp_path, capsys):
        rc = main(["decay", "--out", str(tmp_path)])
        assert rc == 2
        assert "--two-level or --dim" in capsys.readouterr().err

    def test_dt_sets_the_row_count(self, tmp_path):
        # default horizon 4 t_orth = 8 sqrt(2) ~ 11.31 in ceil(1131.4) = 1132 steps of dt
        assert main(["decay", "--two-level", "--dt", "0.01", "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "decay.csv").read_text().splitlines()[1:]
        assert len(rows) == 1133
        assert float(rows[-1].split(",")[0]) == pytest.approx(8.0 * math.sqrt(2.0))

    def test_violating_report_exits_1(self, tmp_path, capsys, monkeypatch):
        run_time_independent = cli.run_time_independent

        def run(*args, **kwargs):
            report, traj = run_time_independent(*args, **kwargs)
            return with_forced_violation(report), traj
        monkeypatch.setattr(cli, "run_time_independent", run)
        rc = main(["decay", "--two-level", "--out", str(tmp_path), *FAST])
        assert rc == 1
        assert "violating report:" in capsys.readouterr().out
        report = json.loads((tmp_path / "report.json").read_text())
        assert [m["name"] for m in report["margins"] if not m["satisfied"]] == ["forced"]

    def test_horizon_override(self, tmp_path):
        rc = main(["decay", "--two-level", "--horizon", "1.0",
                   "--out", str(tmp_path), *FAST])
        assert rc == 0
        last = (tmp_path / "decay.csv").read_text().splitlines()[-1]
        assert float(last.split(",")[0]) == pytest.approx(1.0)

    @pytest.mark.parametrize("argv", [
        ["decay", "--dim", "4", "--hbar", "1e-310"],
        ["decay", "--hbar", "1e-310"],
        ["decay"],
    ], ids=["dim-hbar", "hbar", "bare"])
    def test_prints_nothing_before_its_error(self, tmp_path, capfd, argv):
        # the units header follows the inputs, as on the campaign verbs
        rc = main([*argv, "--out", str(tmp_path / "o")])
        assert rc == 2
        out, err = capfd.readouterr()
        assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")
        assert not (tmp_path / "o").exists()


class TestSubnormalHbar:
    """An hbar outside the float range is named as the fault. Below the smallest
    normal float, 1/hbar overflows and s = t/hbar has lost its digits before any
    step; near the largest one, a horizon of a few hbar or a characteristic time
    overflows. A horizon multiple that overflows the horizon is named likewise."""

    @pytest.mark.parametrize("argv, names", [
        (["qac", "--instance", "chain3.json", "--hbar", "1e-310", "--T", "1e-304"], ["hbar"]),
        (["decay", "--two-level", "--hbar", "1e-310", "--horizon", "1e-303"], ["hbar"]),
        (["verify", "--hbar", "1e308"], ["hbar", "orthogonal-two-level"]),
        (["ensemble", "--dim", "2", "--seeds", "0..2", "--horizon-mult", "1e308"],
         ["horizon_mult", "characteristic time"]),
        (["ensemble", "--dim", "2", "--seeds", "0..2", "--horizon-mult", "inf"],
         ["horizon_mult", "characteristic time"]),
        (["decay", "--two-level", "--hbar", "1e308"], ["hbar", "characteristic time"]),
    ], ids=["qac", "decay", "verify-overflow", "ensemble-overflow", "ensemble-inf",
            "decay-overflow"])
    def test_command_exits_2_naming_hbar(self, tmp_path, capfd, monkeypatch, argv, names):
        (tmp_path / "chain3.json").write_text(json.dumps(
            {"n": 3, "couplings": [[0, 1, -1.0], [1, 2, -1.0]], "fields": [[0, 0.25], [2, -0.5]]}))
        monkeypatch.chdir(tmp_path)
        rc = main([*argv, "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capfd.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ") and all(name in err for name in names)
        assert not (tmp_path / "o").exists()

    def test_campaign_exits_2_before_any_member_runs(self, tmp_path, capfd, monkeypatch):
        def evolve(*args, **kwargs):
            raise AssertionError("a member ran")

        monkeypatch.setattr(campaigns, "evolve", evolve)
        campaign_path = tmp_path / "campaign.json"
        campaign_path.write_text(json.dumps({
            "kind": "gue-ensemble", "parameters": {"dim": 2, "seeds": [0, 1]},
            "integrator": {"hbar": 1e-310}}))
        rc = main(["verify", "--campaign", str(campaign_path), "--out", str(tmp_path / "r")])
        assert rc == 2
        out, err = capfd.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        assert err.startswith("error: ") and "hbar" in err
        assert not (tmp_path / "r").exists()


class TestEntangle:
    def test_small_comparison(self, tmp_path):
        rc = main(["entangle", "--subsystem-dim", "2", "--seeds", "0..2",
                   "--out", str(tmp_path), "--steps", "300"])
        assert rc == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["n_runs"] == 6
        assert "entanglement" in summary


class TestReport:
    def test_summarizes_results_dir(self, tmp_path, capsys):
        assert main(["verify", "--out", str(tmp_path), *FAST]) == 0
        capsys.readouterr()
        rc = main(["report", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "campaign: analytic-two-level" in out
        assert "runs: 4, violations: 0" in out
        assert "margin quantiles" in out
        assert "orthogonal_time" in out

    def test_run_flags_rejected(self, tmp_path):
        # report reads only the summary, so a run flag is a usage error
        with pytest.raises(SystemExit) as info:
            main(["report", "--steps", "5", "--method", "rk4", "--hbar", "7", str(tmp_path)])
        assert info.value.code == 2

    def test_missing_dir_exits_2(self, tmp_path, capsys):
        rc = main(["report", str(tmp_path / "missing")])
        assert rc == 2
        assert "summary.json" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        "{}", '{"kind": "x"}', "[]", '"summary"', "{\n  \"kind\": }\n",
        '{"kind": "x", "config_hash": "c", "n_runs": "three", "n_violations": 0}',
        '{"kind": "x", "config_hash": "c", "n_runs": 1, "n_violations": null}',
        '{"kind": "x", "config_hash": "c", "n_runs": 1, "n_violations": 0, '
        '"trigger_rates": {"orthogonal": "high"}}',
        '{"kind": "x", "config_hash": "c", "n_runs": 1, "n_violations": 0, '
        '"margin_quantiles": {"survival": {"min": 0.1}}}',
    ], ids=["empty", "kind-only", "array", "string", "malformed", "text-count",
            "null-count", "text-rate", "short-quantiles"])
    def test_malformed_summary_exits_2(self, text, tmp_path, capsys):
        (tmp_path / "summary.json").write_text(text)
        assert main(["report", str(tmp_path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "summary.json" in err


class TestViolationPath:
    def test_synthetic_violation_exits_1_after_writing(self, tmp_path, capsys):
        # inequalities cannot be made to fail honestly, so the exit-1 path is
        # exercised with a hand-built failing report
        bad = Margin(name="general:zero", lhs=2.0, rhs=1.0, slack=0.0)
        rep = BoundReport(
            context="time-independent",
            moments=MomentPair(energy=0.5, spread=0.5),
            characteristic=CharacteristicTimes(t_any=4.0, t_orth=2.8),
            margins=(bad,),
            numerical_slack={"zero": 0.0},
            provenance={"case": "synthetic"},
        )
        result = CampaignResult(
            kind="analytic-two-level", reports=(rep,),
            violations=({"provenance": rep.provenance, "margin": "general:zero",
                         "lhs": 2.0, "rhs": 1.0, "slack": 0.0},),
            summary={"kind": "analytic-two-level", "config_hash": "deadbeef0000",
                     "n_runs": 1, "n_violations": 1,
                     "trigger_rates": {"orthogonal": None, "antipodal": None},
                     "margin_quantiles": {}, "violations": []},
        )
        rc = _finish_campaign(result, tmp_path, verbose=False)
        assert rc == 1
        # outputs land before the nonzero exit
        assert (tmp_path / "report-0000.json").exists()
        assert (tmp_path / "summary.json").exists()
        out = capsys.readouterr().out
        assert "violating reports" in out
        assert "report-0000.json" in out

    def test_forced_violations_reach_summary_and_report(self, tmp_path, capsys, monkeypatch):
        check = campaigns.check_inequalities
        monkeypatch.setattr(campaigns, "check_inequalities",
                            lambda *args, **kwargs: with_forced_violation(check(*args, **kwargs)))
        assert main(["verify", "--out", str(tmp_path), *FAST]) == 1
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["n_violations"] == 4
        assert [v["margin"] for v in summary["violations"]] == ["forced"] * 4
        assert all(v["lhs"] == 2.0 and v["rhs"] == 1.0 for v in summary["violations"])
        capsys.readouterr()
        assert main(["report", str(tmp_path)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert len([line for line in lines if line.startswith("violation: ")]) == 4


class TestOutputDirResolution:
    def test_env_var_supplies_base(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("QSPEEDLIM_OUT", str(tmp_path))
        monkeypatch.chdir(tmp_path)
        rc = main(["verify", *FAST])
        assert rc == 0
        assert (tmp_path / "verify" / "summary.json").exists()

    def test_explicit_out_wins_over_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QSPEEDLIM_OUT", str(tmp_path / "env"))
        rc = main(["verify", "--out", str(tmp_path / "given"), *FAST])
        assert rc == 0
        assert (tmp_path / "given" / "summary.json").exists()
        assert not (tmp_path / "env").exists()


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "qspeedlim.cli", "verify",
             "--out", str(tmp_path), "--steps", "400"],
            capture_output=True, text=True, env=src_env())
        assert proc.returncode == 0
        assert "hbar" in proc.stdout
        assert (tmp_path / "summary.json").exists()

    def test_cli_import_loads_no_scipy(self):
        code = ("import sys, qspeedlim.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=src_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
