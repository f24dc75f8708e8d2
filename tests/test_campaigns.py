import itertools
import json
import math
from dataclasses import asdict
from functools import partial

import numpy as np
import pytest

from qspeedlim.algebra import HermitianOperator, StateVector, random_state
from qspeedlim.bounds import CharacteristicTimes
from qspeedlim.campaigns import (
    Campaign,
    _fallback_horizon,
    _half_time,
    load_campaign,
    run_analytic_suite,
    run_campaign,
    run_entanglement_compare,
    run_gue_ensemble,
    run_qac,
    write_campaign_result,
)
from qspeedlim.hamiltonians import (
    IsingInstance,
    noninteracting_pair,
    random_hermitian,
)
from qspeedlim.propagate import IntegratorConfig, evolve
from qspeedlim.schedules import Schedule

FAST = IntegratorConfig(steps=400)


@pytest.fixture(scope="module")
def analytic_result():
    return run_analytic_suite()


@pytest.fixture(scope="module")
def entangle_result():
    return run_entanglement_compare(subsystem_dim=2, seeds=[0, 1, 2],
                                    integrator=FAST)


class TestAnalyticSuite:
    @pytest.fixture
    def result(self, analytic_result):
        return analytic_result

    def test_every_inequality_holds(self, result):
        assert result.passed
        assert len(result.reports) == 4
        assert result.summary["n_runs"] == 4
        assert result.summary["n_violations"] == 0

    def test_trigger_rates(self, result):
        # the gap cases reach orthogonality, only the symmetric gap reaches
        # the antipode, and the frozen/eigenstate cases reach neither
        assert result.summary["trigger_rates"]["orthogonal"] == pytest.approx(0.5)
        assert result.summary["trigger_rates"]["antipodal"] == pytest.approx(0.25)

    def test_orthogonal_case_margin(self, result):
        rep = _by_case(result, "orthogonal-two-level")
        margin = {m.name: m for m in rep.margins}["orthogonal_time"]
        assert margin.lhs == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)
        assert margin.rhs == pytest.approx(math.pi, abs=1e-6)
        assert rep.measured_orth_time == pytest.approx(math.pi, abs=1e-6)

    def test_antipodal_case_margin(self, result):
        rep = _by_case(result, "antipodal-two-level")
        margin = {m.name: m for m in rep.margins}["antipodal_time"]
        assert margin.lhs == pytest.approx(4.0, abs=1e-12)
        assert margin.rhs == pytest.approx(2.0 * math.pi, abs=1e-6)

    def test_eigenstate_never_moves(self, result):
        rep = _by_case(result, "eigenstate")
        assert not rep.events["orthogonal"].triggered
        assert rep.events["orthogonal"].functional_value == pytest.approx(1.0, abs=1e-9)

    def test_reports_sorted_by_provenance(self, result):
        keys = [json.dumps(r.provenance, sort_keys=True) for r in result.reports]
        assert keys == sorted(keys)

    def test_quantiles_cover_all_margin_names(self, result):
        names = set()
        for rep in result.reports:
            names.update(m.name for m in rep.margins if np.isfinite(m.margin))
        assert set(result.summary["margin_quantiles"]) == names
        for stats in result.summary["margin_quantiles"].values():
            assert stats["min"] <= stats["median"] <= stats["max"]


def _by_case(result, case):
    for rep in result.reports:
        if rep.provenance.get("case") == case:
            return rep
    raise AssertionError(f"no report for case {case}")


class TestGueEnsemble:
    def test_all_satisfied(self):
        result = run_gue_ensemble(dim=3, seeds=[0, 1, 2], integrator=FAST)
        assert result.passed
        assert result.summary["n_runs"] == 3
        for rep in result.reports:
            assert rep.context == "time-independent"
            assert rep.moments.spread > 0

    def test_deterministic_artifacts(self, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        for out in (a_dir, b_dir):
            result = run_gue_ensemble(dim=2, seeds=[0, 1], integrator=FAST)
            write_campaign_result(result, out)
        a_files = sorted(p.name for p in a_dir.iterdir())
        assert a_files == sorted(p.name for p in b_dir.iterdir())
        assert "summary.csv" in a_files and "summary.json" in a_files
        for name in a_files:
            assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()

    def test_shift_ground_changes_energy_not_spread(self):
        plain = run_gue_ensemble(dim=2, seeds=[3], integrator=FAST)
        shifted = run_gue_ensemble(dim=2, seeds=[3], shift_ground=True,
                                   integrator=FAST)
        assert shifted.summary["config_hash"] != plain.summary["config_hash"]
        m0, m1 = plain.reports[0].moments, shifted.reports[0].moments
        assert m1.spread == pytest.approx(m0.spread, abs=1e-10)
        assert m1.energy != pytest.approx(m0.energy, abs=1e-3)

    def test_empty_seed_list_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            run_gue_ensemble(dim=2, seeds=[])

    def test_bad_horizon_mult_rejected(self):
        with pytest.raises(ValueError, match="horizon_mult"):
            run_gue_ensemble(dim=2, seeds=[0], horizon_mult=0.0)


class TestHorizonFallback:
    def test_prefers_orthogonality_time(self):
        char = CharacteristicTimes(t_any=1.0, t_orth=3.0)
        assert _fallback_horizon(char, 4.0, 1.0) == pytest.approx(12.0)

    def test_falls_back_to_any_time(self):
        char = CharacteristicTimes(t_any=2.0, t_orth=math.inf)
        assert _fallback_horizon(char, 4.0, 1.0) == pytest.approx(8.0)

    def test_unit_horizon_when_both_unreachable(self):
        char = CharacteristicTimes(t_any=math.inf, t_orth=math.inf)
        # one hbar, so the run covers the same s = t/hbar interval at any hbar
        assert _fallback_horizon(char, 4.0, 1.0) == 1.0
        assert _fallback_horizon(char, 4.0, 1e-300) == 1e-300


def brute_force_moments(instance, psi):
    """Diagonal Ising moments by explicit configuration enumeration."""
    energies = []
    for bits in itertools.product((0, 1), repeat=instance.n):
        spins = [1 - 2 * b for b in bits]
        e = sum(J * spins[i] * spins[j] for i, j, J in instance.couplings)
        e += sum(h * spins[i] for i, h in instance.fields)
        energies.append(e)
    w = np.abs(psi) ** 2
    mean = float(np.dot(w, energies))
    var = float(np.dot(w, (np.array(energies) - mean) ** 2))
    return mean, math.sqrt(var)


class TestQacCampaign:
    def test_single_qubit_projector_characteristic_times(self):
        # field -1/2 shifted to diag(0, 1): both schedule-weighted
        # characteristic times collapse to 4 sqrt(2)
        instance = IsingInstance(n=1, couplings=(), fields=((0, -0.5),))
        result = run_qac(instance, T_values=(2.0,), shift_problem_ground=True,
                         integrator=FAST)
        assert result.passed
        char = result.reports[0].characteristic
        assert char.t_any == pytest.approx(4.0 * math.sqrt(2.0), abs=1e-12)
        assert char.t_orth == pytest.approx(4.0 * math.sqrt(2.0), abs=1e-12)

    def test_chain_moments_match_enumeration(self):
        instance = IsingInstance(n=3, couplings=((0, 1, -1.0), (1, 2, -1.0)),
                                 fields=((0, 0.25), (2, -0.5)))
        result = run_qac(instance, T_values=(1.0,), integrator=FAST)
        psi = np.full(8, 1.0 / math.sqrt(8.0))
        mean, spread = brute_force_moments(instance, psi)
        m = result.reports[0].moments
        assert m.energy == pytest.approx(mean, abs=1e-10)
        assert m.spread == pytest.approx(spread, abs=1e-10)

    def test_initial_term_must_annihilate_uniform_state(self):
        instance = IsingInstance(n=1, couplings=(), fields=((0, 1.0),))
        bad = HermitianOperator(np.diag([1.0, 2.0]).astype(complex))
        with pytest.raises(ValueError, match="annihilate"):
            run_qac(instance, initial_term=bad, integrator=FAST)

    def test_initial_term_dimension_checked(self):
        instance = IsingInstance(n=1, couplings=(), fields=((0, 1.0),))
        wrong = HermitianOperator(np.zeros((4, 4), dtype=complex))
        with pytest.raises(ValueError, match="dimension"):
            run_qac(instance, initial_term=wrong, integrator=FAST)

    def test_empty_interpolation_times_rejected(self):
        instance = IsingInstance(n=1, couplings=(), fields=((0, 1.0),))
        with pytest.raises(ValueError, match="nonempty"):
            run_qac(instance, T_values=())

    def test_slow_interpolation_reaches_problem_ground(self):
        # deep adiabatic regime: the final state should sit almost entirely
        # in the problem ground space (diagnostic only, but pinned here on a
        # case where the physics is unambiguous)
        instance = IsingInstance(n=1, couplings=(), fields=((0, -0.5),))
        result = run_qac(instance, T_values=(200.0,), shift_problem_ground=True)
        diag = result.summary["qac_diagnostics"][0]
        assert diag["T"] == 200.0
        assert diag["problem_ground_population"] > 0.9

    def test_ground_space_of_a_small_energy_scale(self):
        # J = -1e-10 splits the two aligned states from the two anti-aligned
        # ones by 4e-10; the walk barely moves the uniform state, so half of
        # it lies in the ground space, not all of it
        instance = IsingInstance(n=2, couplings=((0, 1, -1e-10),))
        diag = run_qac(instance, T_values=(4.0,)).summary["qac_diagnostics"][0]
        assert diag["final_survival"] == pytest.approx(1.0, abs=1e-9)
        assert diag["problem_ground_population"] == pytest.approx(0.5, abs=1e-9)

    def test_all_zero_problem_is_ground_throughout(self):
        instance = IsingInstance(n=2)
        diag = run_qac(instance, T_values=(4.0,), integrator=FAST).summary["qac_diagnostics"][0]
        assert diag["problem_ground_population"] == pytest.approx(1.0, abs=1e-12)

    def test_linear_schedule_integral_recorded(self):
        instance = IsingInstance(n=1, couplings=(), fields=((0, 1.0),))
        result = run_qac(instance, T_values=(1.0,), integrator=FAST)
        assert result.summary["g_integral"] == pytest.approx(0.5, abs=1e-12)

    def test_pure_phase_winding_triggers_both_events(self):
        # zero initial term keeps H(t) diagonal: overlap cos(h G(t)) with
        # G(t) = t^2 / (2 T), so both event times are known exactly
        instance = IsingInstance(n=1, couplings=(), fields=((0, 2.0),))
        zero_term = HermitianOperator(np.zeros((2, 2), dtype=complex))
        result = run_qac(instance, T_values=(4.0,), initial_term=zero_term,
                         integrator=IntegratorConfig(steps=2000))
        assert result.passed
        rep = result.reports[0]
        assert rep.events["orthogonal"].triggered
        assert rep.events["antipodal"].triggered
        assert rep.measured_orth_time == pytest.approx(math.sqrt(2.0 * math.pi),
                                                       abs=1e-6)
        assert rep.measured_antipodal_time == pytest.approx(math.sqrt(4.0 * math.pi),
                                                            abs=1e-6)
        margins = {m.name: m for m in rep.margins}
        assert margins["qac_orthogonal"].lhs == pytest.approx(math.sqrt(2.0))
        assert margins["qac_orthogonal"].rhs == pytest.approx(math.pi / 2.0, abs=1e-5)
        assert margins["qac_antipodal"].rhs == pytest.approx(math.pi, abs=1e-5)


class TestEntanglementCompare:
    @pytest.fixture
    def result(self, entangle_result):
        return entangle_result

    def test_all_satisfied(self, result):
        assert result.passed
        assert result.summary["n_runs"] == 9

    def test_correlated_state_matches_energy_and_doubles_variance(self, result):
        by_run = {(r.provenance["seed"], r.provenance["variant"]): r
                  for r in result.reports}
        for seed in (0, 1, 2):
            prod = by_run[(seed, "product")].moments
            corr = by_run[(seed, "correlated")].moments
            assert corr.energy == pytest.approx(prod.energy, abs=1e-10)
            # product spread is sqrt(2) Delta_1, correlated is 2 Delta_1
            assert corr.spread / prod.spread == pytest.approx(math.sqrt(2.0),
                                                              abs=1e-10)

    def test_variant_stats_shape(self, result):
        stats = result.summary["entanglement"]["variant_stats"]
        assert set(stats) == {"product", "correlated", "bell"}
        for entry in stats.values():
            assert entry["n_runs"] == 3
            assert entry["n_decayed"] <= entry["n_runs"]

    def test_records_sorted_and_complete(self, result):
        records = result.summary["entanglement"]["records"]
        assert len(records) == 9
        keys = [(r["seed"], r["variant"]) for r in records]
        assert keys == sorted(keys)

    def test_speedup_reported_not_asserted(self, result):
        # correlation may be any sign on a small sample; it just has to be
        # present (or None when nothing decayed)
        corr = result.summary["entanglement"]["spread_halftime_correlation"]
        assert corr is None or -1.0 <= corr <= 1.0


class TestHalfTime:
    def test_two_level_half_life(self):
        h = HermitianOperator(np.diag([0.0, 1.0]).astype(complex))
        plus = StateVector.normalized(np.array([1.0, 1.0]))
        traj = evolve(h, plus, 4.0)
        # survival cos^2(t/2) crosses 1/2 at pi/2
        assert _half_time(traj) == pytest.approx(math.pi / 2.0, abs=1e-5)

    def test_none_when_never_crossing(self):
        h = HermitianOperator(np.zeros((2, 2), dtype=complex))
        plus = StateVector.normalized(np.array([1.0, 1.0]))
        traj = evolve(h, plus, 1.0, cfg=FAST)
        assert _half_time(traj) is None


class TestNoninteractingFactorization:
    def test_idle_partner_leaves_survival_unchanged(self):
        h1 = random_hermitian(3, 5)
        idle = HermitianOperator(np.zeros((2, 2), dtype=complex))
        composite = noninteracting_pair(h1, idle)
        a = random_state(3, 11)
        b = random_state(2, 12)
        joint = StateVector.normalized(np.kron(a.amplitudes, b.amplitudes))
        cfg = IntegratorConfig(steps=500)
        traj_joint = evolve(composite, joint, 3.0, cfg=cfg)
        traj_sub = evolve(h1, a, 3.0, cfg=cfg)
        np.testing.assert_allclose(traj_joint.overlaps, traj_sub.overlaps,
                                   atol=1e-12)


class TestCampaignDispatch:
    def test_json_round_trip_runs(self, tmp_path):
        campaign_path = tmp_path / "campaign.json"
        campaign_path.write_text(json.dumps({
            "kind": "gue-ensemble",
            "parameters": {"dim": 2, "seed_range": [0, 3], "horizon_mult": 2.0},
            "integrator": {"steps": 300},
        }))
        campaign = load_campaign(campaign_path)
        result = run_campaign(campaign)
        assert result.kind == "gue-ensemble"
        assert result.summary["n_runs"] == 3
        assert result.passed

    def test_qac_campaign_from_dicts(self):
        campaign = Campaign.from_dict({
            "kind": "qac-ising",
            "parameters": {
                "instance": {"n": 1, "couplings": [], "fields": [[0, 1.0]]},
                "sched": {"kind": "linear"},
                "T_values": [1.0],
            },
            "integrator": {"steps": 300},
        })
        result = run_campaign(campaign)
        assert result.kind == "qac-ising"
        assert result.passed

    @pytest.mark.parametrize("cfg", [
        IntegratorConfig(),
        IntegratorConfig(method="rk4", dt=0.01, norm_tolerance=1e-7, hbar=0.5),
        IntegratorConfig(steps=7),
    ], ids=["default", "every-field-set", "steps"])
    def test_every_integrator_field_round_trips(self, cfg):
        # a campaign file can spell every setting of the integrator
        campaign = Campaign.from_dict({"kind": "gue-ensemble", "integrator": asdict(cfg)})
        assert campaign.integrator == cfg

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            Campaign(kind="frobnicate")

    def test_unknown_top_level_field_rejected(self):
        with pytest.raises(ValueError, match="unknown campaign fields"):
            Campaign.from_dict({"kind": "gue-ensemble", "bogus": 1})

    def test_unknown_parameter_rejected(self):
        campaign = Campaign(kind="gue-ensemble",
                            parameters={"dim": 2, "seed_range": [0, 2], "bogus": 7})
        with pytest.raises(ValueError, match="unknown parameters"):
            run_campaign(campaign)

    def test_seeds_and_range_conflict(self):
        campaign = Campaign(kind="gue-ensemble",
                            parameters={"dim": 2, "seeds": [0], "seed_range": [0, 2]})
        with pytest.raises(ValueError, match="not both"):
            run_campaign(campaign)

    def test_gue_requires_seeds(self):
        campaign = Campaign(kind="gue-ensemble", parameters={"dim": 2})
        with pytest.raises(ValueError, match="seed"):
            run_campaign(campaign)

    def test_malformed_json_located(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text('{"kind": "gue-ensemble",\n  "parameters": }\n')
        with pytest.raises(ValueError, match=r"broken\.json:2:\d+"):
            load_campaign(bad)


CHAIN3 = IsingInstance(n=3, couplings=[(0, 1, -1.0), (1, 2, -1.0)],
                       fields=[(0, 0.25), (2, -0.5)])


class TestCampaignIdentity:
    """config_hash digests the kind, the campaign's parameters and every
    IntegratorConfig field. The pinned hashes are those of `verify`,
    `ensemble --dim 2 --seeds 0..100`, the acceptance chain's
    `qac --T 1,4,16` and `entangle --seeds 0..3`: a change that moves one
    re-hashes every results directory of that kind, and has to say so."""

    @pytest.mark.parametrize("run, config_hash, fields", [
        (run_analytic_suite, "1bb853c8d72c", {"case"}),
        (lambda: run_gue_ensemble(2, range(100)), "73c398bdc726",
         {"dim", "seed", "shift_ground"}),
        (lambda: run_qac(CHAIN3, T_values=(1, 4, 16)), "828d6001a919",
         {"instance", "T", "shift_problem_ground"}),
        (lambda: run_entanglement_compare(seeds=range(3)), "2adb9f71cc6c",
         {"seed", "variant", "subsystem_dim"}),
    ], ids=["analytic", "gue", "qac", "entangle"])
    def test_golden_hash_and_member_provenance(self, run, config_hash, fields):
        result = run()
        assert result.summary["config_hash"] == config_hash
        for rep in result.reports:
            assert rep.provenance["campaign"] == result.kind
            assert rep.provenance["config_hash"] == config_hash
            assert set(rep.provenance) == {"campaign", "config_hash", *fields}

    @pytest.mark.parametrize("numpy_call, python_call", [
        (lambda: run_gue_ensemble(2, np.arange(3)), lambda: run_gue_ensemble(2, [0, 1, 2])),
        (lambda: run_entanglement_compare(seeds=np.arange(2)),
         lambda: run_entanglement_compare(seeds=[0, 1])),
        (lambda: run_gue_ensemble(2, [0, 1], shift_ground=np.bool_(True)),
         lambda: run_gue_ensemble(2, [0, 1], shift_ground=True)),
        (lambda: run_qac(IsingInstance(n=np.int64(2))), lambda: run_qac(IsingInstance(n=2))),
    ], ids=["gue-seeds", "entangle-seeds", "gue-shift-ground", "qac-instance-n"])
    def test_numpy_inputs_write_the_python_values_bytes(self, tmp_path, numpy_call, python_call):
        write_campaign_result(numpy_call(), tmp_path / "numpy")
        write_campaign_result(python_call(), tmp_path / "python")
        names = sorted(path.name for path in (tmp_path / "python").iterdir())
        assert sorted(path.name for path in (tmp_path / "numpy").iterdir()) == names
        for name in names:
            assert ((tmp_path / "numpy" / name).read_bytes()
                    == (tmp_path / "python" / name).read_bytes()), name

    @pytest.mark.parametrize("runner", [partial(run_gue_ensemble, 2), run_entanglement_compare],
                             ids=["gue", "entangle"])
    def test_horizon_mult_named_before_empty_seeds(self, runner):
        with pytest.raises(ValueError, match="horizon_mult"):
            runner(seeds=[], horizon_mult=0.0)


class TestWriteCampaignResult:
    def test_layout_and_csv_header(self, tmp_path):
        result = run_analytic_suite(integrator=FAST)
        paths = write_campaign_result(result, tmp_path / "out")
        assert paths["summary_json"].exists()
        assert paths["summary_csv"].exists()
        assert len(paths["reports"]) == 4
        assert paths["reports"][0].name == "report-0000.json"
        header = paths["summary_csv"].read_text().splitlines()[0]
        assert header.split(",") == [
            "index", "provenance", "context", "all_satisfied", "n_margins",
            "min_finite_margin", "orth_triggered", "orth_time",
            "anti_triggered", "anti_time", "t_any", "t_orth",
            "energy", "spread",
        ]

    def test_summary_json_round_trips(self, tmp_path):
        result = run_gue_ensemble(dim=2, seeds=[0], integrator=FAST)
        paths = write_campaign_result(result, tmp_path)
        loaded = json.loads(paths["summary_json"].read_text())
        assert loaded["kind"] == "gue-ensemble"
        assert loaded["n_runs"] == 1
        assert loaded["config_hash"] == result.summary["config_hash"]

    def test_smaller_rerun_deletes_stale_reports(self, tmp_path):
        write_campaign_result(run_gue_ensemble(dim=2, seeds=range(6), integrator=FAST), tmp_path)
        (tmp_path / "report-notes.json").write_text("{}")  # not a numbered report: kept
        paths = write_campaign_result(run_gue_ensemble(dim=2, seeds=range(2), integrator=FAST),
                                      tmp_path)
        reports = sorted(path.name for path in tmp_path.glob("report-*.json"))
        assert reports == ["report-0000.json", "report-0001.json", "report-notes.json"]
        assert [path.name for path in paths["reports"]] == reports[:2]
