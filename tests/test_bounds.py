import dataclasses
import itertools
import json
import math

import numpy as np
import pytest

from qspeedlim.algebra import HermitianOperator, StateVector, random_state
from qspeedlim.bounds import (
    BoundReport,
    CharacteristicTimes,
    Margin,
    MomentPair,
    char_times_qac,
    char_times_ti,
    check_inequalities,
    exp_decay_diagnostic,
    state_moments,
    survival_lower_bound_qac,
    survival_lower_bound_ti,
    write_report_json,
)
from qspeedlim.campaigns import run_time_independent
from qspeedlim.events import first_antipodal, first_orthogonal
from qspeedlim.hamiltonians import (
    InterpolatedHamiltonian,
    IsingInstance,
    ising_problem,
    random_hermitian,
    transverse_initial,
)
from qspeedlim.propagate import BetaPolicy, IntegratorConfig, evolve
from qspeedlim.schedules import Schedule

PLUS = StateVector.normalized(np.array([1.0, 1.0]))


def phase_winding_annealer(h=2.0, T=4.0, schedule=None):
    """Zero initial term, so H(t) = g(t/T) diag(h, -h): exactly solvable with
    overlap cos(h G(t)), G(t) = t^2/(2T) for the linear schedule. Both events
    trigger at closed-form times inside the window."""
    zero = HermitianOperator(np.zeros((2, 2), dtype=complex))
    problem = ising_problem(IsingInstance(n=1, fields=((0, h),)))
    return InterpolatedHamiltonian(initial=zero, problem=problem,
                                   schedule=schedule or Schedule.linear(), total_time=T)


class TestMomentPair:
    def test_spread_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            MomentPair(energy=1.0, spread=-0.1)

    def test_nan_spread_rejected(self):
        with pytest.raises(ValueError):
            MomentPair(energy=1.0, spread=math.nan)

    def test_state_moments_two_level(self):
        H = HermitianOperator(np.diag([0.0, 1.0]).astype(complex))
        m = state_moments(H, PLUS)
        assert m.energy == pytest.approx(0.5, abs=1e-14)
        assert m.spread == pytest.approx(0.5, abs=1e-14)

    def test_chain_moments_match_enumeration_oracle(self):
        # ferromagnetic 3-chain J = -1: enumerate all 8 spin configurations
        inst = IsingInstance(n=3, couplings=((0, 1, -1.0), (1, 2, -1.0)))
        H = ising_problem(inst)
        m = state_moments(H, StateVector.uniform(8))
        energies = []
        for bits in itertools.product((0, 1), repeat=3):
            s = [1 - 2 * b for b in bits]
            energies.append(-(s[0] * s[1] + s[1] * s[2]))
        mean = np.mean(energies)
        spread = math.sqrt(np.mean(np.square(energies)) - mean**2)
        assert m.energy == pytest.approx(mean, abs=1e-10)
        assert m.spread == pytest.approx(spread, abs=1e-10)


class TestCharacteristicTimes:
    def test_symmetric_two_level(self):
        t = char_times_ti(MomentPair(energy=0.0, spread=0.5), hbar=1.0)
        assert t.t_any == pytest.approx(4.0, abs=1e-14)
        assert t.t_orth == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-14)

    def test_eigenstate_orthogonality_unreachable(self):
        t = char_times_ti(MomentPair(energy=0.7, spread=0.0), hbar=1.0)
        assert math.isinf(t.t_orth)
        assert t.t_any == pytest.approx(2.0 / 0.7, abs=1e-14)

    def test_null_hamiltonian_both_unbounded(self):
        t = char_times_ti(MomentPair(energy=0.0, spread=0.0), hbar=1.0)
        assert math.isinf(t.t_any) and math.isinf(t.t_orth)

    def test_hbar_scaling(self):
        a = char_times_ti(MomentPair(0.3, 0.4), hbar=1.0)
        b = char_times_ti(MomentPair(0.3, 0.4), hbar=2.0)
        assert b.t_any == pytest.approx(2.0 * a.t_any)
        assert b.t_orth == pytest.approx(2.0 * a.t_orth)

    def test_single_qubit_annealing_times(self):
        # projector problem on the uniform state: mean 1/2, spread 1/2,
        # linear-schedule integral 1/2; both times work out to 4 sqrt(2)
        t = char_times_qac(MomentPair(energy=0.5, spread=0.5), g_integral=0.5, hbar=1.0)
        assert t.t_any == pytest.approx(4.0 * math.sqrt(2.0), abs=1e-12)
        assert t.t_orth == pytest.approx(4.0 * math.sqrt(2.0), abs=1e-12)

    def test_doubling_schedule_integral_halves_times(self):
        m = MomentPair(energy=0.5, spread=0.5)
        a = char_times_qac(m, g_integral=0.5, hbar=1.0)
        b = char_times_qac(m, g_integral=1.0, hbar=1.0)
        assert b.t_any == pytest.approx(a.t_any / 2.0)
        assert b.t_orth == pytest.approx(a.t_orth / 2.0)

    def test_zero_spread_annealing(self):
        t = char_times_qac(MomentPair(energy=0.5, spread=0.0), g_integral=0.5, hbar=1.0)
        assert math.isinf(t.t_orth)

    def test_nonpositive_schedule_integral_rejected(self):
        with pytest.raises(ValueError):
            char_times_qac(MomentPair(0.5, 0.5), g_integral=0.0, hbar=1.0)

    def test_overflowing_time_rejected_naming_hbar(self):
        # both denominators are positive, so neither time is unreachable: 2 hbar / 0.5
        # overflows, and inf would pass for "never"
        with pytest.raises(ValueError, match="hbar"):
            char_times_qac(MomentPair(energy=0.0, spread=0.5), g_integral=1.0, hbar=1e308)
        t = char_times_qac(MomentPair(energy=0.0, spread=0.5), g_integral=1.0, hbar=1e300)
        assert t.t_any == pytest.approx(4e300)
        assert t.t_orth == pytest.approx(2.0 * math.sqrt(2.0) * 1e300)


class TestSurvivalBounds:
    def test_start_value(self):
        b = survival_lower_bound_ti(0.0, spread=0.5, hbar=1.0)
        assert b.value == 1.0 and not b.vacuous

    def test_spot_value(self):
        b = survival_lower_bound_ti(1.0, spread=0.5, hbar=1.0)
        assert b.value == pytest.approx(0.765625, abs=1e-15)
        assert not b.vacuous

    def test_touches_zero_at_orthogonality_time(self):
        # spread * t = sqrt(2) hbar makes the parenthesis exactly zero
        b = survival_lower_bound_ti(math.sqrt(2.0) / 0.5, spread=0.5, hbar=1.0)
        assert b.value == pytest.approx(0.0, abs=1e-14)
        assert not b.vacuous

    def test_vacuous_beyond_window(self):
        b = survival_lower_bound_ti(10.0, spread=0.5, hbar=1.0)
        assert b.value == 0.0 and b.vacuous
        # one array call matches the scalar calls elementwise
        times = np.array([0.0, 1.0, math.sqrt(2.0) / 0.5, 10.0])
        arr = survival_lower_bound_ti(times, spread=0.5, hbar=1.0)
        for k, t in enumerate(times):
            one = survival_lower_bound_ti(float(t), spread=0.5, hbar=1.0)
            assert arr.value[k] == pytest.approx(one.value, rel=1e-15, abs=1e-300)
            assert arr.vacuous[k] == one.vacuous
        assert list(arr.vacuous) == [False, False, False, True]

    def test_scalar_and_array_calls_agree_bitwise(self):
        # at the first two (grid times of the two-level demo) a scalar square
        # through pow() was one ulp off the array's correctly rounded square
        times = [551 * 0.002, 1388 * 0.002, 0.5, 2.0]
        arr = survival_lower_bound_ti(np.array(times), spread=0.5, hbar=1.0)
        for k, t in enumerate(times):
            one = survival_lower_bound_ti(t, spread=0.5, hbar=1.0)
            y = 1.0 - (0.5 * t) * (0.5 * t) / 2.0
            assert one.value == arr.value[k] == y * y

    @pytest.mark.parametrize("hbar", [1e-300, 1e300])
    def test_depends_on_time_over_hbar_only(self, hbar):
        # hbar**2 underflows or overflows at these; the bound must not
        scaled = np.array([0.0, 1.0, math.sqrt(2.0) / 0.5, 3.0, 10.0])
        want = survival_lower_bound_ti(scaled, spread=0.5, hbar=1.0)
        got = survival_lower_bound_ti(scaled * hbar, spread=0.5, hbar=hbar)
        np.testing.assert_allclose(got.value, want.value, rtol=0.0, atol=1e-15)
        assert list(got.vacuous) == list(want.vacuous)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            survival_lower_bound_ti(-1.0, spread=0.5, hbar=1.0)

    def test_spot_value_below_measured_survival(self):
        # the two-level survival at t = 1 is cos^2(1/2), comfortably above
        assert math.cos(0.5) ** 2 >= 0.765625

    def test_annealing_start(self):
        b = survival_lower_bound_qac(0.0, spread_P=0.5, sched=Schedule.linear(),
                                     T=4.0, hbar=1.0)
        assert b.value == 1.0

    def test_linear_schedule_end_equals_half_time_fixed_bound(self):
        got = survival_lower_bound_qac(4.0, spread_P=0.5, sched=Schedule.linear(),
                                       T=4.0, hbar=1.0)
        want = survival_lower_bound_ti(2.0, spread=0.5, hbar=1.0)
        assert got.value == pytest.approx(want.value, abs=1e-12)

    def test_single_qubit_end_bound_holds_in_simulation(self):
        b = survival_lower_bound_qac(4.0, spread_P=0.5, sched=Schedule.linear(),
                                     T=4.0, hbar=1.0)
        assert b.value == pytest.approx(0.25, abs=1e-12)
        ih = InterpolatedHamiltonian(
            initial=transverse_initial(1),
            problem=HermitianOperator(np.diag([0.0, 1.0]).astype(complex)),
            schedule=Schedule.linear(), total_time=4.0)
        traj = evolve(ih, StateVector.uniform(2), horizon=4.0)
        assert traj.survival[-1] >= b.value

    def test_time_beyond_window_rejected(self):
        with pytest.raises(ValueError):
            survival_lower_bound_qac(5.0, spread_P=0.5, sched=Schedule.linear(),
                                     T=4.0, hbar=1.0)

    @pytest.mark.parametrize("sched", [Schedule.linear(), Schedule.polynomial(0.5)],
                             ids=["linear", "poly0.5"])
    def test_annealing_array_matches_points(self, sched):
        t = np.linspace(0.0, 4.0, 41)
        got = survival_lower_bound_qac(t, spread_P=1.5, sched=sched, T=4.0, hbar=1.0)
        want = [survival_lower_bound_qac(x, spread_P=1.5, sched=sched, T=4.0, hbar=1.0)
                for x in t]
        np.testing.assert_allclose(got.value, [b.value for b in want], rtol=1e-14, atol=0.0)
        assert list(got.vacuous) == [b.vacuous for b in want]
        assert got.vacuous.any() and not got.vacuous.all()


class TestExpDecayDiagnostic:
    def test_start(self):
        value, ok = exp_decay_diagnostic(0.0, spread=1.0, energy=0.5, hbar=1.0)
        assert value == 1.0 and ok

    def test_regime_flag_flips_at_boundary(self):
        spread, energy = 1.0, 0.5
        edge = 0.1 / math.sqrt(spread**2 + energy**2)
        assert exp_decay_diagnostic(edge * 0.999, spread, energy, 1.0).regime_ok
        assert not exp_decay_diagnostic(edge * 1.001, spread, energy, 1.0).regime_ok
        arr = exp_decay_diagnostic(np.array([edge * 0.999, edge * 1.001]), spread, energy, 1.0)
        assert list(arr.regime_ok) == [True, False]

    @pytest.mark.parametrize("hbar", [1e-300, 1e300])
    def test_depends_on_time_over_hbar_only(self, hbar):
        scaled = np.array([0.0, 0.05, 1.0, 3.0])
        want = exp_decay_diagnostic(scaled, 1.0, 0.5, 1.0)
        got = exp_decay_diagnostic(scaled * hbar, 1.0, 0.5, hbar)
        np.testing.assert_allclose(got.value, want.value, rtol=0.0, atol=1e-15)
        assert list(got.regime_ok) == list(want.regime_ok)

    def test_bound_below_diagnostic_in_regime(self):
        value, ok = exp_decay_diagnostic(0.05, spread=1.0, energy=0.0, hbar=1.0)
        assert ok
        assert value == pytest.approx(math.exp(-0.0025), abs=1e-12)
        hard = survival_lower_bound_ti(0.05, spread=1.0, hbar=1.0)
        assert hard.value <= value


class TestCheckInequalitiesTimeIndependent:
    def setup_method(self):
        self.H = HermitianOperator(np.diag([0.0, 1.0]).astype(complex))
        self.traj = evolve(self.H, PLUS, horizon=4.0,
                           betas=[BetaPolicy.zero(), BetaPolicy.constant(0.5)])
        self.moments = state_moments(self.H, PLUS)
        self.events = {
            "orthogonal": first_orthogonal(self.traj),
            "antipodal": first_antipodal(self.traj),
        }

    def test_report_structure(self):
        rep = check_inequalities(self.traj, self.moments, events=self.events)
        names = {m.name for m in rep.margins}
        assert names == {"general:zero", "general:const0.5", "survival",
                         "orthogonal_time", "antipodal_time"}
        assert all(m.satisfied for m in rep.margins)
        assert rep.context == "time-independent"

    def test_orthogonality_margin_value(self):
        rep = check_inequalities(self.traj, self.moments, events=self.events)
        m = {m.name: m for m in rep.margins}["orthogonal_time"]
        assert m.lhs == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)
        assert m.rhs == pytest.approx(math.pi, abs=1e-6)
        assert m.margin == pytest.approx(math.pi - 2.0 * math.sqrt(2.0), abs=1e-6)

    def test_untriggered_event_recorded_as_consistent(self):
        rep = check_inequalities(self.traj, self.moments, events=self.events)
        m = {m.name: m for m in rep.margins}["antipodal_time"]
        assert m.satisfied
        assert "not triggered" in m.note
        assert math.isinf(m.rhs)

    def test_measured_times_recorded(self):
        rep = check_inequalities(self.traj, self.moments, events=self.events)
        assert rep.measured_orth_time == pytest.approx(math.pi, abs=1e-6)
        assert rep.measured_antipodal_time is None

    def test_antipodal_case_margin(self):
        H = HermitianOperator(np.diag([-0.5, 0.5]).astype(complex))
        traj = evolve(H, PLUS, horizon=8.0, betas=[BetaPolicy.zero()])
        events = {"antipodal": first_antipodal(traj)}
        rep = check_inequalities(traj, state_moments(H, PLUS),
                                 events=events)
        m = {m.name: m for m in rep.margins}["antipodal_time"]
        assert m.lhs == pytest.approx(4.0, abs=1e-12)
        assert m.rhs == pytest.approx(2.0 * math.pi, abs=1e-6)
        assert m.margin == pytest.approx(2.0 * math.pi - 4.0, abs=1e-6)
        assert m.satisfied

    def test_random_runs_all_satisfied(self):
        for seed in range(8):
            H = random_hermitian(4, seed)
            psi0 = random_state(4, seed=seed + 1000)
            m = state_moments(H, psi0)
            traj = evolve(H, psi0, horizon=3.0,
                          betas=[BetaPolicy.zero(), BetaPolicy.constant(m.energy)],
                          cfg=IntegratorConfig(steps=600))
            rep = check_inequalities(traj, m)
            assert all(mg.satisfied for mg in rep.margins), f"seed {seed}"

    def test_context_follows_the_hamiltonian(self):
        # self.H as a fixed operator and as the problem term of an anneal from
        # the transverse field: the trajectory's Hamiltonian selects the forms
        ih = InterpolatedHamiltonian(initial=transverse_initial(1), problem=self.H,
                                     schedule=Schedule.linear(), total_time=4.0)
        annealed = evolve(ih, PLUS, horizon=4.0,
                          betas=[BetaPolicy.zero(), BetaPolicy.constant(0.5)])
        for traj, context, event_margins, g_integral in (
                (self.traj, "time-independent", {"orthogonal_time", "antipodal_time"}, 1.0),
                (annealed, "qac", {"qac_orthogonal", "qac_antipodal"}, 0.5)):
            events = {"orthogonal": first_orthogonal(traj), "antipodal": first_antipodal(traj)}
            rep = check_inequalities(traj, self.moments, events=events)
            assert rep.context == context
            assert event_margins <= {m.name for m in rep.margins}
            assert rep.characteristic == char_times_qac(self.moments, g_integral, 1.0)
            assert rep.all_satisfied

    @pytest.mark.parametrize("scale, flagged", [(1.0, 0), (1.0 + 1e-4, 152)])
    def test_closed_form_slack_flags_scaled_distances(self, scale, flagged):
        # the orthogonal and antipodal analytic cases and the default GUE
        # suites, dim 2 x 100 and dim 8 x 50: a closed form's slack is the
        # float floor, so every distance scaled by 1 + 1e-4 breaks the master
        # inequality in every member, and the unscaled run breaks it in none
        members = [(HermitianOperator(np.diag(w).astype(complex)), PLUS, horizon)
                   for w, horizon in (([0.0, 1.0], 4.0), ([-0.5, 0.5], 8.0))]
        members += [(random_hermitian(dim, seed), random_state(dim, [seed, 17]), None)
                    for dim, count in ((2, 100), (8, 50)) for seed in range(count)]
        hits = 0
        for H, psi0, horizon in members:
            report, traj = run_time_independent(H, psi0, IntegratorConfig(), {}, horizon=horizon,
                                                events=False)
            assert traj.spectrum is not None
            scaled = dataclasses.replace(traj, distances={
                label: scale * d for label, d in traj.distances.items()})
            margins = check_inequalities(scaled, report.moments).margins
            hits += any(not m.satisfied for m in margins if m.name.startswith("general:"))
        assert hits == flagged


class TestCheckInequalitiesAnnealing:
    def setup_method(self):
        self.ih = phase_winding_annealer(h=2.0, T=4.0)
        self.psi0 = StateVector.uniform(2)
        self.traj = evolve(self.ih, self.psi0, horizon=4.0,
                           betas=[BetaPolicy.zero()])
        self.moments = state_moments(self.ih.problem, self.psi0)
        self.events = {
            "orthogonal": first_orthogonal(self.traj),
            "antipodal": first_antipodal(self.traj),
        }

    def test_closed_form_event_times(self):
        assert self.events["orthogonal"].triggered
        assert self.events["orthogonal"].time == pytest.approx(
            math.sqrt(2.0 * math.pi), abs=1e-6)
        assert self.events["antipodal"].triggered
        assert self.events["antipodal"].time == pytest.approx(
            math.sqrt(4.0 * math.pi), abs=1e-6)

    def test_annealing_event_margins(self):
        rep = check_inequalities(self.traj, self.moments, events=self.events)
        by_name = {m.name: m for m in rep.margins}
        orth = by_name["qac_orthogonal"]
        assert orth.lhs == pytest.approx(math.sqrt(2.0), abs=1e-12)
        assert orth.rhs == pytest.approx(math.pi / 2.0, abs=1e-5)
        assert orth.satisfied
        anti = by_name["qac_antipodal"]
        assert anti.lhs == pytest.approx(2.0, abs=1e-12)
        assert anti.rhs == pytest.approx(math.pi, abs=1e-5)
        assert anti.satisfied

    def test_survival_margin_holds(self):
        rep = check_inequalities(self.traj, self.moments, events=self.events)
        m = {m.name: m for m in rep.margins}["survival"]
        assert m.satisfied

    def test_survival_margin_is_the_exact_floor(self):
        # under a concave g a trapezoid of g on the step grid undercounts
        # G(t), which would put the floor above the paper's
        ih = phase_winding_annealer(schedule=Schedule.polynomial(0.5))
        traj = evolve(ih, self.psi0, horizon=4.0, betas=[BetaPolicy.zero()])
        margin = {m.name: m for m in check_inequalities(traj, self.moments).margins}["survival"]
        bound = survival_lower_bound_qac(traj.times, self.moments.spread, ih.schedule,
                                         ih.total_time, traj.hbar)
        k = int(np.argmax(bound.value - traj.survival))
        assert (margin.lhs, margin.rhs) == (bound.value[k], traj.survival[k])
        assert margin.satisfied

    def test_characteristic_times_reported(self):
        rep = check_inequalities(self.traj, self.moments, events=self.events)
        # spread 2, schedule integral 1/2: orthogonality time sqrt(2)
        assert rep.characteristic.t_orth == pytest.approx(math.sqrt(2.0), abs=1e-12)
        assert rep.characteristic.t_any == pytest.approx(2.0, abs=1e-12)

    def test_initial_term_must_annihilate_start_state(self):
        # the qac forms need H(t) phi0 = g H_P phi0; a GUE initial term once
        # got a report with a false survival violation instead of an error
        problem = ising_problem(IsingInstance(n=3, couplings=((0, 1, -1.0), (1, 2, -1.0)),
                                              fields=((0, 0.25), (2, -0.5))))
        ih = InterpolatedHamiltonian(random_hermitian(8, 3), problem, Schedule.linear(), 4.0)
        psi0 = StateVector.uniform(8)
        traj = evolve(ih, psi0, horizon=4.0, betas=[BetaPolicy.zero()],
                      cfg=IntegratorConfig(steps=400))
        with pytest.raises(ValueError, match="annihilate"):
            check_inequalities(traj, state_moments(problem, psi0))


class TestReportExport:
    def test_json_round_trip_with_infinities(self, tmp_path):
        H = HermitianOperator(np.zeros((2, 2), dtype=complex))
        traj = evolve(H, PLUS, horizon=1.0)
        m = state_moments(H, PLUS)
        events = {"orthogonal": first_orthogonal(traj),
                  "antipodal": first_antipodal(traj)}
        rep = check_inequalities(traj, m, events=events)
        path = tmp_path / "report.json"
        write_report_json(rep, path)
        data = json.loads(path.read_text())
        assert data["context"] == "time-independent"
        assert data["characteristic_times"]["t_any"] is None
        assert data["characteristic_times"]["t_orth"] is None
        assert data["moments"] == {"energy": 0.0, "spread": 0.0}
        assert {m["name"] for m in data["margins"]} >= {"general:zero", "survival"}
        assert all(m["satisfied"] for m in data["margins"])
        assert data["events"]["orthogonal"]["triggered"] is False
        assert "numerical_slack" in data

    def test_margin_satisfied_matches_stored_values(self):
        m = Margin(name="x", lhs=1.0, rhs=0.5, slack=0.1)
        assert not m.satisfied
        assert m.margin == pytest.approx(-0.5)
        ok = Margin(name="x", lhs=1.0, rhs=1.05, slack=0.1)
        assert ok.satisfied
