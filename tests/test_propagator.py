import collections
import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from qspeedlim import cli, propagate
from qspeedlim.algebra import (
    HermitianOperator,
    StateVector,
    expectation,
    random_state,
    variance_sqrt,
)
from qspeedlim.bounds import char_times_ti, check_inequalities, state_moments
from qspeedlim.events import EventQuery, first_antipodal, first_orthogonal
from qspeedlim.hamiltonians import (
    InterpolatedHamiltonian,
    IsingInstance,
    ising_problem,
    random_hermitian,
    shift_ground_to_zero,
    transverse_initial,
)
from qspeedlim.propagate import (
    BetaPolicy,
    IntegrationError,
    IntegratorConfig,
    Trajectory,
    convergence_order,
    evolve,
    write_csv_columns,
    write_trajectory_csv,
)
from qspeedlim.schedules import Schedule

PLUS = StateVector.normalized(np.array([1.0, 1.0]))


def two_level_gap():
    """H = diag(0, 1): mean and spread are both 1/2 on the plus state."""
    return HermitianOperator(np.diag([0.0, 1.0]).astype(complex))


def symmetric_gap():
    return HermitianOperator(np.diag([-0.5, 0.5]).astype(complex))


def single_qubit_annealer(T=10.0, schedule=None):
    return InterpolatedHamiltonian(
        initial=transverse_initial(1),
        problem=ising_problem(IsingInstance(n=1, fields=((0, 0.5),))) ,
        schedule=schedule or Schedule.linear(),
        total_time=T,
    )


def projector_annealer(T=10.0):
    # initial (1 - sx)/2 and problem (1 - sz)/2, both rank-one projectors
    problem = HermitianOperator(np.diag([0.0, 1.0]).astype(complex))
    return InterpolatedHamiltonian(
        initial=transverse_initial(1),
        problem=problem,
        schedule=Schedule.linear(),
        total_time=T,
    )


class TestTwoLevelClosedForm:
    """H = diag(0,1) on the plus state: overlap (1 + e^{it})/2, survival
    cos^2(t/2). The integrator is exact here, so tolerances are tight."""

    def setup_method(self):
        self.traj = evolve(two_level_gap(), PLUS, horizon=4.0,
                           betas=[BetaPolicy.zero(), BetaPolicy.constant(0.5)])

    def test_overlap_closed_form(self):
        want = (1.0 + np.exp(1j * self.traj.times)) / 2.0
        np.testing.assert_allclose(self.traj.overlaps, want, atol=1e-12)

    def test_survival_closed_form(self):
        want = np.cos(self.traj.times / 2.0) ** 2
        np.testing.assert_allclose(self.traj.survival, want, atol=1e-8)

    def test_survival_at_quarter_turn(self):
        k = np.searchsorted(self.traj.times, np.pi / 2.0)
        t = self.traj.times[k]
        assert self.traj.survival[k] == pytest.approx(np.cos(t / 2.0) ** 2, abs=1e-8)

    def test_distance_beta_zero(self):
        # 2 - 2 Re o = 1 - cos t
        want = np.sqrt(1.0 - np.cos(self.traj.times))
        np.testing.assert_allclose(self.traj.distances["zero"], want, atol=1e-10)

    def test_distance_beta_mean_energy(self):
        # with the reference phase at the mean energy the distance is
        # 2|sin(t/4)|, the saturating small-t form
        want = 2.0 * np.abs(np.sin(self.traj.times / 4.0))
        np.testing.assert_allclose(self.traj.distances["const0.5"], want, atol=1e-10)

    def test_rhs_integrals_linear_in_time(self):
        np.testing.assert_allclose(
            self.traj.rhs_integrals["zero"], self.traj.times / np.sqrt(2.0), atol=1e-10
        )
        np.testing.assert_allclose(
            self.traj.rhs_integrals["const0.5"], self.traj.times / 2.0, atol=1e-10
        )

    def test_master_inequality_both_policies(self):
        for label in ("zero", "const0.5"):
            lhs = self.traj.distances[label]
            rhs = self.traj.rhs_integrals[label] + self.traj.numerical_slack(label)
            assert np.all(lhs <= rhs)

    def test_small_time_saturation(self):
        # near t = 0 the mean-energy policy saturates the bound to third order
        k = 5
        t = self.traj.times[k]
        gap = self.traj.rhs_integrals["const0.5"][k] - self.traj.distances["const0.5"][k]
        assert 0.0 <= gap < t**3


class TestTrajectoryInvariants:
    @pytest.mark.parametrize("seed", [0, 1, 5])
    def test_recorded_fields_consistent(self, seed):
        H = random_hermitian(4, seed)
        psi0 = StateVector.normalized(
            np.random.default_rng([seed, 17]).standard_normal(4)
            + 1j * np.random.default_rng([seed, 18]).standard_normal(4)
        )
        e0 = expectation(H, psi0)
        traj = evolve(H, psi0, horizon=3.0,
                      betas=[BetaPolicy.zero(), BetaPolicy.constant(e0)],
                      cfg=IntegratorConfig(steps=500))
        assert traj.times[0] == 0.0
        assert np.all(np.diff(traj.times) > 0)
        np.testing.assert_allclose(traj.survival, np.abs(traj.overlaps) ** 2, atol=1e-12)
        assert traj.survival[0] == pytest.approx(1.0, abs=1e-12)
        for label, d in traj.distances.items():
            assert np.all(d >= 0.0) and np.all(d <= 2.0)
            assert np.all(np.diff(traj.rhs_integrals[label]) >= -1e-15)

    def test_master_inequality_random_runs(self):
        for seed in range(10):
            H = random_hermitian(3, seed)
            psi0 = StateVector.normalized(
                np.random.default_rng([seed, 17]).standard_normal(3)
                + 1j * np.random.default_rng([seed, 18]).standard_normal(3)
            )
            e0 = expectation(H, psi0)
            traj = evolve(H, psi0, horizon=4.0,
                          betas=[BetaPolicy.zero(), BetaPolicy.constant(e0)],
                          cfg=IntegratorConfig(steps=800))
            for label in traj.distances:
                lhs = traj.hbar * traj.distances[label]
                rhs = traj.rhs_integrals[label] + traj.numerical_slack(label)
                assert np.all(lhs <= rhs), f"seed {seed} policy {label}"

    def test_overlap_magnitude_independent_of_policy(self):
        H = two_level_gap()
        a = evolve(H, PLUS, horizon=4.0, betas=[BetaPolicy.zero()])
        b = evolve(H, PLUS, horizon=4.0, betas=[BetaPolicy.constant(2.0)])
        np.testing.assert_allclose(np.abs(a.overlaps), np.abs(b.overlaps), atol=1e-12)

    def test_constant_policy_phase_matches_closed_form(self):
        beta = 0.7
        traj = evolve(two_level_gap(), PLUS, horizon=4.0, betas=[BetaPolicy.constant(beta)])
        phased = np.exp(-1j * beta * traj.times) * traj.overlaps
        want = np.sqrt(np.clip(2.0 - 2.0 * phased.real, 0.0, 4.0))
        np.testing.assert_allclose(traj.distances["const0.7"], want, atol=1e-12)


class TestNullDynamics:
    def test_frozen_state(self):
        H = HermitianOperator(np.zeros((2, 2), dtype=complex))
        traj = evolve(H, PLUS, horizon=1.0)
        np.testing.assert_allclose(traj.survival, 1.0, atol=1e-12)
        # sqrt amplifies eps-level normalization noise; zero only at 1e-8 scale
        assert np.max(traj.distances["zero"]) < 3e-8

    def test_master_inequality_survives_null_case(self):
        H = HermitianOperator(np.zeros((2, 2), dtype=complex))
        traj = evolve(H, PLUS, horizon=1.0)
        slack = traj.numerical_slack("zero")
        assert np.all(traj.hbar * traj.distances["zero"] <= traj.rhs_integrals["zero"] + slack)


def dense_loop(H, phi0, times, hbar=1.0):
    """The fixed-H midpoint-exponential step loop that the closed form
    replaced: one cached eigh, then psi <- V (phases * V^dagger psi) per step.
    Returns the overlaps <psi(t_k)|phi0> and the grid states."""
    w, V = np.linalg.eigh(H.entries)
    phases = np.exp(-1j * w * (times[1] - times[0]) / hbar)
    states = np.empty((len(times), len(phi0)), dtype=complex)
    psi = phi0.copy()
    for k in range(len(times)):
        states[k] = psi
        psi = V @ (phases * (V.conj().T @ psi))
    return states.conj() @ phi0, states


def _analytic_cases():
    plus = StateVector.normalized(np.array([1.0, 1.0]))
    gap = HermitianOperator(np.diag([0.0, 1.0]).astype(complex))
    return [
        ("orthogonal-two-level", gap, plus, 4.0),
        ("antipodal-two-level", HermitianOperator(np.diag([-0.5, 0.5]).astype(complex)),
         plus, 8.0),
        ("null-hamiltonian", HermitianOperator(np.zeros((2, 2), dtype=complex)), plus, 1.0),
        ("eigenstate", gap, StateVector.basis(2, 0), 4.0),
    ]


def _gue_cases():
    cases = []
    for dim in (2, 8, 32):
        for shift in (False, True):
            for seed in (0, 1):
                H = random_hermitian(dim, seed)
                if shift:
                    H = shift_ground_to_zero(H)
                psi0 = random_state(dim, [seed, 17])
                horizon = 4.0 * char_times_ti(state_moments(H, psi0), 1.0).t_orth
                cases.append((f"gue-dim{dim}-shift{int(shift)}-seed{seed}", H, psi0, horizon))
    return cases


ORACLE_CASES = _analytic_cases() + _gue_cases()


class TestClosedFormAgainstDenseLoop:
    """The closed form against the step loop it replaced, which is the
    oracle: overlaps to 1e-12, event flags equal, event times within the
    two bracket widths; and against rk4 at a fine step."""

    @pytest.mark.parametrize("name, H, psi0, horizon", ORACLE_CASES,
                             ids=[c[0] for c in ORACLE_CASES])
    def test_matches_dense_loop(self, name, H, psi0, horizon):
        traj = evolve(H, psi0, horizon)
        assert traj.states is None and traj.spectrum is not None
        phi0 = traj.initial_state.amplitudes
        overlaps, states = dense_loop(H, phi0, traj.times)
        assert np.max(np.abs(traj.overlaps - overlaps)) <= 1e-12
        np.testing.assert_allclose(traj.final_state.amplitudes, states[-1], atol=1e-12)

        # the oracle refines from its recorded grid states, as the loop did
        looped = dataclasses.replace(traj, overlaps=overlaps, states=states, spectrum=None)
        for detect in (first_orthogonal, first_antipodal):
            got, want = detect(traj), detect(looped)
            assert got.triggered == want.triggered, detect.__name__
            if got.triggered:
                assert abs(got.time - want.time) <= got.bracket_width + want.bracket_width

    @pytest.mark.parametrize("name, H, psi0, horizon", ORACLE_CASES[::3],
                             ids=[c[0] for c in ORACLE_CASES[::3]])
    def test_matches_fine_rk4(self, name, H, psi0, horizon):
        # ||H|| dt <= 0.004 on every case, so rk4's global error at 8000
        # steps is at round-off level
        exact = evolve(H, psi0, horizon, cfg=IntegratorConfig(steps=8000))
        fine = evolve(H, psi0, horizon, cfg=IntegratorConfig(method="rk4", steps=8000))
        assert np.max(np.abs(exact.overlaps - fine.overlaps)) <= 1e-10


class TestClosedFormProperties:
    @settings(max_examples=25, deadline=None)
    @given(dim=st.integers(2, 16), seed=st.integers(0, 2**32 - 1),
           steps=st.integers(10, 600), beta=st.floats(-5.0, 5.0),
           horizon_mult=st.floats(0.05, 8.0))
    def test_general_and_survival_margins_hold(self, dim, seed, steps, beta, horizon_mult):
        H = random_hermitian(dim, seed)
        psi0 = random_state(dim, [seed, 17])
        m = state_moments(H, psi0)
        horizon = horizon_mult * char_times_ti(m, 1.0).t_orth
        traj = evolve(H, psi0, horizon, cfg=IntegratorConfig(steps=steps),
                      betas=[BetaPolicy.zero(), BetaPolicy.constant(beta, name="beta")])
        report = check_inequalities(traj, m)
        checked = [mg for mg in report.margins
                   if mg.name.startswith("general:") or mg.name == "survival"]
        assert len(checked) == 3
        for margin in checked:
            assert margin.satisfied, margin


class TestFixedHamiltonianAgainstGrid:
    """A fixed H's integrand is one norm per policy and its off-grid overlaps
    share one exponent; the per-grid formulas they replace are the oracle."""

    BETAS = [BetaPolicy.zero(), BetaPolicy.constant(0.7)]

    def test_integrand_matches_grid_rows(self):
        H = random_hermitian(8, 3)
        traj = evolve(H, random_state(8, [3, 17]), 5.0, betas=self.BETAS)
        phi0 = traj.initial_state.amplitudes
        for policy in self.BETAS:
            bvals = policy.values(traj.times, H)
            rows = np.tile(H.entries @ phi0, (len(traj.times), 1)) - bvals[:, None] * phi0
            integrand = np.linalg.norm(rows, axis=1)
            assert np.array_equal(traj.rhs_integrals[policy.label],
                                  propagate.cumulative_trapezoid(integrand, traj.dt))
            assert traj.integrand_max[policy.label] == float(np.max(integrand))

    def test_integrand_takes_no_grid_of_rows(self, monkeypatch):
        norm = np.linalg.norm
        shapes = []

        def spy(x, *args, **kwargs):
            shapes.append(np.shape(x))
            return norm(x, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", spy)
        evolve(random_hermitian(8, 5), random_state(8, [5, 17]), 3.0,
               cfg=IntegratorConfig(steps=2000), betas=self.BETAS)
        assert shapes and not [s for s in shapes if len(s) == 2 and s[0] > 1]

    def test_overlap_at_matches_spectral_sum(self):
        H = random_hermitian(8, 7)
        traj = evolve(H, random_state(8, [7, 17]), 6.0)
        w, _, c = traj.spectrum
        for hbar, run in ((1.0, traj), (0.5, dataclasses.replace(traj, hbar=0.5))):
            for t in np.linspace(0.0, traj.horizon, 50):
                assert run.overlap_at(t) == np.vdot(np.exp(t * ((-1j / hbar) * w)) * c, c)


def grid_closed_form(H, phi0, times, cfg):
    """The closed form that the two phase tables replaced, kept as the oracle:
    the eigenbasis amplitudes z_k = exp(-i w t_k/hbar) * c of the whole grid,
    from one complex exp over the (steps+1) x dim grid."""
    w, V = np.linalg.eigh(H)
    propagate._check_phase(float(times[-1]) * float(np.max(np.abs(w))) / cfg.hbar, times[-1])
    c = V.conj().T @ phi0
    z = np.outer(times, (-1j / cfg.hbar) * w)
    np.exp(z, out=z)
    z *= c
    norms = np.sqrt(np.einsum("ij,ij->i", z.real, z.real) + np.einsum("ij,ij->i", z.imag, z.imag))
    devs = np.abs(norms - 1.0)
    bad = np.flatnonzero(~(devs <= cfg.norm_tolerance))
    if bad.size:
        raise propagate._norm_error(norms[bad[0]], times[bad[0]], cfg.norm_tolerance)
    return (w, V, c), np.conj(z @ c.conj()), V @ z[-1], float(devs.max())


TABLE_STEPS = [1, 2, 3, 15, 16, 17, 2000, 2001]


class TestPhaseTablesAgainstGrid:
    """The closed form's coarse-times-fine phase tables against the grid-wide
    exp they replaced. The step counts take steps = n - 1 as a perfect square
    (1, 16), just past one (2, 17) and just before (3, 15), and row counts K
    that do not divide n."""

    @pytest.mark.parametrize("dim", [2, 8, 32])
    @pytest.mark.parametrize("steps", TABLE_STEPS)
    def test_matches_grid_exp(self, dim, steps):
        H = random_hermitian(dim, dim + steps)
        phi0 = random_state(dim, [dim, steps]).amplitudes
        horizon = 4.0 * char_times_ti(state_moments(H, StateVector(phi0)), 1.0).t_orth
        times = np.arange(steps + 1) * (horizon / steps)
        cfg = IntegratorConfig(steps=steps)
        spectrum, overlaps, final, dev = propagate._closed_form(H.entries, phi0, times, cfg)
        _, want_overlaps, want_final, want_dev = grid_closed_form(H.entries, phi0, times, cfg)
        assert overlaps.shape == want_overlaps.shape == times.shape
        assert np.max(np.abs(overlaps - want_overlaps)) <= 1e-12
        assert np.max(np.abs(final - want_final)) <= 1e-12
        assert abs(dev - want_dev) <= 1e-15
        assert len(spectrum) == 3 and spectrum[2].shape == (dim,)

    @pytest.mark.parametrize("steps", [17, 2000, 2001])
    def test_norm_check_fails_on_the_grid(self, steps):
        # at dim 32 some row's norm is an ulp off 1, past a 1e-300 tolerance
        H = random_hermitian(32, steps)
        times = np.arange(steps + 1) * (3.0 / steps)
        phi0 = random_state(32, [32, steps]).amplitudes
        with pytest.raises(IntegrationError) as err:
            propagate._closed_form(H.entries, phi0, times,
                                   IntegratorConfig(steps=steps, norm_tolerance=1e-300))
        assert err.value.time in times

    def test_takes_no_grid_sized_array(self):
        dim, steps = 64, 20000
        H = random_hermitian(dim, 11)
        psi0 = random_state(dim, [11, 17])
        grid_bytes = (steps + 1) * dim * 16
        tracemalloc.start()
        try:
            evolve(H, psi0, 50.0, cfg=IntegratorConfig(steps=steps),
                   betas=[BetaPolicy.zero(), BetaPolicy.constant(0.3)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= grid_bytes / 4, f"peak {peak} B against a {grid_bytes} B grid"


def eigh_action(M, psi, dt, hbar):
    """exp(-i M dt / hbar) |psi> by one eigh of M."""
    w, V = np.linalg.eigh(M)
    return V @ (np.exp(-1j * w * dt / hbar) * (V.conj().T @ psi))


def step_mean_matrix(h, t0, t1):
    """The step's Hamiltonian by quadrature: the means of f and g over
    [t0, t1] from scipy quad."""
    u0, u1 = t0 / h.total_time, t1 / h.total_time
    mean = lambda env: integrate.quad(env, u0, u1, epsabs=0.0, epsrel=1e-13)[0] / (u1 - u0)
    return mean(h.schedule.f) * h.initial.entries + mean(h.schedule.g) * h.problem.entries


def kernel_step(H, psi, dt):
    """One step exp(-i H dt) |psi> of a fixed H by its _TaylorKernel."""
    kernel = propagate._TaylorKernel(H)
    rows, _, degrees = kernel.steps(np.array([0.0, dt]), dt)
    return kernel.apply(rows[0], psi, degrees[0], np.empty(len(psi), complex))


def eigh_step(h, psi, t, dt, hbar):
    """The midpoint-exponential step that the Taylor action replaced: one
    eigh of the step's Hamiltonian per step."""
    return eigh_action(step_mean_matrix(h, t, t + dt), psi, dt, hbar)


def eigh_loop(h, phi0, times, hbar):
    """The interpolated step loop with eigh_step; returns the overlaps
    <psi(t_k)|phi0> and the grid states."""
    dt = times[1] - times[0]
    states = np.empty((len(times), len(phi0)), dtype=complex)
    psi = phi0.copy()
    for k in range(len(times)):
        states[k] = psi
        if k + 1 < len(times):
            psi = eigh_step(h, psi, times[k], dt, hbar)
    return states.conj() @ phi0, states


def _chain(n):
    return IsingInstance(n=n, couplings=tuple((i, i + 1, -1.0) for i in range(n - 1)),
                         fields=((0, 0.25), (n - 1, -0.5)))


def _annealer(instance, T, schedule=None, initial=None, shift=False):
    problem = ising_problem(instance)
    return InterpolatedHamiltonian(
        initial=initial if initial is not None else transverse_initial(instance.n),
        problem=shift_ground_to_zero(problem) if shift else problem,
        schedule=schedule or Schedule.linear(), total_time=T)


def _complex_initial(dim):
    # a complex Hermitian operator projected off the uniform state, which it
    # then annihilates
    u = StateVector.uniform(dim).amplitudes
    P = np.eye(dim) - np.outer(u, u.conj())
    return HermitianOperator(P @ random_hermitian(dim, 7).entries @ P)


def _taylor_cases():
    proj, chain3 = IsingInstance(n=1, fields=((0, -0.5),)), _chain(3)
    tabulated = Schedule.tabulated([[0.0, 1.0, 0.0], [0.3, 0.8, 0.1], [1.0, 0.0, 1.0]])
    cases = [(f"projector-T{T:g}", _annealer(proj, T, shift=True), 2000, 1.0)
             for T in (1.0, 4.0, 16.0)]
    cases += [(f"chain3-T{T:g}", _annealer(chain3, T), 2000, 1.0) for T in (1.0, 4.0, 16.0)]
    return cases + [
        ("chain6-T16", _annealer(_chain(6), 16.0), 2000, 1.0),
        ("chain3-poly2.5", _annealer(chain3, 4.0, Schedule.polynomial(2.5)), 2000, 1.0),
        ("chain3-tabulated", _annealer(chain3, 4.0, tabulated), 2000, 1.0),
        ("chain3-complex-initial", _annealer(chain3, 4.0, initial=_complex_initial(8)),
         2000, 1.0),
        ("chain3-hbar0.5", _annealer(chain3, 4.0), 2000, 0.5),
        # rho = 42 on the one step, which is past the switch to one eigh
        ("chain3-one-coarse-step", _annealer(chain3, 16.0), 1, 1.0),
    ]


TAYLOR_CASES = _taylor_cases()


class TestTaylorStepAgainstEigh:
    """The Taylor-action step against the per-step eigh it replaced, which is
    the oracle: overlaps and final states to 1e-12, event flags equal."""

    @pytest.mark.parametrize("name, ih, steps, hbar", TAYLOR_CASES,
                             ids=[c[0] for c in TAYLOR_CASES])
    def test_matches_eigh_loop(self, name, ih, steps, hbar, monkeypatch):
        psi0 = StateVector.uniform(ih.dim)
        traj = evolve(ih, psi0, ih.total_time,
                      cfg=IntegratorConfig(steps=steps, hbar=hbar))
        overlaps, states = eigh_loop(ih, traj.initial_state.amplitudes, traj.times, hbar)
        assert np.max(np.abs(traj.overlaps - overlaps)) <= 1e-12
        np.testing.assert_allclose(traj.final_state.amplitudes, states[-1], atol=1e-12)

        got = [detect(traj) for detect in (first_orthogonal, first_antipodal)]
        # the oracle refines from its own grid states, each off-grid step by
        # the kernel's eigh branch: with no theta table no series covers a step
        monkeypatch.setattr(propagate, "_THETA", [])
        looped = dataclasses.replace(traj, overlaps=overlaps, states=states)
        want = [detect(looped) for detect in (first_orthogonal, first_antipodal)]
        assert [g.triggered for g in got] == [w.triggered for w in want]

    @pytest.mark.parametrize("n", [3, 6])
    def test_eigh_step_matches_two_taylor_halves(self, n, monkeypatch):
        # under a fixed H one step of dt is two of dt/2; with rho just past
        # theta_20 the whole step is one eigh and each half one Taylor series
        H = HermitianOperator(_annealer(_chain(n), 16.0).matrix(8.0))
        psi = StateVector.uniform(H.dim).amplitudes
        dt = 1.01 * propagate._THETA[-1] / np.linalg.norm(H.entries, 1)
        eigh, calls = np.linalg.eigh, []
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(1) or eigh(a))
        whole = kernel_step(H, psi, dt)
        assert len(calls) == 1
        half = kernel_step(H, psi, dt / 2.0)
        halves = kernel_step(H, half, dt / 2.0)
        assert len(calls) == 1
        assert np.max(np.abs(whole - halves)) <= 1e-12

    @pytest.mark.parametrize("past_table", [False, True], ids=["taylor", "eigh"])
    def test_real_and_complex_exponents_agree(self, past_table, monkeypatch):
        # a real H runs the kernel in float64 blocks; D H D^dagger, D diagonal
        # phases, has complex entries, the same spectrum and the same 1-norm,
        # and runs it in complex arithmetic
        M = _annealer(_chain(6), 16.0).matrix(8.0)
        assert not np.any(M.imag)
        M = M.real.copy()
        psi = random_state(64, 3).amplitudes
        rho_max = 1.01 * propagate._THETA[-1] if past_table else 0.9 * propagate._THETA[-1]
        dt = rho_max / np.linalg.norm(M, 1)
        eigh, calls = np.linalg.eigh, []
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.dtype) or eigh(a))
        D = np.exp(1j * np.linspace(0.0, 3.0, len(M)))
        real = kernel_step(HermitianOperator(M), psi, dt)
        cplx = D.conj() * kernel_step(HermitianOperator(D[:, None] * M * D.conj()), D * psi, dt)
        assert calls == ([np.dtype(float), np.dtype(complex)] if past_table else [])
        assert np.max(np.abs(real - cplx)) <= 1e-14

    def test_envelope_calls_do_not_grow_with_steps(self, monkeypatch):
        # every step takes its Hamiltonian from one table per run
        calls = collections.Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for owner, name in ((Schedule, "f"), (Schedule, "g"),
                            (InterpolatedHamiltonian, "matrix"), (InterpolatedHamiltonian, "terms")):
            monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
        ih, psi0 = _annealer(_chain(3), 4.0), StateVector.uniform(8)
        for method in ("midpoint-exponential", "rk4"):
            counts = []
            for steps in (500, 2000):
                calls.clear()
                evolve(ih, psi0, 4.0, cfg=IntegratorConfig(method=method, steps=steps))
                counts.append(dict(calls))
            assert counts[0] == counts[1]
            assert sum(counts[1].values()) <= 10

    def test_refinement_builds_one_kernel(self, monkeypatch):
        # every off-grid step of a trajectory goes through one cached kernel
        traj = evolve(_annealer(_chain(3), 4.0), StateVector.uniform(8), 4.0)
        builds, init = [], propagate._TaylorKernel.__init__
        monkeypatch.setattr(propagate._TaylorKernel, "__init__",
                            lambda self, *args: builds.append(1) or init(self, *args))
        evaluations = []
        overlap_at_s = propagate.Trajectory.overlap_at_s
        monkeypatch.setattr(propagate.Trajectory, "overlap_at_s",
                            lambda self, s: evaluations.append(s) or overlap_at_s(self, s))
        first_orthogonal(traj, EventQuery("orthogonal", coarse_threshold=1.0))
        assert len(evaluations) >= 10
        assert len(builds) <= 1

    def test_no_eigh_in_steps_or_refinement(self, monkeypatch):
        # H(t) = (1 - tau) gap + tau gap = gap reaches orthogonality at pi
        gap = two_level_gap()
        ih = InterpolatedHamiltonian(initial=gap, problem=gap, schedule=Schedule.linear(),
                                     total_time=4.0)

        def no_eigh(*args, **kwargs):
            raise AssertionError("eigh called")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        traj = evolve(ih, PLUS, 4.0)
        event = first_orthogonal(traj)
        assert event.triggered and abs(event.time - math.pi) <= 1e-6


class TestNormPreservation:
    def test_midpoint_step_drift(self):
        traj = evolve(single_qubit_annealer(T=10.0), StateVector.uniform(2), horizon=10.0)
        assert traj.norm_max_dev <= 1e-12 * len(traj.times)
        norms = np.linalg.norm(traj.states, axis=1)
        assert np.max(np.abs(np.diff(norms))) <= 1e-12

    def test_step_loop_norm_is_numpys(self):
        traj = evolve(projector_annealer(T=10.0), StateVector.uniform(2), horizon=10.0)
        assert traj.norm_max_dev == max(abs(np.linalg.norm(s) - 1.0) for s in traj.states)

    def test_rk4_within_tolerance_at_sane_step(self):
        traj = evolve(single_qubit_annealer(T=10.0), StateVector.uniform(2), horizon=10.0,
                      cfg=IntegratorConfig(method="rk4", steps=2000))
        assert traj.norm_max_dev <= 1e-9

    def test_rk4_blowup_reports_offending_time(self):
        H = HermitianOperator(np.diag([0.0, 50.0]).astype(complex))
        with pytest.raises(IntegrationError) as err:
            evolve(H, PLUS, horizon=10.0, cfg=IntegratorConfig(method="rk4", steps=20))
        assert err.value.time is not None
        assert 0.0 < err.value.time <= 10.0
        assert "norm" in str(err.value)


class TestInputValidation:
    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            evolve(two_level_gap(), StateVector.uniform(4), horizon=1.0)

    def test_nonpositive_horizon(self):
        with pytest.raises(ValueError):
            evolve(two_level_gap(), PLUS, horizon=0.0)

    def test_horizon_beyond_interpolation_window(self):
        with pytest.raises(ValueError):
            evolve(single_qubit_annealer(T=4.0), StateVector.uniform(2), horizon=5.0)

    def test_proportional_policy_needs_interpolation(self):
        with pytest.raises(ValueError):
            evolve(two_level_gap(), PLUS, horizon=1.0, betas=[BetaPolicy.proportional(0.5)])

    def test_bad_method_rejected(self):
        with pytest.raises(ValueError):
            IntegratorConfig(method="euler")

    def test_bad_step_settings_rejected(self):
        with pytest.raises(ValueError):
            IntegratorConfig(dt=-0.1)
        with pytest.raises(ValueError):
            IntegratorConfig(steps=0)
        with pytest.raises(ValueError):
            IntegratorConfig(dt=0.1, steps=100)

    def test_non_finite_or_mistyped_settings_rejected(self):
        with pytest.raises(ValueError, match="dt"):
            IntegratorConfig(dt=math.inf)
        with pytest.raises(ValueError, match="hbar"):
            IntegratorConfig(hbar=math.nan)
        with pytest.raises(ValueError, match="hbar"):
            IntegratorConfig(hbar=1e-320)
        with pytest.raises(ValueError, match="norm_tolerance"):
            IntegratorConfig(norm_tolerance=math.inf)
        with pytest.raises(ValueError, match="steps"):
            IntegratorConfig(steps="10")
        with pytest.raises(ValueError, match="horizon"):
            evolve(two_level_gap(), PLUS, horizon=math.inf)

    def test_overflowing_interpolation_time_names_hbar(self):
        # ds = horizon / hbar / steps = 5e6 is fine, but T / hbar overflows
        with pytest.raises(ValueError, match="T / hbar = 1e\\+300 / 1e-10"):
            evolve(single_qubit_annealer(T=1e300), StateVector.uniform(2), horizon=1.0,
                   cfg=IntegratorConfig(hbar=1e-10))

    def test_nan_norm_raises_integration_error(self):
        # rk4 at dt = 1e5 blows the norm up: the run must stop with an
        # IntegrationError instead of passing a broken state on
        ih = InterpolatedHamiltonian(initial=transverse_initial(1), problem=two_level_gap(),
                                     schedule=Schedule.linear(), total_time=1e6)
        with pytest.raises(IntegrationError, match="norm"):
            evolve(ih, StateVector.uniform(2), horizon=1e6,
                   cfg=IntegratorConfig(method="rk4", steps=10))

    def test_non_finite_beta_rejected(self):
        for beta0 in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="beta0"):
                BetaPolicy.constant(beta0)
        with pytest.raises(ValueError, match="beta0"):
            BetaPolicy("proportional", math.nan)

    def test_zero_policy_is_the_named_constant_zero(self):
        assert BetaPolicy.zero() == BetaPolicy.constant(0.0, name="zero")
        assert BetaPolicy.zero().label == "zero"

    def test_overflowing_phase_integral_raises_integration_error(self):
        # beta = 1e308 is finite, but its phase integral overflows to inf and
        # every distance after t = 0 comes out NaN
        with pytest.raises(IntegrationError, match="const1e\\+308") as info:
            evolve(two_level_gap(), PLUS, horizon=4.0, cfg=IntegratorConfig(steps=100),
                   betas=[BetaPolicy.zero(), BetaPolicy.constant(1e308)])
        assert info.value.time == pytest.approx(0.04)

    def test_overflowing_integrand_raises_integration_error(self):
        # beta = 1e200 keeps its phase integral finite, but the norm of
        # (H - beta) phi0 squares it past the float range
        with pytest.raises(IntegrationError, match="integrand") as info:
            evolve(two_level_gap(), PLUS, horizon=4.0, cfg=IntegratorConfig(steps=100),
                   betas=[BetaPolicy.zero(), BetaPolicy.constant(1e200)])
        assert info.value.time == 0.0

    def test_doomed_run_takes_no_step(self, monkeypatch):
        # the phase integral reads only the grid and beta, so its overflow
        # stops the run before the first step
        def step(*args):
            raise AssertionError("a doomed run took a step")

        monkeypatch.setattr(propagate._TaylorKernel, "apply", step)
        with pytest.raises(IntegrationError, match="const1e\\+308"):
            evolve(projector_annealer(T=1.0), StateVector.uniform(2), horizon=1.0,
                   betas=[BetaPolicy.zero(), BetaPolicy.constant(1e308)])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_escapes_as_integration_error_only(self):
        # envelopes and a field of 1e200 overflow H(t) phi0, the step table
        # and the step bounds; numpy must not warn on the way to the error
        ih = InterpolatedHamiltonian(
            initial=transverse_initial(1),
            problem=ising_problem(IsingInstance(n=1, fields=((0, 1e200),))),
            schedule=Schedule.tabulated([[0, 1, 0], [0.5, 1e200, 1e200], [1, 0, 1]]),
            total_time=1.0)
        with pytest.raises(IntegrationError, match="integrand"):
            evolve(ih, StateVector.uniform(2), horizon=1.0)

    def test_overflowing_step_bound_raises_integration_error(self):
        # at hbar = 1 a field of 1e150 keeps ||H(t) phi0|| finite, but
        # ||H_P||_1 ds with ds = 1e169 overflows to inf: the step bound is not finite
        ih = InterpolatedHamiltonian(
            initial=transverse_initial(1),
            problem=ising_problem(IsingInstance(n=1, fields=((0, 1e150),))),
            schedule=Schedule.linear(), total_time=1e170)
        with pytest.raises(IntegrationError, match="step bound"):
            evolve(ih, StateVector.uniform(2), horizon=1e170, cfg=IntegratorConfig(steps=10))

    def test_default_steps(self):
        traj = evolve(two_level_gap(), PLUS, horizon=4.0)
        assert len(traj.times) == 2001

    def test_dt_sets_the_step_count(self):
        # ceil(4 / 0.3) = 14 steps of 4/14, so the grid still ends at the horizon
        traj = evolve(two_level_gap(), PLUS, horizon=4.0, cfg=IntegratorConfig(dt=0.3))
        assert len(traj.times) == 15
        assert traj.times[-1] == 4.0

    @pytest.mark.parametrize("kind", ["fixed", "interpolated"])
    def test_phase_past_the_float_floor_raises_integration_error(self, kind):
        # the largest phase is horizon * max|w| / hbar for a fixed H and the
        # sum of the step bounds for H(t); past FLOAT_FLOOR * 2**52 its
        # rounding alone exceeds the float floor
        h = two_level_gap() if kind == "fixed" else projector_annealer(T=1e9)
        cap = propagate.FLOAT_FLOOR * 2.0**52
        evolve(h, PLUS, horizon=0.9 * cap, cfg=IntegratorConfig(steps=10))
        with pytest.raises(IntegrationError, match="largest phase") as info:
            evolve(h, PLUS, horizon=1e9, cfg=IntegratorConfig(steps=10))
        assert info.value.time == 1e9


class TestAnnealingRun:
    def test_self_convergence_of_final_survival(self):
        ih = projector_annealer(T=10.0)
        psi0 = StateVector.uniform(2)
        coarse = evolve(ih, psi0, horizon=10.0, cfg=IntegratorConfig(steps=2000))
        fine = evolve(ih, psi0, horizon=10.0, cfg=IntegratorConfig(steps=20000))
        assert coarse.survival[-1] == pytest.approx(fine.survival[-1], abs=1e-6)

    def test_proportional_policy_reduction(self):
        # with the initial term annihilating the start state the integrand is
        # g(t/T) times a constant, so the rhs integral is exactly the
        # schedule integral times the residual norm
        ih = projector_annealer(T=10.0)
        psi0 = StateVector.uniform(2)
        beta0 = 0.5
        traj = evolve(ih, psi0, horizon=10.0, betas=[BetaPolicy.proportional(beta0)])
        ep = expectation(ih.problem, psi0)
        dp = variance_sqrt(ih.problem, psi0)
        scale = math.sqrt(dp**2 + (ep - beta0) ** 2)
        G = traj.times**2 / (2.0 * 10.0)  # integral of tau/T up to t
        np.testing.assert_allclose(traj.rhs_integrals[f"gprop{beta0:g}"], G * scale, atol=1e-9)

    def test_gue_interpolation_master_inequality(self):
        rng_seeds = range(5)
        for seed in rng_seeds:
            ih = InterpolatedHamiltonian(
                initial=random_hermitian(4, seed),
                problem=random_hermitian(4, seed + 100),
                schedule=Schedule.polynomial(2),
                total_time=6.0,
            )
            psi0 = StateVector.normalized(
                np.random.default_rng([seed, 3]).standard_normal(4)
                + 1j * np.random.default_rng([seed, 4]).standard_normal(4)
            )
            traj = evolve(ih, psi0, horizon=6.0, cfg=IntegratorConfig(steps=1200),
                          betas=[BetaPolicy.zero(), BetaPolicy.proportional(0.3)])
            for label in traj.distances:
                lhs = traj.distances[label]
                rhs = traj.rhs_integrals[label] + traj.numerical_slack(label)
                assert np.all(lhs <= rhs), f"seed {seed} policy {label}"


class TestConvergenceOrder:
    def test_time_independent_midpoint_is_exact(self):
        res = convergence_order(two_level_gap(), PLUS, horizon=4.0,
                                cfg=IntegratorConfig(steps=50))
        assert res.exact

    def test_rk4_fourth_order_on_annealer(self):
        # the coarse probes drift past the default norm tolerance by design,
        # so the order measurement gets an explicit looser budget
        res = convergence_order(projector_annealer(T=10.0), StateVector.uniform(2),
                                horizon=10.0,
                                cfg=IntegratorConfig(method="rk4", steps=100,
                                                     norm_tolerance=1e-7))
        assert not res.exact
        assert 3.5 <= res.order <= 4.5

    def test_midpoint_second_order_on_annealer(self):
        res = convergence_order(projector_annealer(T=10.0), StateVector.uniform(2),
                                horizon=10.0, cfg=IntegratorConfig(steps=50))
        assert not res.exact
        assert 1.8 <= res.order <= 2.4

    def test_midpoint_second_order_on_concave_schedule(self):
        # g = tau^0.1 has an unbounded g' at 0, where a midpoint sample of g
        # cut the order to 1.24; the step mean of g keeps it second order
        ih = _annealer(_chain(3), 16.0, Schedule.polynomial(0.1))
        res = convergence_order(ih, StateVector.uniform(8), 16.0, cfg=IntegratorConfig(steps=500))
        assert not res.exact
        assert res.order >= 1.8

    def test_probes_keep_every_setting_but_the_step(self):
        # a dt-given config probes at the same step counts as its steps twin,
        # with its method, tolerance and hbar
        ih, psi0 = projector_annealer(T=10.0), StateVector.uniform(2)
        settings = dict(method="rk4", norm_tolerance=1e-7, hbar=0.5)
        by_dt = convergence_order(ih, psi0, 10.0, IntegratorConfig(dt=0.1, **settings))
        by_steps = convergence_order(ih, psi0, 10.0, IntegratorConfig(steps=100, **settings))
        assert by_dt.errors == by_steps.errors
        assert by_dt.errors != convergence_order(ih, psi0, 10.0,
                                                 IntegratorConfig(steps=100, hbar=0.5)).errors

    def test_midpoint_halving_shrinks_survival_change_fourfold(self):
        ih = projector_annealer(T=10.0)
        psi0 = StateVector.uniform(2)
        finals = [
            evolve(ih, psi0, horizon=10.0, cfg=IntegratorConfig(steps=n)).survival[-1]
            for n in (250, 500, 1000)
        ]
        change_coarse = abs(finals[1] - finals[0])
        change_fine = abs(finals[2] - finals[1])
        assert change_coarse >= 4.0 * change_fine


class TestExport:
    def test_csv_columns_and_sidecar(self, tmp_path):
        traj = evolve(two_level_gap(), PLUS, horizon=2.0,
                      cfg=IntegratorConfig(steps=100),
                      betas=[BetaPolicy.zero(), BetaPolicy.constant(0.5)])
        out = tmp_path / "traj.csv"
        write_trajectory_csv(traj, out, seed=7)
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        header = rows[0]
        assert header == [
            "t", "re_overlap", "im_overlap", "survival",
            "distance_zero", "rhs_integral_zero",
            "distance_const0.5", "rhs_integral_const0.5",
        ]
        assert len(rows) == 1 + len(traj.times)
        got_t = np.array([float(r[0]) for r in rows[1:]])
        np.testing.assert_allclose(got_t, traj.times, atol=0)
        got_surv = np.array([float(r[3]) for r in rows[1:]])
        np.testing.assert_allclose(got_surv, traj.survival, atol=1e-15)
        meta = json.loads((tmp_path / "traj.meta.json").read_text())
        assert meta == {"seed": 7, "method": "midpoint-exponential",
                        "dt": traj.dt, "hbar": 1.0}

    def test_initial_and_final_state_recorded(self):
        traj = evolve(two_level_gap(), PLUS, horizon=2.0, cfg=IntegratorConfig(steps=100))
        np.testing.assert_allclose(traj.initial_state.amplitudes, PLUS.amplitudes, atol=1e-15)
        assert isinstance(traj.final_state, StateVector)
        # the closed form keeps no grid states; a step loop still records them
        looped = evolve(two_level_gap(), PLUS, horizon=2.0,
                        cfg=IntegratorConfig(method="rk4", steps=100))
        np.testing.assert_allclose(looped.states[0], PLUS.amplitudes, atol=1e-15)
        np.testing.assert_allclose(looped.states[-1], looped.final_state.amplitudes, atol=0)


def _csv_writer_oracle(path, header, columns):
    """The row-at-a-time writer that write_csv_columns replaced."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*(c.tolist() for c in columns)))


ADVERSARIAL = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 1e16,
               1e-5, 0.1 + 0.2, 1.0, -1.5, 2.0**53 + 2.0, 1.7976931348623157e308]
BLOCK = propagate._CSV_BLOCK


class TestCsvColumnsAgainstCsvWriter:
    # from 2 * BLOCK rows on, a forked child formats the second half
    @pytest.mark.parametrize("rows", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK - 1, 2 * BLOCK,
                                      2 * BLOCK + 3, 3 * BLOCK + 1])
    def test_adversarial_columns_byte_identical(self, tmp_path, rows):
        rng = np.random.default_rng(rows)
        special = np.resize(np.array(ADVERSARIAL), rows)
        columns = [special, rng.permutation(special), rng.standard_normal(rows) * 1e-300,
                   rng.standard_normal(rows) * 1e300, rng.standard_normal(rows) > 0]
        header = ["t", "odd,name", 'quote"d', "x", "flag"]
        write_csv_columns(tmp_path / "got.csv", header, columns)
        _csv_writer_oracle(tmp_path / "want.csv", header, columns)
        got = (tmp_path / "got.csv").read_bytes()
        assert got == (tmp_path / "want.csv").read_bytes()
        assert got.count(b"\r\n") == rows + 1
        with pytest.raises(ChildProcessError):  # every child was reaped
            os.waitpid(-1, os.WNOHANG)

    def test_decay_cli_files_match_oracle(self, tmp_path, monkeypatch):
        # both CSVs of a real decay run, more than one block of rows long, on
        # one core and, past 2 * BLOCK rows, on two
        real = propagate.write_csv_columns
        written = []

        def twin(path, header, columns):
            real(path, header, columns)
            _csv_writer_oracle(f"{path}.oracle", header, columns)
            written.append(path)

        monkeypatch.setattr(propagate, "write_csv_columns", twin)
        monkeypatch.setattr(cli, "write_csv_columns", twin)
        for steps in (BLOCK + 904, 2 * BLOCK + 905):
            written.clear()
            rc = cli.main(["decay", "--dim", "16", "--seed", "3", "--steps", str(steps),
                           "--out", str(tmp_path / str(steps))])
            assert rc == 0
            assert sorted(p.name for p in map(Path, written)) == ["decay.csv", "trajectory.csv"]
            for path in written:
                got = Path(path).read_bytes()
                assert got == Path(f"{path}.oracle").read_bytes()
                assert got.count(b"\r\n") == steps + 2

    def test_failure_in_the_second_half_names_the_path(self, tmp_path):
        # only the forked child formats rows past the midpoint, so only it fails
        class Unformattable:
            def __init__(self, fails):
                self.fails = fails

            def __repr__(self):
                if self.fails:
                    raise RuntimeError("no repr")
                return "ok"

        rows = 2 * BLOCK + 3
        column = np.array([Unformattable(k > rows // 2) for k in range(rows)], dtype=object)
        path = tmp_path / "broken.csv"
        with pytest.raises(OSError, match="broken.csv"):
            write_csv_columns(path, ["x", "y"], [column, np.zeros(rows)])
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_decay_prints_each_line_once(self, tmp_path, capfd):
        # stdout to a file is block-buffered, so it holds the first line when
        # the writer forks; a child that flushed it on the way out would print
        # that line twice
        src = Path(propagate.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        env.pop("PYTHONUNBUFFERED", None)
        out = tmp_path / "out"
        rc = subprocess.run([sys.executable, "-m", "qspeedlim.cli", "decay", "--two-level",
                             "--steps", str(4 * BLOCK), "--out", str(out)], env=env).returncode
        assert rc == 0
        lines = capfd.readouterr().out.splitlines()
        wrote = ", ".join(str(out / f) for f in ("trajectory.csv", "decay.csv", "report.json"))
        assert lines[:2] == ["units: hbar = 1; all energies and times are hbar-relative",
                             f"wrote {wrote}"]
        assert len(lines) == len(set(lines)) == 3  # the third is the orthogonality time
