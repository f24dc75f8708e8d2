"""Acceptance gate: the eight headline guarantees, one test per criterion.

Each test prints a single pass/fail line (run with -s to see them on
success; pytest shows them on failure regardless). Tolerances here are
contractual and must not be loosened; if a criterion cannot be met the
test stays red.
"""

import itertools
import math
import time

import numpy as np
import pytest

from qspeedlim.algebra import HermitianOperator, StateVector, random_state
from qspeedlim.bounds import state_moments, survival_lower_bound_ti
from qspeedlim.campaigns import run_analytic_suite, run_gue_ensemble, run_qac
from qspeedlim.events import first_antipodal, first_orthogonal
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
    IntegratorConfig,
    convergence_order,
    evolve,
)
from qspeedlim.schedules import Schedule

PLUS = StateVector.normalized(np.array([1.0, 1.0]))
PROJECTOR_INSTANCE = IsingInstance(n=1, couplings=(), fields=((0, -0.5),))
CHAIN_INSTANCE = IsingInstance(n=3, couplings=((0, 1, -1.0), (1, 2, -1.0)),
                               fields=((0, 0.25), (2, -0.5)))


def _verdict(number, title, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number} [{status}] {title}: {detail}")
    assert ok, f"criterion {number} ({title}): {detail}"


def _projector_annealer(T):
    return InterpolatedHamiltonian(
        initial=transverse_initial(1),
        problem=HermitianOperator(np.diag([0.0, 1.0]).astype(complex)),
        schedule=Schedule.linear(),
        total_time=T,
    )


@pytest.fixture(scope="module")
def default_suites():
    """The default verification workload: closed-form suite, 100 + 50 random
    ensemble members, and two annealing instances at three horizons."""
    t0 = time.monotonic()
    suites = {
        "analytic": run_analytic_suite(),
        "gue-dim2": run_gue_ensemble(dim=2, seeds=range(100)),
        "gue-dim8": run_gue_ensemble(dim=8, seeds=range(50)),
        "qac-single": run_qac(PROJECTOR_INSTANCE, T_values=(1.0, 4.0, 16.0),
                              shift_problem_ground=True),
        "qac-chain": run_qac(CHAIN_INSTANCE, T_values=(1.0, 4.0, 16.0)),
    }
    return suites, time.monotonic() - t0


def test_criterion_1_analytic_orthogonality():
    t0 = time.monotonic()
    h = HermitianOperator(np.diag([0.0, 1.0]).astype(complex))
    traj = evolve(h, PLUS, horizon=4.0)
    event = first_orthogonal(traj)
    elapsed = time.monotonic() - t0
    lower = 2.0 * math.sqrt(2.0)
    margin = event.time - lower if event.triggered else float("nan")
    ok = (event.triggered
          and abs(event.time - math.pi) <= 1e-6
          and event.time >= lower
          and abs(margin - (math.pi - lower)) <= 1e-5
          and elapsed < 1.0)
    _verdict(1, "analytic orthogonality", ok,
             f"t_orth = {event.time:.9f} (pi to 1e-6), "
             f"margin {margin:.4f} vs 0.3132, {elapsed:.2f}s")


def test_criterion_2_analytic_antipodal():
    t0 = time.monotonic()
    h = HermitianOperator(np.diag([-0.5, 0.5]).astype(complex))
    traj = evolve(h, PLUS, horizon=8.0)
    event = first_antipodal(traj)
    elapsed = time.monotonic() - t0
    margin = event.time - 4.0 if event.triggered else float("nan")
    ok = (event.triggered
          and abs(event.time - 2.0 * math.pi) <= 1e-6
          and event.time >= 4.0
          and abs(margin - (2.0 * math.pi - 4.0)) <= 1e-5
          and elapsed < 1.0)
    _verdict(2, "analytic antipodal", ok,
             f"t_any = {event.time:.9f} (2 pi to 1e-6), "
             f"margin {margin:.4f} vs 2.2832, {elapsed:.2f}s")


def test_criterion_3_master_inequality_zero_violations(default_suites):
    suites, elapsed = default_suites
    checked = 0
    violations = 0
    runs = 0
    for result in suites.values():
        runs += len(result.reports)
        for rep in result.reports:
            for m in rep.margins:
                if m.name.startswith("general:"):
                    checked += 1
                    violations += 0 if m.satisfied else 1
    ok = violations == 0 and checked >= 2 * runs and elapsed < 120.0
    _verdict(3, "master inequality on default suites", ok,
             f"{checked} policy checks over {runs} runs, "
             f"{violations} violations, suites built in {elapsed:.1f}s")


def test_criterion_4_survival_bounds(default_suites):
    suites, _ = default_suites
    violations = 0
    checked = 0
    for result in suites.values():
        for rep in result.reports:
            for m in rep.margins:
                if m.name == "survival":
                    checked += 1
                    violations += 0 if m.satisfied else 1
    # closed-form spot value at t = 1
    h = HermitianOperator(np.diag([0.0, 1.0]).astype(complex))
    traj = evolve(h, PLUS, horizon=1.0)
    p1 = float(traj.survival[-1])
    bound = survival_lower_bound_ti(1.0, 0.5, 1.0)
    spot_ok = (abs(p1 - math.cos(0.5) ** 2) <= 1e-9
               and not bound.vacuous
               and abs(bound.value - 0.765625) <= 1e-12
               and p1 >= bound.value)
    ok = violations == 0 and checked > 0 and spot_ok
    _verdict(4, "survival lower bounds", ok,
             f"{checked} trajectory checks, {violations} violations; "
             f"P(1) = {p1:.6f} >= {bound.value:.6f}")


def test_criterion_5_qac_characteristic_times(default_suites):
    suites, _ = default_suites
    single = suites["qac-single"].reports[0]
    target = 4.0 * math.sqrt(2.0)
    single_ok = (abs(single.moments.energy - 0.5) <= 1e-12
                 and abs(single.moments.spread - 0.5) <= 1e-12
                 and abs(single.characteristic.t_any - target) <= 1e-12
                 and abs(single.characteristic.t_orth - target) <= 1e-12)

    # 8-configuration enumeration oracle for the chain moments
    energies = []
    for bits in itertools.product((0, 1), repeat=3):
        s = [1 - 2 * b for b in bits]
        e = sum(J * s[i] * s[j] for i, j, J in CHAIN_INSTANCE.couplings)
        e += sum(hz * s[i] for i, hz in CHAIN_INSTANCE.fields)
        energies.append(e)
    mean = float(np.mean(energies))
    spread = float(np.std(energies))
    chain = suites["qac-chain"].reports[0]
    chain_ok = (abs(chain.moments.energy - mean) <= 1e-10
                and abs(chain.moments.spread - spread) <= 1e-10)
    ok = single_ok and chain_ok
    _verdict(5, "annealing characteristic times and moments", ok,
             f"single-qubit times {single.characteristic.t_any:.13f} = "
             f"{target:.13f}; chain moments ({chain.moments.energy:.6g}, "
             f"{chain.moments.spread:.6g}) vs oracle ({mean:.6g}, {spread:.6g})")


def test_criterion_6_integrator_validation():
    ih = _projector_annealer(T=10.0)
    psi0 = StateVector.uniform(2)

    traj = evolve(ih, psi0, horizon=10.0)
    norms = np.linalg.norm(traj.grid_states(), axis=1)
    per_step_drift = float(np.max(np.abs(np.diff(norms))))

    # the coarse rk4 probes drift past the default norm budget by design
    res = convergence_order(ih, psi0, horizon=10.0,
                            cfg=IntegratorConfig(method="rk4", steps=100,
                                                 norm_tolerance=1e-7))

    finals = [
        evolve(ih, psi0, horizon=10.0,
               cfg=IntegratorConfig(steps=n)).survival[-1]
        for n in (250, 500, 1000)
    ]
    coarse = abs(finals[1] - finals[0])
    fine = abs(finals[2] - finals[1])
    halving_ok = coarse >= 4.0 * fine

    ok = per_step_drift <= 1e-12 and 3.5 <= res.order <= 4.5 and halving_ok
    _verdict(6, "integrator validation", ok,
             f"midpoint per-step drift {per_step_drift:.2e} <= 1e-12; "
             f"rk4 order {res.order:.3f} in [3.5, 4.5]; "
             f"survival-change ratio {coarse / fine:.2f} >= 4")


def test_criterion_7_mean_energy_policy_optimality():
    rng = np.random.default_rng(2024)
    cfg = IntegratorConfig(steps=400)
    wins = 0
    for k in range(100):
        dim = 2 + k % 5
        h = random_hermitian(dim, 1000 + k)
        psi0 = random_state(dim, [1000 + k, 3])
        e0 = state_moments(h, psi0).energy
        offset = (0.1 + 1.9 * rng.random()) * (1.0 if rng.random() < 0.5 else -1.0)
        traj = evolve(h, psi0, horizon=1.0, cfg=cfg,
                      betas=[BetaPolicy.constant(e0, name="opt"),
                             BetaPolicy.constant(e0 + offset, name="other")])
        if traj.rhs_integrals["other"][-1] > traj.rhs_integrals["opt"][-1]:
            wins += 1
    ok = wins == 100
    _verdict(7, "mean-energy policy strictly tightens the bound", ok,
             f"{wins}/100 strict wins")


def test_criterion_8_reduction_identities():
    worst_ti = 0.0
    systems = [
        (HermitianOperator(np.diag([0.0, 1.0]).astype(complex)), PLUS),
        (HermitianOperator(np.diag([-0.5, 0.5]).astype(complex)), PLUS),
    ]
    for dim in (2, 8):
        for seed in range(10):
            systems.append((random_hermitian(dim, seed),
                            random_state(dim, [seed, 17])))
    for h, psi0 in systems:
        m = state_moments(h, psi0)
        traj = evolve(h, psi0, horizon=2.0)
        expected = traj.times * math.hypot(m.spread, m.energy)
        worst_ti = max(worst_ti, float(np.max(np.abs(
            traj.rhs_integrals["zero"] - expected))))

    worst_qac = 0.0
    members = [(PROJECTOR_INSTANCE, True), (CHAIN_INSTANCE, False)]
    for instance, shift in members:
        problem = ising_problem(instance)
        if shift:
            problem = shift_ground_to_zero(problem)
        initial = transverse_initial(instance.n)
        psi0 = StateVector.uniform(problem.dim)
        m = state_moments(problem, psi0)
        for T in (1.0, 4.0):
            ih = InterpolatedHamiltonian(initial=initial, problem=problem,
                                         schedule=Schedule.linear(), total_time=T)
            traj = evolve(ih, psi0, T, betas=[
                BetaPolicy.zero(),
                BetaPolicy.proportional(m.energy, name="gprop"),
                BetaPolicy.proportional(0.3, name="b03"),
            ])
            G = traj.times ** 2 / (2.0 * T)
            for label, beta0 in (("zero", 0.0), ("gprop", m.energy), ("b03", 0.3)):
                expected = G * math.hypot(m.spread, m.energy - beta0)
                worst_qac = max(worst_qac, float(np.max(np.abs(
                    traj.rhs_integrals[label] - expected))))

    ok = worst_ti <= 1e-10 and worst_qac <= 1e-9
    _verdict(8, "reduction identities", ok,
             f"fixed-H worst deviation {worst_ti:.2e} <= 1e-10; "
             f"annealing worst deviation {worst_qac:.2e} <= 1e-9")
