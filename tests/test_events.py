import logging
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qspeedlim import events, propagate
from qspeedlim.algebra import HermitianOperator, StateVector, random_state
from qspeedlim.bounds import char_times_ti, state_moments
from qspeedlim.campaigns import run_analytic_suite, run_gue_ensemble, run_qac
from qspeedlim.events import (
    _GUARD_STEPS,
    EventQuery,
    EventResult,
    _brent_min,
    first_antipodal,
    first_orthogonal,
)
from qspeedlim.hamiltonians import IsingInstance, random_hermitian
from qspeedlim.propagate import BetaPolicy, IntegratorConfig, evolve

PLUS = StateVector.normalized(np.array([1.0, 1.0]))

CHAIN3 = IsingInstance(n=3, couplings=[(0, 1, -1.0), (1, 2, -1.0)], fields=[(0, 0.25), (2, -0.5)])

# the acceptance chain's pattern at six qubits: an apply walk whose refinement replays grid states
CHAIN6 = IsingInstance(n=6, couplings=[(i, i + 1, -1.0) for i in range(5)],
                       fields=[(0, 0.25), (5, -0.5)])


def golden_oracle(f, a, b, width_goal, noise=0.0):
    """Golden-section search, the refinement Brent's method replaced: the
    reference its event times and widths are checked against. Once the two
    interior values differ by less than `noise`, the width returned is that
    step's bracket, the last one known to hold the minimum."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = f(c), f(d)
    held = None
    for _ in range(_GUARD_STEPS):
        if b - a <= width_goal:
            break
        if held is None and abs(fc - fd) < noise:
            held = b - a
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    width = b - a if held is None else held
    return (c, fc, width) if fc < fd else (d, fd, width)


def bracket(f, a, x, b):
    """The bracket a grid scan hands _brent_min: the ends a and b, the least
    sample x between them, and their values. f is the uncounted function, so
    a counting wrapper passed as the search's f counts the search's
    evaluations alone."""
    points = (a, x, b)
    return points, tuple(f(y) for y in points)


def recorded(minimize, widths):
    """minimize, appending the width of every search to widths."""
    def run(*args):
        x, fx, width = minimize(*args)
        widths.append(width)
        return x, fx, width
    return run


def gap_hamiltonian():
    return HermitianOperator(np.diag([0.0, 1.0]).astype(complex))


def symmetric_hamiltonian():
    return HermitianOperator(np.diag([-0.5, 0.5]).astype(complex))


class TestOrthogonal:
    def test_two_level_crossing_at_pi(self):
        # |<psi(t)|phi0>| = |cos(t/2)| hits zero at t = pi
        H = gap_hamiltonian()
        traj = evolve(H, PLUS, horizon=4.0)
        res = first_orthogonal(traj)
        assert res.triggered
        assert res.time == pytest.approx(math.pi, abs=1e-7)
        assert res.functional_value <= 1e-6
        assert res.bracket_width <= 4.0 * 1e-9
        assert res.kind == "orthogonal"

    @pytest.mark.parametrize("horizon", [2.0 * math.pi, 4.0 * math.pi], ids=["2pi", "4pi"])
    def test_crossing_on_a_grid_point_triggers(self, horizon):
        # grid point 1000 (or 500) sits on pi, an exact minimum the search starts on
        traj = evolve(gap_hamiltonian(), PLUS, horizon=horizon)
        res = first_orthogonal(traj)
        assert res.triggered
        assert res.functional_value <= 1e-6
        assert abs(res.time - math.pi) <= res.bracket_width <= horizon * 1e-9

    def test_refined_time_survives_fresh_integration(self):
        H = gap_hamiltonian()
        traj = evolve(H, PLUS, horizon=4.0)
        res = first_orthogonal(traj)
        fresh = evolve(H, PLUS, horizon=res.time,
                       cfg=IntegratorConfig(steps=4 * 2000))
        assert abs(fresh.overlaps[-1]) <= 1e-6

    def test_frozen_state_never_triggers(self):
        H = HermitianOperator(np.zeros((2, 2), dtype=complex))
        traj = evolve(H, PLUS, horizon=1.0)
        res = first_orthogonal(traj)
        assert not res.triggered
        assert res.time is None
        assert res.functional_value == pytest.approx(1.0, abs=1e-9)

    def test_eigenstate_never_triggers(self):
        H = gap_hamiltonian()
        basis0 = StateVector.basis(2, 0)
        traj = evolve(H, basis0, horizon=4.0)
        res = first_orthogonal(traj)
        assert not res.triggered
        assert res.functional_value == pytest.approx(1.0, abs=1e-9)

    def test_near_miss_emits_limitation_note(self, caplog):
        # balanced-but-for-5e-4 populations: min |overlap| = 5e-4, inside the
        # (tolerance, 1e-3] window that cannot be certified either way
        p0 = 0.50025
        psi0 = StateVector.normalized(np.array([math.sqrt(p0), math.sqrt(1.0 - p0)]))
        H = gap_hamiltonian()
        traj = evolve(H, psi0, horizon=4.0)
        with caplog.at_level(logging.WARNING, logger="qspeedlim.events"):
            res = first_orthogonal(traj)
        assert [r.name for r in caplog.records] == ["qspeedlim.events"]
        assert "between" in caplog.records[0].getMessage()
        assert not res.triggered
        assert res.functional_value == pytest.approx(5e-4, abs=1e-6)
        assert res.note is not None

    def test_near_miss_prints_nothing_by_default(self):
        # the log record reaches no stream unless the application configures logging
        code = ("import math, numpy as np\n"
                "from qspeedlim import HermitianOperator, StateVector, evolve, first_orthogonal\n"
                "H = HermitianOperator(np.diag([0.0, 1.0]).astype(complex))\n"
                "psi0 = StateVector.normalized(np.array([math.sqrt(0.50025), math.sqrt(0.49975)]))\n"
                "print(first_orthogonal(evolve(H, psi0, horizon=4.0)).note is not None)\n")
        src = Path(__file__).resolve().parents[1] / "src"
        path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=path))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "True"
        assert proc.stderr == ""

    def test_first_of_many_crossings_returned(self):
        H = gap_hamiltonian()
        traj = evolve(H, PLUS, horizon=20.0)
        res = first_orthogonal(traj)
        # crossings at pi, 3pi, 5pi; the first one wins
        assert res.time == pytest.approx(math.pi, abs=1e-6)


class TestAntipodal:
    def test_symmetric_gap_reaches_antipode_at_two_pi(self):
        # d^2(t, 0) = 2 - 2 cos(t) under diag(-1/2, 1/2): antipode at 2 pi...
        # the overlap is cos(t/2) exactly, so d^2 = 2 - 2 cos(t/2), antipode
        # where cos(t/2) = -1, i.e. t = 2 pi
        H = symmetric_hamiltonian()
        traj = evolve(H, PLUS, horizon=8.0)
        res = first_antipodal(traj)
        assert res.triggered
        assert res.time == pytest.approx(2.0 * math.pi, abs=1e-6)
        # the minimum is flat, so round-off bounds the width, not the step count
        assert abs(res.time - 2.0 * math.pi) <= res.bracket_width
        assert res.functional_value <= 1e-6
        assert res.kind == "antipodal"

    @pytest.mark.parametrize("horizon", [4.0 * math.pi, 8.0 * math.pi], ids=["4pi", "8pi"])
    def test_antipode_on_a_grid_point_triggers(self, horizon):
        traj = evolve(symmetric_hamiltonian(), PLUS, horizon=horizon)
        res = first_antipodal(traj)
        assert res.triggered
        assert res.functional_value <= 1e-6
        assert abs(res.time - 2.0 * math.pi) <= min(res.bracket_width, 1e-6)

    def test_gap_case_never_reaches_antipode(self):
        # Re<psi|phi0> = (1 + cos t)/2 >= 0 keeps d below sqrt(2)
        H = gap_hamiltonian()
        traj = evolve(H, PLUS, horizon=4.0)
        res = first_antipodal(traj)
        assert not res.triggered
        sup_d = 2.0 - res.functional_value
        assert sup_d == pytest.approx(math.sqrt(2.0), abs=1e-4)

    def test_frozen_state_sup_distance_zero(self):
        H = HermitianOperator(np.zeros((2, 2), dtype=complex))
        traj = evolve(H, PLUS, horizon=1.0)
        res = first_antipodal(traj)
        assert not res.triggered
        # functional 2 - d stays at 2 up to eps-level rounding noise
        assert res.functional_value == pytest.approx(2.0, abs=1e-7)

    def test_antipodal_implies_earlier_orthogonal_grade_distance(self):
        H = symmetric_hamiltonian()
        traj = evolve(H, PLUS, horizon=8.0)
        res = first_antipodal(traj)
        assert res.triggered
        earlier = traj.distances["zero"][traj.times <= res.time]
        assert np.any(earlier >= math.sqrt(2.0) - 1e-9)

    @pytest.mark.parametrize("seed", [83, 681])
    def test_flat_antipode_width_covers_exact_minimum(self, seed):
        # near-antipodal dim-2 draws: the functional is quadratic at its
        # minimum, so round-off rather than the step count limits the time
        H = random_hermitian(2, seed)
        psi0 = random_state(2, [seed, 17])
        traj = evolve(H, psi0, 4.0 * char_times_ti(state_moments(H, psi0), 1.0).t_orth)
        res = first_antipodal(traj)
        assert res.triggered
        w, _, c = traj.spectrum
        p = np.abs(c) ** 2
        t = res.time
        for _ in range(5):  # Newton on d/dt Re<psi(t)|phi0> = -sum p w sin(w t)
            t -= np.sum(p * w * np.sin(w * t)) / np.sum(p * w**2 * np.cos(w * t))
        assert abs(res.time - t) <= res.bracket_width

    def test_requires_beta_zero_distances(self):
        H = symmetric_hamiltonian()
        traj = evolve(H, PLUS, horizon=8.0, betas=[BetaPolicy.constant(0.3)])
        with pytest.raises(ValueError, match="zero"):
            first_antipodal(traj)


class TestQueryAndRefinement:
    def test_query_validation(self):
        with pytest.raises(ValueError):
            EventQuery(kind="sideways")
        with pytest.raises(ValueError):
            EventQuery(kind="orthogonal", tolerance=0.0)
        # a NaN coarse_threshold would make max(nan, tolerance) a threshold
        # no grid minimum is at or below, hiding every crossing
        for field in ("tolerance", "coarse_threshold"):
            for value in (math.nan, math.inf, -math.inf):
                with pytest.raises(ValueError, match=field):
                    EventQuery(kind="orthogonal", **{field: value})

    def test_kind_mismatch_rejected(self):
        H = gap_hamiltonian()
        traj = evolve(H, PLUS, horizon=4.0)
        with pytest.raises(ValueError, match="kind"):
            first_orthogonal(traj, EventQuery(kind="antipodal"))

    def test_brent_reaches_width_goal_on_a_quadratic(self):
        calls = []
        f = lambda x: calls.append(x) or (x - 1.3) ** 2
        xm, fm, width = _brent_min(f, *bracket(lambda x: (x - 1.3) ** 2, 0.0, 1.0, 2.0),
                                   width_goal=1e-6)
        assert width <= 1e-6
        assert abs(xm - 1.3) <= width
        assert len(calls) <= 10
        assert xm in calls and fm == (xm - 1.3) ** 2

    @pytest.mark.parametrize("power", [2, 4], ids=["quadratic", "quartic"])
    def test_brent_certifies_its_bracket_under_noise(self, power):
        # a flat minimum with deterministic noise of amplitude below noise / 2:
        # both ends of the returned bracket are evaluated points whose values
        # exceed f(x) + noise, and the true minimizer lies between; the
        # quartic's first probes fall inside the noise
        noise = 1e-14
        values = {}
        f = lambda x: values.setdefault(
            x, 1e-3 * (x - 1.3) ** power + 0.45 * noise * math.sin(1e12 * x))
        xm, fm, width = _brent_min(f, *bracket(f, 0.0, 1.0, 2.0), width_goal=1e-12, noise=noise)
        assert fm == values[xm]
        ends = [(lo, hi) for lo in values for hi in values if hi - lo == width]
        assert len(ends) == 1
        lo, hi = ends[0]
        assert lo <= 1.3 <= hi and lo <= xm <= hi
        assert values[lo] > fm + noise and values[hi] > fm + noise

    @pytest.mark.parametrize("f, goal", [(lambda x: abs(x - 0.5), 1e-9),
                                         (lambda x: (x - 0.5) ** 2, 0.0),
                                         (lambda x: abs(x - 0.5), 0.0)],
                             ids=["kink", "quadratic-goal-0", "kink-goal-0"])
    def test_brent_stops_within_the_guard(self, f, goal):
        # the least sample 0.3 is off the minimum, so the search must travel to it
        calls = []
        xm, _, width = _brent_min(lambda x: calls.append(x) or f(x), *bracket(f, 0.0, 0.3, 1.0),
                                  width_goal=goal)
        assert len(calls) <= 1 + _GUARD_STEPS
        assert abs(xm - 0.5) <= width

    def test_brent_first_trial_is_the_seeded_vertex(self):
        # the grid's three samples already fix a parabola; on a quadratic its
        # vertex is the minimum, and the first evaluation lands there
        calls = []
        f = lambda x: (x - 1.3) ** 2
        _brent_min(lambda x: calls.append(x) or f(x), *bracket(f, 0.0, 1.0, 2.0), width_goal=1e-6)
        assert calls[0] == pytest.approx(1.3, abs=1e-12)

    @pytest.mark.parametrize("points, f, floor",
                             [((0.0, 1.0, 1.0), lambda x: 1e-3 * (x - 1.0) ** 2, (1.0, 1.0)),
                              ((0.0, 0.5, 1.0), lambda x: max(0.5 - x, 0.0), (0.5, 1.0))],
                             ids=["end-is-x", "flat-side"])
    def test_brent_certifies_beside_a_tied_end(self, points, f, floor):
        # an end sampled within noise of f(x): the horizon's last grid point
        # is both x and b, and a flat side ties x exactly. That side's first
        # probe is the tied step, and its end stays where no probe rose
        calls = []
        xm, fm, width = _brent_min(lambda x: calls.append(x) or f(x), points,
                                   tuple(f(y) for y in points), width_goal=1e-12, noise=1e-14)
        assert calls and fm == 0.0 and floor[0] <= xm <= floor[1]
        assert floor[1] - floor[0] <= width < points[2] - points[0]

    def test_brent_leaves_a_monotone_bracket_end_in_few_evaluations(self):
        # the last grid sample is the least, so x = b and every golden step
        # from x cuts the far 62 % of the bracket
        calls = []
        f = lambda x: 1.0 - x
        xm, fm, width = _brent_min(lambda x: calls.append(x) or f(x), (0.0, 1.0, 1.0),
                                   (1.0, 0.0, 0.0), width_goal=1e-6)
        assert (xm, fm) == (1.0, 0.0) and width <= 1e-6
        assert len(calls) <= 20

    def test_closed_form_refines_without_states(self):
        # a fixed H under midpoint-exponential keeps its spectrum, not states
        H = gap_hamiltonian()
        traj = evolve(H, PLUS, horizon=4.0)
        assert traj.states is None and traj.spectrum is not None
        res = first_orthogonal(traj)
        assert res.triggered
        assert res.time == pytest.approx(math.pi, abs=1e-7)

    def test_no_spurious_event_at_time_zero(self):
        H = symmetric_hamiltonian()
        traj = evolve(H, PLUS, horizon=8.0)
        for res in (first_orthogonal(traj), first_antipodal(traj)):
            if res.triggered:
                assert res.time > 0.0

    def test_refinement_evaluations_per_search(self):
        # every overlap_at_s call is a refinement evaluation: the grid scan
        # reads traj.overlaps; golden section made about 31 per search
        evaluations, searches = [], []
        overlap_at_s = propagate.Trajectory.overlap_at_s
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(propagate.Trajectory, "overlap_at_s",
                       lambda self, s: evaluations.append(s) or overlap_at_s(self, s))
            mp.setattr(events, "_brent_min", recorded(_brent_min, searches))
            run_gue_ensemble(8, range(50))
        assert len(searches) >= 10
        assert len(evaluations) / len(searches) <= 8

    def test_coarse_tolerance_loosens_trigger(self):
        # with tolerance 0.1 the near-miss case does trigger
        p0 = 0.52
        psi0 = StateVector.normalized(np.array([math.sqrt(p0), math.sqrt(1.0 - p0)]))
        H = gap_hamiltonian()
        traj = evolve(H, psi0, horizon=4.0)
        res = first_orthogonal(traj, EventQuery(kind="orthogonal", tolerance=0.1))
        assert res.triggered
        assert res.functional_value <= 0.1


def campaign_events(result):
    return [((rep.provenance, kind), ev) for rep in result.reports for kind, ev in rep.events.items()]


def aligned_grid_events():
    """Horizons that are multiples of pi put a grid point on each exact
    minimum, and the 2pi horizon puts the antipode on its last grid point."""
    found = []
    for name, H in (("gap", gap_hamiltonian()), ("symmetric", symmetric_hamiltonian())):
        for horizon in (2.0 * math.pi, 4.0 * math.pi):
            traj = evolve(H, PLUS, horizon=horizon)
            for first in (first_orthogonal, first_antipodal):
                found.append(((name, horizon, first.__name__), first(traj)))
    return found


ORACLE_SUITES = {
    "gue-dim2": lambda: campaign_events(run_gue_ensemble(2, range(100))),
    "gue-dim8": lambda: campaign_events(run_gue_ensemble(8, range(50))),
    "analytic": lambda: campaign_events(run_analytic_suite()),
    "analytic-hbar0.7": lambda: campaign_events(run_analytic_suite(IntegratorConfig(hbar=0.7))),
    "qac-chain3": lambda: campaign_events(run_qac(CHAIN3, T_values=(1, 4, 16))),
    "qac-chain6": lambda: campaign_events(run_qac(CHAIN6, T_values=(1, 4, 16))),
    "gue-dim32-long": lambda: campaign_events(run_gue_ensemble(32, range(8), horizon_mult=32)),
    "aligned-grid": aligned_grid_events,
}


@pytest.mark.parametrize("suite", ORACLE_SUITES)
def test_brent_against_golden_oracle(suite):
    """Same trigger flags as golden section; every triggered time within the
    oracle's bracket width of the oracle's time; no search wider than the
    oracle's widest on the suite."""
    widths, oracle_widths = [], []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(events, "_brent_min", recorded(_brent_min, widths))
        got = ORACLE_SUITES[suite]()
        mp.setattr(events, "_brent_min", recorded(
            lambda f, points, values, *rest: golden_oracle(f, points[0], points[2], *rest),
            oracle_widths))
        want = ORACLE_SUITES[suite]()
    assert len(widths) == len(oracle_widths)
    assert max(widths, default=0.0) <= max(oracle_widths, default=0.0)
    for (where, event), (_, expected) in zip(got, want, strict=True):
        assert event.triggered == expected.triggered, where
        if expected.triggered:
            assert abs(event.time - expected.time) <= expected.bracket_width, where
