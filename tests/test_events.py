import logging
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qspeedlim.algebra import HermitianOperator, StateVector, random_state
from qspeedlim.bounds import char_times_ti, state_moments
from qspeedlim.events import (
    EventQuery,
    EventResult,
    _INVPHI,
    _golden_min,
    first_antipodal,
    first_orthogonal,
)
from qspeedlim.hamiltonians import random_hermitian
from qspeedlim.propagate import BetaPolicy, IntegratorConfig, evolve

PLUS = StateVector.normalized(np.array([1.0, 1.0]))


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

    def test_kind_mismatch_rejected(self):
        H = gap_hamiltonian()
        traj = evolve(H, PLUS, horizon=4.0)
        with pytest.raises(ValueError, match="kind"):
            first_orthogonal(traj, EventQuery(kind="antipodal"))

    def test_golden_section_reaches_width_goal(self):
        calls = []
        f = lambda x: calls.append(x) or (x - 1.3) ** 2
        xm, fm, width = _golden_min(f, 0.0, 2.0, width_goal=1e-6)
        assert width <= 1e-6
        assert abs(xm - 1.3) <= width
        # two interior points, then one evaluation per golden step
        assert width == pytest.approx(2.0 * _INVPHI ** (len(calls) - 2))
        assert xm in calls and fm == (xm - 1.3) ** 2

    def test_golden_section_width_stops_at_round_off(self):
        # a flat quadratic whose values differ by less than the noise near
        # the minimum: the search goes on to the goal, the width stays where
        # round-off took over
        calls = []
        f = lambda x: calls.append(x) or 1e-3 * (x - 1.3) ** 2
        xm, _, width = _golden_min(f, 0.0, 2.0, width_goal=1e-12, noise=1e-14)
        assert width > 1e-9
        assert abs(xm - 1.3) <= width
        assert max(calls[-2:]) - min(calls[-2:]) < 1e-11 < width

    def test_golden_section_respects_iteration_cap(self):
        # an unreachable goal stops at the guard: two interior points, then
        # one evaluation per step
        calls = []
        f = lambda x: calls.append(x) or abs(x - 0.5)
        _, _, width = _golden_min(f, 0.0, 1.0, width_goal=0.0)
        assert len(calls) == 2 + 60
        assert width == pytest.approx(_INVPHI ** 60)

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

    def test_coarse_tolerance_loosens_trigger(self):
        # with tolerance 0.1 the near-miss case does trigger
        p0 = 0.52
        psi0 = StateVector.normalized(np.array([math.sqrt(p0), math.sqrt(1.0 - p0)]))
        H = gap_hamiltonian()
        traj = evolve(H, psi0, horizon=4.0)
        res = first_orthogonal(traj, EventQuery(kind="orthogonal", tolerance=0.1))
        assert res.triggered
        assert res.functional_value <= 0.1
