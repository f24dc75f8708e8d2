import functools
import itertools
import json
import math
import operator

import numpy as np
import pytest
from scipy.integrate import quad

from qspeedlim.algebra import DIM_CAP, StateVector, expectation, inner_product
from qspeedlim.hamiltonians import (
    InterpolatedHamiltonian,
    IsingInstance,
    ising_problem,
    load_ising_instance,
    random_hermitian,
    shift_ground_to_zero,
    transverse_initial,
)
from qspeedlim.schedules import Schedule


def brute_force_ising_diagonal(inst):
    """Independent oracle: enumerate all bit configurations and evaluate the
    classical cost directly. Qubit q is the q-th bit from the left; bit 0
    means spin +1."""
    energies = []
    for bits in itertools.product((0, 1), repeat=inst.n):
        spins = [1 - 2 * b for b in bits]
        e = sum(J * spins[i] * spins[j] for i, j, J in inst.couplings)
        e += sum(h * spins[i] for i, h in inst.fields)
        energies.append(e)
    return np.array(energies, dtype=float)


class TestTransverseInitial:
    def test_single_qubit_matrix(self):
        H = transverse_initial(1)
        want = np.array([[0.5, -0.5], [-0.5, 0.5]])
        np.testing.assert_allclose(H.entries, want, atol=1e-15)

    def test_two_qubit_spectrum_oracle(self):
        # independent diagonalization oracle gave eigenvalues {0, 1, 1, 2}
        w = np.linalg.eigvalsh(transverse_initial(2).entries)
        np.testing.assert_allclose(w, [0.0, 1.0, 1.0, 2.0], atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_spectrum_is_integer_ladder(self, n):
        w = np.linalg.eigvalsh(transverse_initial(n).entries)
        counts = [math.comb(n, k) for k in range(n + 1)]
        want = np.repeat(np.arange(n + 1, dtype=float), counts)
        np.testing.assert_allclose(w, want, atol=1e-10)

    @pytest.mark.parametrize("n", [1, 2, 4, 7])
    def test_uniform_superposition_is_zero_energy_ground_state(self, n):
        H = transverse_initial(n)
        ground = StateVector.uniform(2**n)
        assert np.linalg.norm(H.apply(ground)) < 1e-12

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            transverse_initial(13)
        with pytest.raises(ValueError):
            transverse_initial(0)


class TestIsingInstance:
    def test_index_order_enforced(self):
        with pytest.raises(ValueError):
            IsingInstance(n=3, couplings=((1, 1, 0.5),))
        with pytest.raises(ValueError):
            IsingInstance(n=3, couplings=((2, 1, 0.5),))
        with pytest.raises(ValueError):
            IsingInstance(n=3, couplings=((0, 3, 0.5),))

    def test_duplicate_pair_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            IsingInstance(n=3, couplings=((0, 1, 0.5), (0, 1, -0.5)))

    def test_field_index_range(self):
        with pytest.raises(ValueError):
            IsingInstance(n=2, fields=((2, 1.0),))

    def test_round_trip(self):
        inst = IsingInstance(n=3, couplings=((0, 1, 1.0), (1, 2, -0.5)), fields=((0, 0.25),))
        back = IsingInstance.from_dict(json.loads(json.dumps(inst.to_dict())))
        assert back == inst

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({"n": 2, "couplings": [[0, 1, 1.0]], "fields": []}))
        inst = load_ising_instance(path)
        assert inst.n == 2 and inst.couplings == ((0, 1, 1.0),)

    @pytest.mark.parametrize("data, field", [
        ("inst.json", "object"),
        ({"n": "2"}, "'n'"),
        ({"n": 2, "couplings": 5}, "couplings"),
        ({"n": 2, "couplings": [[0, 1]]}, "couplings"),
        ({"n": 2, "fields": [[0.7, 1.0]]}, "fields"),
        ({"n": 2, "fields": [[0, None]]}, "fields"),
    ], ids=["string", "string-n", "scalar-couplings", "short-row", "float-index", "null-value"])
    def test_mistyped_dict_rejected(self, data, field):
        with pytest.raises(ValueError, match=field):
            IsingInstance.from_dict(data)

    @pytest.mark.parametrize("kwargs, field", [
        ({"fields": ((0.7, 1.0),)}, "fields"),
        ({"couplings": ((0.2, 1.9, -1.0),)}, "couplings"),
        ({"fields": ((True, 1.0),)}, "fields"),
        ({"n": 2.0}, "'n'"),
    ], ids=["float-field-index", "float-coupling-indices", "bool-index", "float-n"])
    def test_non_integral_indices_rejected_at_construction(self, kwargs, field):
        # int() would silently turn 0.7 into qubit 0 and (0.2, 1.9) into (0, 1)
        with pytest.raises(ValueError, match=field):
            IsingInstance(**{"n": 2, **kwargs})

    def test_huge_qubit_count_rejected_without_building_it(self):
        with pytest.raises(ValueError, match="cap"):
            IsingInstance(n=10**12)

    def test_load_reports_position_on_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"n": 2\n "couplings": []}')
        with pytest.raises(ValueError, match=r":2:\d+"):
            load_ising_instance(path)


class TestIsingProblem:
    def test_single_qubit_field(self):
        H = ising_problem(IsingInstance(n=1, fields=((0, 1.0),)))
        np.testing.assert_allclose(H.entries, np.diag([1.0, -1.0]), atol=0)

    def test_two_qubit_coupling(self):
        H = ising_problem(IsingInstance(n=2, couplings=((0, 1, 1.0),)))
        np.testing.assert_allclose(H.entries, np.diag([1.0, -1.0, -1.0, 1.0]), atol=0)

    def test_diagonal_exactly(self):
        inst = IsingInstance(n=3, couplings=((0, 2, 0.7),), fields=((1, -0.3),))
        H = ising_problem(inst).entries
        assert np.all(H == np.diag(np.diag(H)))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_instance_matches_enumeration_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = 6
        pairs = list(itertools.combinations(range(n), 2))
        chosen = [pairs[k] for k in rng.choice(len(pairs), size=8, replace=False)]
        couplings = tuple((i, j, float(rng.normal())) for i, j in chosen)
        fields = tuple((i, float(rng.normal())) for i in range(n))
        inst = IsingInstance(n=n, couplings=couplings, fields=fields)
        got = np.real(np.diag(ising_problem(inst).entries))
        np.testing.assert_allclose(got, brute_force_ising_diagonal(inst), atol=1e-12)

    def test_qubit_zero_is_leftmost_factor(self):
        # field on qubit 0 of two: energies follow the first bit only
        H = ising_problem(IsingInstance(n=2, fields=((0, 1.0),)))
        np.testing.assert_allclose(np.real(np.diag(H.entries)), [1.0, 1.0, -1.0, -1.0], atol=0)


class TestShiftGroundToZero:
    def test_diagonal_example(self):
        H = ising_problem(IsingInstance(n=1, fields=((0, 2.0),)))
        shifted = shift_ground_to_zero(H)
        np.testing.assert_allclose(shifted.entries, np.diag([4.0, 0.0]), atol=1e-14)

    @pytest.mark.parametrize("seed", range(5))
    def test_spectrum_translated_not_deformed(self, seed):
        H = random_hermitian(8, seed)
        shifted = shift_ground_to_zero(H)
        w0 = np.linalg.eigvalsh(H.entries)
        w1 = np.linalg.eigvalsh(shifted.entries)
        assert abs(w1[0]) < 1e-10
        np.testing.assert_allclose(np.diff(w1), np.diff(w0), atol=1e-10)

    def test_idempotent(self):
        H = shift_ground_to_zero(random_hermitian(4, 3))
        again = shift_ground_to_zero(H)
        np.testing.assert_allclose(again.entries, H.entries, atol=1e-12)


class TestRandomHermitian:
    def test_dimension_range_checked_before_drawing(self):
        for dim in (1, DIM_CAP + 1):
            with pytest.raises(ValueError, match="dimension"):
                random_hermitian(dim, 0)

    def test_deterministic_in_seed(self):
        a = random_hermitian(6, 42).entries
        b = random_hermitian(6, 42).entries
        assert np.array_equal(a, b)
        c = random_hermitian(6, 43).entries
        assert not np.array_equal(a, c)

    def test_entry_statistics(self):
        # GUE normalization: Var(diag) = 1/2, Var(Re offdiag) = 1/4;
        # check sample means over 1000 seeds stay within three standard errors
        diag, offr, offi = [], [], []
        for seed in range(1000):
            A = random_hermitian(4, seed).entries
            diag.append(A[0, 0].real)
            offr.append(A[0, 1].real)
            offi.append(A[0, 1].imag)
        se_diag = math.sqrt(0.5 / 1000)
        se_off = math.sqrt(0.25 / 1000)
        assert abs(np.mean(diag)) < 3 * se_diag
        assert abs(np.mean(offr)) < 3 * se_off
        assert abs(np.mean(offi)) < 3 * se_off
        assert np.var(diag) == pytest.approx(0.5, rel=0.2)
        assert np.var(offr) == pytest.approx(0.25, rel=0.2)


SCHEDULES = [Schedule.linear(), Schedule.polynomial(0.1), Schedule.polynomial(2.5),
             Schedule.tabulated([[0.0, 1.0, 0.0], [0.37, 0.5, 0.2], [1.0, 0.0, 1.0]])]
SCHEDULE_IDS = ["linear", "poly0.1", "poly2.5", "tabulated"]
# the inputs the integrator passes: a time, the step grid and its rk4 stages
GRID = np.linspace(0.0, 8.0, 9)
TIMES = [2.9, GRID, GRID[:-1, None] + np.array([0.0, 0.5, 1.0])]
TIMES_IDS = ["scalar", "grid", "rk4-stages"]


def term_sums(terms, shape):
    """sum of weight * operator.entries at every index of the times' shape,
    the weighted terms added in place from the first, as H(t) is assembled."""
    return {idx: functools.reduce(operator.iadd, (np.asarray(w)[idx] * op.entries
                                                  for w, op in terms))
            for idx in np.ndindex(shape)}


class TestInterpolatedHamiltonian:
    def setup_method(self):
        self.initial = transverse_initial(2)
        self.problem = ising_problem(IsingInstance(n=2, couplings=((0, 1, 1.0),)))

    def make(self, schedule=None, T=10.0):
        return InterpolatedHamiltonian(
            initial=self.initial,
            problem=self.problem,
            schedule=schedule or Schedule.linear(),
            total_time=T,
        )

    def test_endpoints(self):
        ih = self.make()
        np.testing.assert_allclose(ih.matrix(0.0), self.initial.entries, atol=0)
        np.testing.assert_allclose(ih.matrix(10.0), self.problem.entries, atol=0)

    def test_linear_midpoint_is_average(self):
        ih = self.make()
        want = (self.initial.entries + self.problem.entries) / 2.0
        np.testing.assert_allclose(ih.matrix(5.0), want, atol=1e-15)

    def test_evaluate_hermitian_at_random_times(self):
        ih = self.make(schedule=Schedule.polynomial(2))
        rng = np.random.default_rng(7)
        for t in rng.uniform(0.0, 10.0, size=100):
            M = ih.matrix(float(t))
            assert np.max(np.abs(M - M.conj().T)) <= 1e-12

    def test_time_outside_range_rejected(self):
        ih = self.make()
        with pytest.raises(ValueError):
            ih.matrix(-0.5)
        with pytest.raises(ValueError):
            ih.matrix(10.5)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            InterpolatedHamiltonian(
                initial=transverse_initial(1),
                problem=self.problem,
                schedule=Schedule.linear(),
                total_time=1.0,
            )

    def test_nonpositive_total_time_rejected(self):
        with pytest.raises(ValueError):
            self.make(T=0.0)

    @pytest.mark.parametrize("T", [math.inf, math.nan, "4", True])
    def test_nonfinite_or_nonreal_total_time_rejected(self, T):
        # an infinite T once passed and reported a false survival violation
        with pytest.raises(ValueError, match="total_time"):
            self.make(T=T)

    @pytest.mark.parametrize("schedule", SCHEDULES, ids=SCHEDULE_IDS)
    def test_step_terms_are_quadrature_means(self, schedule):
        # the steps include the first, where tau^0.1 is steepest, and one
        # across the knot at tau = 0.37
        ih = self.make(schedule=schedule, T=8.0)
        t0 = np.array([0.0, 0.004, 2.9, 2.95, 5.0, 7.99])
        t1 = np.array([0.004, 0.5, 2.95, 3.0, 7.0, 8.0])
        (wf, initial), (wg, problem) = ih.step_terms(t0, t1)
        assert initial is self.initial and problem is self.problem
        for k, (a, b) in enumerate(zip(t0 / 8.0, t1 / 8.0)):
            for env, w in ((schedule.f, wf), (schedule.g, wg)):
                mean = quad(env, a, b, points=[0.37] if a < 0.37 < b else None,
                            epsabs=1e-14, limit=200)[0] / (b - a)
                assert w[k] == pytest.approx(mean, abs=1e-10)

    def test_step_too_short_to_move_u_has_weight_zero(self):
        # 11 and the next float are 1.8e-15 apart, past the 1e-15 an off-grid
        # step needs, yet divide by T = 19.2 to the same u: no 0/0 weight
        ih = self.make(T=19.2)
        t0 = np.array([11.0])
        t1 = np.nextafter(t0, 12.0)
        assert t0[0] / 19.2 == t1[0] / 19.2
        for weight, _ in ih.step_terms(t0, t1):
            assert weight.tolist() == [0.0]

    @pytest.mark.parametrize("s", TIMES, ids=TIMES_IDS)
    @pytest.mark.parametrize("schedule", SCHEDULES, ids=SCHEDULE_IDS)
    def test_terms_sum_to_matrix(self, schedule, s):
        # matrix(t), one time at a time, is the oracle of the weighted terms,
        # held to the bit for every time shape
        ih = self.make(schedule=schedule, T=8.0)
        terms = ih.terms(s)
        assert [op for _, op in terms] == [self.initial, self.problem]
        assert [np.shape(w) for w, _ in terms] == [np.shape(s)] * 2
        for idx, total in term_sums(terms, np.shape(s)).items():
            want = ih.matrix(float(np.asarray(s)[idx]))
            assert np.array_equal(total, want)
        assert [np.shape(w) for w, _ in ih.step_terms(s, s + 0.25 * (8.0 - s))] == [np.shape(s)] * 2

    @pytest.mark.parametrize("s", TIMES, ids=TIMES_IDS)
    def test_fixed_operator_is_one_term_of_weight_one(self, s):
        H = random_hermitian(4, 2)
        for terms in (H.terms(s), H.step_terms(s, s + 0.25)):
            assert [op for _, op in terms] == [H]
            assert [np.shape(w) for w, _ in terms] == [np.shape(s)]
            for total in term_sums(terms, np.shape(s)).values():
                assert np.array_equal(total, H.entries)

    def test_in_s_scales_only_the_interpolation_time(self):
        H = random_hermitian(4, 2)
        assert H.in_s(0.37) is H
        ih = self.make(T=8.0)
        scaled = ih.in_s(0.5)
        assert scaled.total_time == 16.0
        assert (scaled.initial, scaled.problem, scaled.schedule) == (
            ih.initial, ih.problem, ih.schedule)
        with pytest.raises(ValueError, match="T / hbar = 8 / 1e-308 is not finite"):
            ih.in_s(1e-308)

    def test_problem_moments_in_transverse_ground_state(self):
        # moments of the problem term in the initial ground state drive the
        # annealing bounds; for sz_0 sz_1 in the uniform state both the mean
        # and the square average are directly enumerable
        ground = StateVector.uniform(4)
        mean = expectation(self.problem, ground)
        assert mean == pytest.approx(0.0, abs=1e-14)
        second = expectation(
            type(self.problem)(self.problem.entries @ self.problem.entries), ground
        )
        assert second == pytest.approx(1.0, abs=1e-14)

    def test_initial_annihilates_its_ground_state(self):
        ih = self.make()
        ground = StateVector.uniform(ih.dim)
        assert np.linalg.norm(ih.initial.apply(ground)) < 1e-12
        overlap = inner_product(ground, ground)
        assert overlap == pytest.approx(1.0)
