import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qspeedlim.algebra import (
    HermitianOperator,
    StateVector,
    distance,
    expectation,
    inner_product,
    random_state,
    residual_norm,
    tensor,
    variance_sqrt,
)

SQRT2 = np.sqrt(2.0)


def triple_sum_expectation(mat, vec):
    """Brute-force sum_ij conj(s_i) M_ij s_j, independent of the library path."""
    total = 0.0 + 0.0j
    for i in range(len(vec)):
        for j in range(len(vec)):
            total += np.conj(vec[i]) * mat[i, j] * vec[j]
    return total


def spectral_moments(mat, vec):
    """Moments from the eigenbasis: weights |<e_k|s>|^2 against eigenvalues."""
    w, v = np.linalg.eigh(mat)
    weights = np.abs(v.conj().T @ vec) ** 2
    energy = float(np.sum(weights * w))
    second = float(np.sum(weights * w**2))
    return energy, np.sqrt(max(second - energy**2, 0.0))


def random_hermitian_matrix(rng, dim):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (m + m.conj().T) / 2


def plus_state():
    return StateVector.normalized([1.0, 1.0])


class TestStateVector:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="not normalized"):
            StateVector(np.array([1.0, 1.0]))

    def test_rejects_dim_one(self):
        with pytest.raises(ValueError, match="at least 2"):
            StateVector(np.array([1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_amplitudes(self, bad):
        with pytest.raises(ValueError, match="not normalized"):
            StateVector(np.array([bad, 0.0]))

    def test_normalized_factory(self):
        s = StateVector.normalized([3.0, 4.0])
        assert np.allclose(s.amplitudes, [0.6, 0.8])

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="zero vector"):
            StateVector.normalized([0.0, 0.0])

    def test_amplitudes_read_only(self):
        s = plus_state()
        with pytest.raises(ValueError):
            s.amplitudes[0] = 0.0


class TestHermitianOperator:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            HermitianOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_entries(self, bad):
        with pytest.raises(ValueError, match="finite"):
            HermitianOperator(np.array([[bad, 0.0], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="finite"):
            HermitianOperator(np.array([[0.0, bad], [bad, 1.0]]))

    def test_messages_past_one_block_of_rows(self):
        # at dimension 150 the checks take several blocks of rows: the defect
        # is still the whole matrix's max, and a non-finite entry in the last
        # block is reported before a defect in the first
        def message(mat):
            with pytest.raises(ValueError) as err:
                HermitianOperator(mat)
            return str(err.value)

        rng = np.random.default_rng(5)
        mat = rng.normal(size=(150, 150)) + 1j * rng.normal(size=(150, 150))
        defect = np.max(np.abs(mat - mat.conj().T))
        assert message(mat) == f"matrix is not Hermitian: max |A - A^dag| = {defect:g}"
        mat = np.zeros((150, 150))
        mat[140, 3] = 0.25
        assert message(mat) == "matrix is not Hermitian: max |A - A^dag| = 0.25"
        mat[0, 1], mat[149, 149] = 1.0, np.nan
        assert message(mat) == "operator entries must be finite"

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            HermitianOperator(np.zeros((2, 3)))

    def test_tolerates_tiny_defect(self):
        mat = np.array([[0.0, 1.0], [1.0 + 1e-14j, 0.0]])
        HermitianOperator(mat)  # within the 1e-12 hermiticity tolerance


class TestInnerProduct:
    def test_self_overlap_is_one(self):
        s = StateVector.normalized([1.0, 2.0j, -0.5])
        assert inner_product(s, s) == pytest.approx(1.0 + 0.0j, abs=1e-12)

    def test_orthonormal_basis(self):
        e0 = StateVector.basis(3, 0)
        e1 = StateVector.basis(3, 1)
        assert inner_product(e0, e1) == 0.0

    def test_hand_expansion(self):
        a = StateVector.normalized([1.0, 1.0j])
        b = StateVector.normalized([1.0, 1.0])
        assert inner_product(a, b) == pytest.approx((1.0 - 1.0j) / 2, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            inner_product(StateVector.basis(2, 0), StateVector.basis(3, 0))


class TestDistance:
    def test_identical_states(self):
        # sqrt(2 - 2 Re<s|s>) amplifies eps-level normalization round-off
        # to sqrt(eps), so zero is only reached at the 1e-8 scale
        s = plus_state()
        assert distance(s, s) == pytest.approx(0.0, abs=3e-8)

    def test_orthogonal_states(self):
        assert distance(StateVector.basis(2, 0), StateVector.basis(2, 1)) == pytest.approx(SQRT2)

    def test_antipodal_states(self):
        s = plus_state()
        minus_s = StateVector(-s.amplitudes)
        assert distance(s, minus_s) == pytest.approx(2.0)


class TestExpectation:
    def test_eigenstate(self):
        op = HermitianOperator(np.diag([0.3, 1.7]))
        assert expectation(op, StateVector.basis(2, 1)) == pytest.approx(1.7)

    def test_two_level_half(self):
        energy = 2.5
        op = HermitianOperator(np.diag([0.0, energy]))
        assert expectation(op, plus_state()) == pytest.approx(energy / 2)

    def test_against_triple_sum_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            mat = random_hermitian_matrix(rng, 4)
            vec = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            vec /= np.linalg.norm(vec)
            op = HermitianOperator(mat)
            s = StateVector(vec)
            oracle = triple_sum_expectation(mat, vec)
            assert expectation(op, s) == pytest.approx(oracle.real, abs=1e-12)


class TestVarianceSqrt:
    def test_eigenstate_has_zero_spread(self):
        op = HermitianOperator(np.diag([0.0, 5.0]))
        assert variance_sqrt(op, StateVector.basis(2, 0)) == 0.0

    def test_two_level_half(self):
        energy = 2.5
        op = HermitianOperator(np.diag([0.0, energy]))
        assert variance_sqrt(op, plus_state()) == pytest.approx(energy / 2)

    def test_against_spectral_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            mat = random_hermitian_matrix(rng, 8)
            vec = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            vec /= np.linalg.norm(vec)
            _, spread = spectral_moments(mat, vec)
            assert variance_sqrt(HermitianOperator(mat), StateVector(vec)) == pytest.approx(spread, abs=1e-10)

    def test_eigenbasis_oracle_all_small_dims(self):
        rng = np.random.default_rng(11)
        for dim in range(2, 9):
            mat = random_hermitian_matrix(rng, dim)
            vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            vec /= np.linalg.norm(vec)
            energy, spread = spectral_moments(mat, vec)
            op, s = HermitianOperator(mat), StateVector(vec)
            assert expectation(op, s) == pytest.approx(energy, abs=1e-10)
            assert variance_sqrt(op, s) == pytest.approx(spread, abs=1e-10)


class TestResidualNorm:
    def test_shift_at_expectation_gives_spread(self):
        rng = np.random.default_rng(3)
        mat = random_hermitian_matrix(rng, 5)
        vec = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        vec /= np.linalg.norm(vec)
        op, s = HermitianOperator(mat), StateVector(vec)
        assert residual_norm(op, expectation(op, s), s) == pytest.approx(variance_sqrt(op, s), abs=1e-12)

    def test_zero_shift_combines_moments(self):
        rng = np.random.default_rng(5)
        mat = random_hermitian_matrix(rng, 4)
        vec = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        vec /= np.linalg.norm(vec)
        op, s = HermitianOperator(mat), StateVector(vec)
        expected = np.hypot(variance_sqrt(op, s), expectation(op, s))
        assert residual_norm(op, 0.0, s) == pytest.approx(expected, abs=1e-10)

    def test_two_level_hand_value(self):
        op = HermitianOperator(np.diag([0.0, 1.0]))
        assert residual_norm(op, 0.0, plus_state()) == pytest.approx(1 / SQRT2)

    def test_moment_identity(self):
        # residual^2 = spread^2 + (energy - shift)^2 for normalized states
        rng = np.random.default_rng(9)
        for _ in range(25):
            dim = int(rng.integers(2, 9))
            mat = random_hermitian_matrix(rng, dim)
            vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            vec /= np.linalg.norm(vec)
            shift = float(rng.normal())
            op, s = HermitianOperator(mat), StateVector(vec)
            lhs = residual_norm(op, shift, s) ** 2
            rhs = variance_sqrt(op, s) ** 2 + (expectation(op, s) - shift) ** 2
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_minimized_at_expectation(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            dim = int(rng.integers(2, 9))
            mat = random_hermitian_matrix(rng, dim)
            vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            vec /= np.linalg.norm(vec)
            op, s = HermitianOperator(mat), StateVector(vec)
            energy = expectation(op, s)
            delta = float(rng.uniform(0.1, 2.0)) * (1 if rng.random() < 0.5 else -1)
            assert residual_norm(op, energy + delta, s) > residual_norm(op, energy, s)


class TestTensor:
    def test_identity_times_identity(self):
        result = tensor(HermitianOperator.identity(2), HermitianOperator.identity(3))
        assert np.array_equal(result.entries, np.eye(6))

    def test_basis_bookkeeping(self):
        result = tensor(StateVector.basis(2, 0), StateVector.basis(2, 1))
        assert np.array_equal(result.amplitudes, StateVector.basis(4, 1).amplitudes)

    def test_sigma_z_pair_spectrum(self):
        sz = HermitianOperator(np.diag([1.0, -1.0]))
        spectrum = np.linalg.eigvalsh(tensor(sz, sz).entries)
        assert np.allclose(np.sort(spectrum), [-1.0, -1.0, 1.0, 1.0])

    def test_mixed_kinds_rejected(self):
        with pytest.raises(TypeError):
            tensor(StateVector.basis(2, 0), HermitianOperator.identity(2))


@st.composite
def state_pairs(draw):
    dim = draw(st.integers(min_value=2, max_value=6))
    comps = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
    raw_a = [complex(draw(comps), draw(comps)) for _ in range(dim)]
    raw_b = [complex(draw(comps), draw(comps)) for _ in range(dim)]
    for raw in (raw_a, raw_b):
        if np.linalg.norm(raw) < 1e-3:
            raw[0] += 1.0
    return StateVector.normalized(raw_a), StateVector.normalized(raw_b)


@settings(max_examples=200, deadline=None)
@given(state_pairs())
def test_distance_overlap_identity(pair):
    a, b = pair
    lhs = distance(a, b) ** 2 + 2 * inner_product(a, b).real
    assert lhs == pytest.approx(2.0, abs=1e-12)


def test_random_state_deterministic_and_normalized():
    a = random_state(6, 123)
    b = random_state(6, 123)
    assert np.array_equal(a.amplitudes, b.amplitudes)
    assert np.vdot(a.amplitudes, a.amplitudes).real == pytest.approx(1.0, abs=1e-12)
    assert not np.allclose(a.amplitudes, random_state(6, 124).amplitudes)
