"""Complex state and operator algebra on a finite Hilbert space.

States are unit vectors of complex amplitudes, observables are dense
Hermitian matrices. Both are validated at construction and immutable
afterwards, so every operation below is a pure function and safe to share
across threads. Every JSON object the program reads becomes its object through
from_json, so one field rule holds for campaigns, integrators, parameters,
Ising instances and schedules.
"""

from __future__ import annotations

import inspect
import json
import numbers
from dataclasses import dataclass

import numpy as np

# Dense desk-scale algebra only; lift deliberately if you need more.
DIM_CAP = 4096

NORM_TOL = 1e-10
HERMITICITY_TOL = 1e-12
# rows per block of HermitianOperator's checks: 4 MiB per temporary at DIM_CAP
_CHECK_ROWS = 64


def is_number(x, kind=numbers.Real) -> bool:
    """isinstance(x, kind) for a numbers ABC, with bools excluded."""
    return isinstance(x, kind) and not isinstance(x, bool)


def read_json(path):
    """The parsed JSON file; malformed JSON is a ValueError at path:line:col,
    and nesting past the interpreter's recursion limit a ValueError at path."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


def from_json(fn, data, what: str, **fixed):
    """fn(**data, **fixed) for the JSON object data. A non-object, a field fn
    does not take or fixed sets, and a required field data lacks are each a
    ValueError naming what, the plural of its fields ("schedule fields")."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be given as a JSON object, got {data!r}")
    params = inspect.signature(fn).parameters
    unknown = sorted(set(data) - (params.keys() - fixed.keys()))
    if unknown:
        raise ValueError(f"unknown {what}: {unknown}")
    missing = [name for name, p in params.items()
               if p.default is p.empty and name not in data and name not in fixed]
    if missing:
        raise ValueError(f"missing required {what}: {missing}")
    return fn(**data, **fixed)


def _check_same_dim(da: int, db: int) -> None:
    if da != db:
        raise ValueError(f"dimension mismatch: {da} != {db}")


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized pure state as a 1-D complex amplitude vector.

    The constructor rejects anything that is not unit norm within
    ``NORM_TOL``; use :meth:`normalized` to rescale raw amplitudes.
    """

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.ndim != 1:
            raise ValueError("state amplitudes must be one-dimensional")
        if amps.shape[0] < 2:
            raise ValueError("Hilbert-space dimension must be at least 2")
        if amps.shape[0] > DIM_CAP:
            raise ValueError(f"dimension {amps.shape[0]} exceeds cap {DIM_CAP}")
        norm_sq = float(np.vdot(amps, amps).real)
        if not abs(norm_sq - 1.0) <= NORM_TOL:  # NaN or inf amplitudes fail too
            raise ValueError(f"state is not normalized: |psi|^2 = {norm_sq!r}")
        amps = amps.copy()
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def normalized(cls, values) -> "StateVector":
        """Build a state from arbitrary amplitudes, rescaled to unit norm."""
        amps = np.asarray(values, dtype=np.complex128)
        norm = float(np.linalg.norm(amps))
        if norm == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return cls(amps / norm)

    @classmethod
    def basis(cls, dim: int, index: int) -> "StateVector":
        """Computational basis vector |index> of the given dimension."""
        amps = np.zeros(dim, dtype=np.complex128)
        amps[index] = 1.0
        return cls(amps)

    @classmethod
    def uniform(cls, dim: int) -> "StateVector":
        """Uniform superposition over the computational basis."""
        return cls(np.full(dim, 1.0 / np.sqrt(dim), dtype=np.complex128))

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """Dense self-adjoint matrix in energy units."""

    entries: np.ndarray

    def __post_init__(self):
        mat = np.array(self.entries, dtype=np.complex128)  # the one copy, kept
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"operator must be a square matrix, got shape {mat.shape}")
        if mat.shape[0] > DIM_CAP:
            raise ValueError(f"dimension {mat.shape[0]} exceeds cap {DIM_CAP}")
        # each check a block of rows at a time, so no temporary is matrix-sized;
        # a max over the blocks is the max over the matrix
        blocks = [slice(lo, lo + _CHECK_ROWS) for lo in range(0, len(mat), _CHECK_ROWS)]
        if not all(np.isfinite(mat[rows]).all() for rows in blocks):
            raise ValueError("operator entries must be finite")
        defect = max((float(np.max(np.abs(mat[rows] - mat[:, rows].conj().T))) for rows in blocks),
                     default=0.0)
        if defect > HERMITICITY_TOL:
            raise ValueError(f"matrix is not Hermitian: max |A - A^dag| = {defect:g}")
        mat.flags.writeable = False
        object.__setattr__(self, "entries", mat)

    @classmethod
    def identity(cls, dim: int) -> "HermitianOperator":
        return cls(np.eye(dim, dtype=np.complex128))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def apply(self, s: StateVector) -> np.ndarray:
        """Raw matrix-vector product H|s> (not normalized in general)."""
        _check_same_dim(self.dim, s.dim)
        return self.entries @ s.amplitudes

    def terms(self, s) -> list:
        """[(weight 1 in the shape of the times s, self)]: H as its one term."""
        return [(np.ones(np.shape(s)), self)]

    def step_terms(self, s0, s1) -> list:
        """The one term of every step [s0, s1]: weight 1, its exact step mean."""
        return self.terms(s0)

    def in_s(self, hbar) -> "HermitianOperator":
        """self: a fixed H reads no time, so it is the same in s = t/hbar."""
        return self


def inner_product(a: StateVector, b: StateVector) -> complex:
    """<a|b> with conjugation on the first argument."""
    _check_same_dim(a.dim, b.dim)
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def overlap_distance(o):
    """sqrt(2 - 2 Re o) with the square clipped to [0, 4], elementwise: the norm
    distance || |a> - |b> || of two unit vectors whose overlap <a|b> is o."""
    return np.sqrt(np.clip(2.0 - 2.0 * np.real(o), 0.0, 4.0))


def distance(a: StateVector, b: StateVector) -> float:
    """Norm distance || |a> - |b> || = sqrt(2 - 2 Re<a|b>), in [0, 2]."""
    return float(overlap_distance(inner_product(a, b)))


def expectation(op: HermitianOperator, s: StateVector) -> float:
    """Re<s|op|s>; the imaginary residual must sit below 1e-10."""
    val = complex(np.vdot(s.amplitudes, op.apply(s)))
    if abs(val.imag) >= 1e-10:
        raise ValueError(f"expectation has imaginary residual {val.imag:g}")
    return val.real


def variance_sqrt(op: HermitianOperator, s: StateVector) -> float:
    """Spread sqrt(<op^2> - <op>^2); negative round-off clamped to zero.

    Uses <s|op^2|s> = ||op|s>||^2, valid because op is self-adjoint.
    """
    y = op.apply(s)
    second = float(np.vdot(y, y).real)
    first = float(np.vdot(s.amplitudes, y).real)
    return float(np.sqrt(max(second - first * first, 0.0)))


def residual_norm(op: HermitianOperator, shift: float, s: StateVector) -> float:
    """||(op - shift * identity)|s>||.

    For normalized s this equals sqrt(spread^2 + (<op> - shift)^2), and is
    minimized over the shift at shift = <op>.
    """
    y = op.apply(s) - shift * s.amplitudes
    return float(np.linalg.norm(y))


def tensor(a, b):
    """Kronecker product of two states or two operators (same kind)."""
    if isinstance(a, StateVector) and isinstance(b, StateVector):
        return StateVector(np.kron(a.amplitudes, b.amplitudes))
    if isinstance(a, HermitianOperator) and isinstance(b, HermitianOperator):
        return HermitianOperator(np.kron(a.entries, b.entries))
    raise TypeError(f"tensor needs two states or two operators, got {type(a).__name__} and {type(b).__name__}")


def random_state(dim: int, seed) -> StateVector:
    """Haar-distributed random state: normalized complex Gaussian vector."""
    if not 2 <= dim <= DIM_CAP:
        raise ValueError(f"dimension must be in [2, {DIM_CAP}], got {dim}")
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return StateVector.normalized(amps)
