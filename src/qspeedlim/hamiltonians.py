"""Hamiltonian builders: transverse-field starters, diagonal Ising problems,
random Gaussian-ensemble draws, and schedule-interpolated combinations
f(t/T) H_I + g(t/T) H_P of exactly two terms, which speak a fixed
HermitianOperator's term protocol: terms(t) assembles H(t) from the schedule
envelopes, step_terms(t0, t1) gives every integrator step's exact envelope
means, and in_s(hbar) divides T by hbar."""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, replace
from numbers import Integral

import numpy as np

from .algebra import DIM_CAP, HermitianOperator, from_json, is_number, read_json
from .schedules import Schedule, schedule_integral


def _check_qubit_count(n: int) -> int:
    if n < 1:
        raise ValueError(f"need at least one qubit, got n = {n}")
    if n >= DIM_CAP.bit_length():  # 2**n > DIM_CAP, without building 2**n
        raise ValueError(f"2**{n} exceeds the dimension cap {DIM_CAP}")
    return 2**n


def transverse_initial(n: int) -> HermitianOperator:
    """sum_i (1 - sigma_x^i) / 2 on n qubits.

    Spectrum is {0, 1, ..., n}; the unique ground state is the uniform
    superposition over computational basis states, at energy zero.
    """
    dim = _check_qubit_count(n)
    H = np.zeros((dim, dim), dtype=complex)
    idx = np.arange(dim)
    H[idx, idx] = n / 2.0
    for q in range(n):  # -sigma_x^q / 2 couples each basis state to its flip of bit q
        H[idx, idx ^ (1 << q)] = -0.5
    return HermitianOperator(H)


def _spin_table(n: int) -> np.ndarray:
    # Row q holds sigma_z^q eigenvalues over the computational basis;
    # qubit 0 is the leftmost tensor factor, bit 0 maps to spin +1.
    idx = np.arange(2**n)
    table = np.empty((n, 2**n))
    for q in range(n):
        bits = (idx >> (n - 1 - q)) & 1
        table[q] = 1.0 - 2.0 * bits
    return table


@dataclass(frozen=True)
class IsingInstance:
    """A classical Ising cost function: couplings J_ij and local fields h_i."""

    n: int
    couplings: tuple = ()
    fields: tuple = ()

    def __post_init__(self):
        if not is_number(self.n, Integral):
            raise ValueError(f"Ising instance needs an integer 'n', got {self.n!r}")
        _check_qubit_count(self.n)
        object.__setattr__(self, "couplings", _rows("couplings", self.couplings, 2))
        object.__setattr__(self, "fields", _rows("fields", self.fields, 1))
        seen = set()
        for i, j, _ in self.couplings:
            if not 0 <= i < j < self.n:
                raise ValueError(f"coupling indices must satisfy 0 <= i < j < n, got ({i}, {j})")
            if (i, j) in seen:
                raise ValueError(f"duplicate coupling pair ({i}, {j})")
            seen.add((i, j))
        for i, _ in self.fields:
            if not 0 <= i < self.n:
                raise ValueError(f"field index {i} out of range for n = {self.n}")

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "couplings": [list(c) for c in self.couplings],
            "fields": [list(f) for f in self.fields],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "IsingInstance":
        return from_json(cls, data, "Ising instance fields")


def _rows(name: str, rows, indices: int) -> tuple:
    """Instance rows (index, ..., value): `indices` integers, then a number."""
    if not (isinstance(rows, (list, tuple)) and all(
            isinstance(row, (list, tuple)) and len(row) == indices + 1
            and all(is_number(i, Integral) for i in row[:-1]) and is_number(row[-1])
            for row in rows)):
        raise ValueError(f"instance {name!r} must be a list of rows of {indices} integer "
                         f"indices and a number, got {rows!r}")
    return tuple((*map(int, row[:-1]), float(row[-1])) for row in rows)


def ising_problem(inst: IsingInstance) -> HermitianOperator:
    """Diagonal operator sum_ij J_ij sz_i sz_j + sum_i h_i sz_i."""
    spins = _spin_table(inst.n)
    diag = np.zeros(2**inst.n)
    with np.errstate(over="ignore", invalid="ignore"):  # a sum past the float range is caught below
        for i, j, J in inst.couplings:
            diag += J * spins[i] * spins[j]
        for i, h in inst.fields:
            diag += h * spins[i]
    if not np.isfinite(diag).all():
        raise ValueError(f"Ising instance {inst.to_dict()} has an energy that is not finite "
                         f"(at basis state {np.flatnonzero(~np.isfinite(diag))[0]})")
    return HermitianOperator(np.diag(diag.astype(complex)))


def load_ising_instance(path) -> IsingInstance:
    return IsingInstance.from_dict(read_json(path))


def noninteracting_pair(h1: HermitianOperator, h2: HermitianOperator) -> HermitianOperator:
    """Composite h1 (x) 1 + 1 (x) h2 of two uncoupled subsystems."""
    d1, d2 = h1.dim, h2.dim
    if d1 * d2 > DIM_CAP:
        raise ValueError(f"composite dimension {d1 * d2} exceeds the cap {DIM_CAP}")
    return HermitianOperator(
        np.kron(h1.entries, np.eye(d2)) + np.kron(np.eye(d1), h2.entries)
    )


def shift_ground_to_zero(op: HermitianOperator) -> HermitianOperator:
    """Subtract the lowest eigenvalue times identity."""
    lowest = float(np.linalg.eigvalsh(op.entries)[0])
    return HermitianOperator(op.entries - lowest * np.eye(op.dim))


def random_hermitian(dim: int, seed: int) -> HermitianOperator:
    """Gaussian unitary ensemble draw: (M + M^dag) / 2 with standard
    complex normal entries, deterministic in the seed."""
    if not 2 <= dim <= DIM_CAP:
        raise ValueError(f"dimension must be in [2, {DIM_CAP}], got {dim}")
    if isinstance(seed, Integral) and seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    rng = np.random.default_rng(seed)
    M = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    return HermitianOperator((M + M.conj().T) / 2.0)


@dataclass(frozen=True, eq=False)
class InterpolatedHamiltonian:
    """H(t) = f(t/T) * initial + g(t/T) * problem."""

    initial: HermitianOperator
    problem: HermitianOperator
    schedule: Schedule
    total_time: float

    def __post_init__(self):
        if self.initial.dim != self.problem.dim:
            raise ValueError(
                f"operator dimensions differ: {self.initial.dim} vs {self.problem.dim}"
            )
        if not (is_number(self.total_time) and 0 < self.total_time < math.inf):
            raise ValueError(f"total_time must be positive and finite, got {self.total_time!r}")

    @property
    def dim(self) -> int:
        return self.initial.dim

    def terms(self, t) -> list:
        """(envelope, operator) pairs with H(t) = sum of envelope * operator at t/T
        clamped to [0, 1]; t is a time or an array of times, each envelope has
        its shape. Callers add the weighted terms in place, from the first."""
        tau = np.clip(t / self.total_time, 0.0, 1.0)
        return [(self.schedule.f(tau), self.initial), (self.schedule.g(tau), self.problem)]

    def step_terms(self, t0, t1) -> list:
        """(weight, operator) pairs of the Hamiltonian each step [t0, t1]
        applies, one weight per step for arrays t0 < t1 in [0, T]. The weights
        of f and g are their exact means over the step, (F(u1) - F(u0)) /
        (u1 - u0) with u = t/T and F from schedule_integral, so the step's
        exponential is the first Magnus term of H(t) = f H_I + g H_P."""
        u0, u1 = (np.clip(t / self.total_time, 0.0, 1.0) for t in (t0, t1))
        # a step too short to move u has weight 0: its whole phase is below rounding
        du = np.where(u1 > u0, u1 - u0, 1.0)
        return [((schedule_integral(self.schedule, u1, env)
                  - schedule_integral(self.schedule, u0, env)) / du, op)
                for env, op in (("f", self.initial), ("g", self.problem))]

    def in_s(self, hbar) -> "InterpolatedHamiltonian":
        """H with time in s = t/hbar: the interpolation time T becomes T/hbar."""
        total_time = self.total_time / hbar
        if not total_time < math.inf:
            raise ValueError(f"interpolation time T / hbar = {self.total_time:g} / {hbar:g} is "
                             "not finite; use other time units")
        return replace(self, total_time=total_time)

    def matrix(self, t: float) -> np.ndarray:
        """H(t) as a raw ndarray, for t in [0, T]."""
        if t < -1e-12 * self.total_time or t > self.total_time * (1 + 1e-12):
            raise ValueError(f"t = {t} outside [0, {self.total_time}]")
        return functools.reduce(operator.iadd, (e * op.entries for e, op in self.terms(t)))
