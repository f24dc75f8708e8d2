"""Schrodinger-equation integration with full observable recording.

The numerics run in s = t/hbar, where i*hbar d|psi>/dt = H(t)|psi> reads
i d|psi>/ds = H|psi>. At every step boundary they record the overlap with the
start state, the survival probability, and for each reference-phase policy
beta the distance d = sqrt(2 - 2 Re(exp(-i int_0^s beta) <psi|phi0>)) (the map
is algebra.overlap_distance) and the right-hand-side integral

    int_0^t ||(H(tau) - beta(tau)) |phi0>|| dtau = hbar int_0^s ||(H - beta) |phi0>|| ds,

so the relation hbar d <= rhs reads d <= int_0^s ||(H - beta) |phi0>|| ds.
evolve is the one unit boundary: it divides the horizon and an interpolation
time T by hbar, a normal float, and needs ds = dt/hbar finite and normal and
T/hbar finite.
Grid times, rhs integrals, event times and error times leave multiplied by
hbar. Nothing between reads hbar, so a run at (lambda t, lambda hbar) walks
the s grid of the run at (t, hbar).

Both integrals are trapezoid sums on the step grid; the reference state enters
only through the scalar phase above. Under a fixed H every beta is constant,
so the integrand is one norm per policy, broadcast over the grid.

A fixed H = V diag(w) V^dagger under midpoint-exponential is solved in closed
form from one eigh: with c = V^dagger phi0, <psi(s)|phi0> = sum_j |c_j|^2
exp(+i w_j s), and the trajectory keeps (w, V, c) instead of states. On the
grid s_k = (aK + b) ds, K = ceil(sqrt(steps + 1)), the phase is a coarse
factor at s_aK times a fine one at s_b, so the grid's overlaps and norms are
products of two phase tables of about K rows each. An interpolated H(t), and
every rk4 run, walk the step grid. A Trajectory carries the H it ran under, so
Trajectory.overlap_at(t) gives the overlap off the grid with no other input:
the spectral sum, or one step from a grid state by a kernel built once per
trajectory; every step loop keeps its (steps + 1) x d grid states for this.

H becomes a step in one place, a _TaylorKernel built once per run. It stacks
the operators as flat rows, float64 when every term is real (as
transverse_initial, ising_problem and shift_ground_to_zero always are), and
assembles each step's d x d matrix in place from one weight row, so no step
samples the schedule or allocates a d x d array. A midpoint-exponential step
[s0, s1] applies exp(-i H_k (s1 - s0)), with H_k the exact means of f and g
over the step (the first Magnus term; Blanes, Casas, Oteo & Ros, Phys. Rep.
470, 151 (2009)) from one InterpolatedHamiltonian.step_terms table per run,
as the Taylor series (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488 (2011))
of the smallest degree m whose theta_m covers rho = (s1 - s0) * sum |weight|
||operator||_1 >= ||exponent||_2; theta_m bounds the tail beyond degree m by
unit round-off, so the step is exact to round-off. A step past theta_20
(about 1.46) is one eigh, so a step costs at most 20 products or one eigh at
any ds; annealing runs at the default 2000 steps take 5 to 8. Each rk4 stage
takes H(s) from one InterpolatedHamiltonian.terms table per run. A real
matrix multiplies each complex state as a (d, 2) float block.

evolve runs with numpy's overflow and invalid warnings off: a check reports
every inf or NaN, where it becomes certain. Each policy's phase factor and
integrand read only the grid, beta and H(s) phi0, so they are checked before
any step; then the step bounds, the largest phase and each state's norm.

CSV artifacts come from write_csv_columns: csv.writer's bytes, a block per write.
A table of at least two blocks is formatted on two cores where os.fork exists,
the second half by a forked child; the bytes are the same either way.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import numbers
import operator
import os
import shutil
import sys
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .algebra import HermitianOperator, StateVector, is_number, overlap_distance
from .hamiltonians import InterpolatedHamiltonian

DEFAULT_STEPS = 2000

METHODS = ("midpoint-exponential", "rk4")

# sqrt(2 - 2 Re o) turns eps-level rounding into ~1e-8 noise on the distance
# even when the dynamics are exact, so every margin check keeps this floor
FLOAT_FLOOR = 1e-7

# theta_m for Taylor degrees m = 1..20: for rho <= theta_m the series tail
# beyond degree m, at most 2 rho^(m+1)/(m+1)!, stays below 2**-53
_THETA = [(2.0**-54 * math.factorial(m + 1)) ** (1.0 / (m + 1)) for m in range(1, 21)]
# the series coefficients (-i)^j / j! of exp(-i X) for j = 0..20
_SERIES = np.array([(1, -1j, -1, 1j)[j % 4] / math.factorial(j) for j in range(len(_THETA) + 1)])

_CSV_BLOCK = 4096  # rows per write; whole-column string lists outweigh the trajectory


class IntegrationError(RuntimeError):
    """A run whose numbers cannot be trusted; `time` holds the offending instant t."""

    def __init__(self, message, time=None):
        super().__init__(message)
        self.time = time


@dataclass(frozen=True)
class IntegratorConfig:
    method: str = "midpoint-exponential"
    dt: float | None = None
    steps: int | None = None
    norm_tolerance: float = 1e-9
    hbar: float = 1.0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.dt is not None and self.steps is not None:
            raise ValueError("give dt or steps, not both")
        for name in ("dt", "norm_tolerance", "hbar"):
            value = getattr(self, name)
            if not (value is None and name == "dt" or is_number(value) and 0 < value < math.inf):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        if not self.hbar >= sys.float_info.min:  # below it, s = t/hbar has lost digits
            raise ValueError(f"hbar must be a normal float (>= {sys.float_info.min:.2g}), "
                             f"got {self.hbar!r}")
        if not (self.steps is None or is_number(self.steps, numbers.Integral) and self.steps >= 1):
            raise ValueError(f"steps must be an integer of at least 1, got {self.steps!r}")

    def resolve_steps(self, horizon: float) -> int:
        if self.dt is None:
            return self.steps if self.steps is not None else DEFAULT_STEPS
        if not horizon / self.dt < math.inf:
            raise ValueError(f"horizon {horizon:g} / dt {self.dt:g} is not a finite step count")
        return max(1, math.ceil(horizon / self.dt))


@dataclass(frozen=True)
class BetaPolicy:
    """Reference-phase policy beta(t): a constant (zero() is the constant 0,
    labelled "zero"), or proportional to the problem envelope g(t/T) of an
    interpolated run."""

    kind: str
    beta0: float = 0.0
    name: str | None = None

    def __post_init__(self):
        if self.kind not in ("constant", "proportional"):
            raise ValueError(f"unknown beta policy kind {self.kind!r}")
        if not (is_number(self.beta0) and math.isfinite(self.beta0)):
            raise ValueError(f"beta0 must be a finite number, got {self.beta0!r}")

    @classmethod
    def zero(cls) -> "BetaPolicy":
        return cls.constant(0.0, name="zero")

    @classmethod
    def constant(cls, beta0: float, name=None) -> "BetaPolicy":
        return cls("constant", float(beta0), name)

    @classmethod
    def proportional(cls, beta0: float, name=None) -> "BetaPolicy":
        return cls("proportional", float(beta0), name)

    @property
    def label(self) -> str:
        if self.name is not None:
            return self.name
        if self.kind == "constant":
            return f"const{self.beta0:g}"
        return f"gprop{self.beta0:g}"

    def values(self, times: np.ndarray, h) -> np.ndarray:
        """beta sampled on the time grid."""
        if self.kind == "constant":
            return np.full_like(times, self.beta0)
        if not isinstance(h, InterpolatedHamiltonian):
            raise ValueError("schedule-proportional beta policy needs an interpolated Hamiltonian")
        return self.beta0 * h.schedule.g(times / h.total_time)


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    overlaps: np.ndarray
    survival: np.ndarray
    distances: dict
    rhs_integrals: dict
    integrand_max: dict
    hamiltonian: HermitianOperator | InterpolatedHamiltonian  # the H(t) the run evolved under
    initial_state: StateVector
    final_state: StateVector
    states: np.ndarray | None  # grid states of a step loop; None for a closed form
    spectrum: tuple | None  # (w, V, c) of a fixed H solved in closed form
    method: str
    ds: float  # the step in s = t/hbar that the run walked
    hbar: float
    norm_max_dev: float

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    @property
    def dt(self) -> float:
        return self.ds * self.hbar

    @property
    def float_floor(self) -> float:
        """Round-off allowance on survival and on distances (in hbar units): a
        norm deviation delta moves d by up to sqrt(2*delta) near d = 0."""
        return math.sqrt(2.0 * self.norm_max_dev) + FLOAT_FLOOR

    def numerical_slack(self, label: str) -> float:
        """Check allowance for one policy: 10*dt*(max integrand) + hbar*float_floor."""
        return 10.0 * self.dt * self.integrand_max[label] + self.hbar * self.float_floor

    @functools.cached_property
    def _kernel(self) -> _TaylorKernel:
        """The step kernel of self.hamiltonian, built once for every overlap_at_s."""
        return _TaylorKernel(_in_s(self.hamiltonian, self.hbar))

    def overlap_at(self, t: float) -> complex:
        """<psi(t)|phi0> at an off-grid time t: overlap_at_s(t / hbar)."""
        return self.overlap_at_s(t / self.hbar)

    def overlap_at_s(self, s: float) -> complex:
        """<psi|phi0> at s = t/hbar off the grid: the spectral sum of a closed-form
        trajectory, or one midpoint-exponential step [s_k, s] of self.hamiltonian
        by self._kernel from the nearest earlier grid state (unitary, so safe
        whatever the method)."""
        if self.spectrum is not None:
            w, _, c = self.spectrum
            return np.vdot(np.exp((-1j * s) * w) * c, c)
        k = min(int(s / self.ds), len(self.times) - 1)
        sk = k * self.ds
        psi = self.states[k]
        if s > sk:
            rows, _, degrees = self._kernel.steps(np.array([sk, s]), s - sk)
            psi = self._kernel.apply(rows[0], psi, degrees[0], np.empty(len(psi), complex))
        return np.vdot(psi, self.initial_state.amplitudes)


def cumulative_trapezoid(values: np.ndarray, dt: float) -> np.ndarray:
    """Running trapezoid integral of samples spaced dt apart, starting at 0."""
    out = np.zeros_like(values)
    out[1:] = np.cumsum((values[1:] + values[:-1]) * (dt / 2.0))
    return out


def _in_s(h, hbar):
    """h with time in s = t/hbar: an interpolation time T becomes T/hbar."""
    if not isinstance(h, InterpolatedHamiltonian):
        return h
    total_time = h.total_time / hbar
    if not total_time < math.inf:
        raise ValueError(f"interpolation time T / hbar = {h.total_time:g} / {hbar:g} is not "
                         "finite; use other time units")
    return replace(h, total_time=total_time)


def _check_phase(phase: float, horizon: float) -> None:
    """Reject a phase past FLOAT_FLOOR * 2**52, where its rounding alone exceeds FLOAT_FLOOR."""
    if phase > FLOAT_FLOOR * 2.0**52:
        raise IntegrationError(f"largest phase {phase:.6g} has no significant digit at the float "
                               f"floor {FLOAT_FLOOR:g}; shorten the horizon", time=float(horizon))


class _TaylorKernel:
    """The one place H becomes a step, built once per run of h. The operators
    of h are stacked as flat rows, float64 when every imaginary part is
    exactly zero, so a weight row w gives X = w @ rows, assembled in place as
    a d x d matrix. apply takes exp(-i X) psi as the Taylor series of the
    step's degree, one product of the coefficients c_j = (-i)^j / j! with the
    Krylov rows K_0 = psi, K_j = X K_(j-1), or by one eigh of X past _THETA;
    product gives X psi. A real X multiplies each complex row as a (d, 2)
    float block, one real product in place of a complex one."""

    def __init__(self, h):
        self.h = h
        ops = (h.initial, h.problem) if isinstance(h, InterpolatedHamiltonian) else (h,)
        self.norms = [np.linalg.norm(op.entries, 1) for op in ops]
        self.ops = np.array([op.entries.ravel() for op in ops])
        if not np.any(self.ops.imag):
            self.ops = np.ascontiguousarray(self.ops.real)
        self.exponent = np.empty((h.dim, h.dim), self.ops.dtype)
        self._flat = self.exponent.reshape(-1)  # the exponent as the row w @ ops fills
        self.rows = np.empty((len(_SERIES), h.dim), complex)
        self._blocks = (self.rows.view(float).reshape(len(_SERIES), h.dim, 2)
                        if self.ops.dtype == float else self.rows)

    def steps(self, s, ds):
        """The steps between consecutive points s, each taken over ds: weight
        rows of their exponents ds H_k, with H_k the exact step means of
        h.step_terms (a fixed H: weight 1); the bounds rho_k = (s1 - s0) *
        sum |weight| ||operator||_1 >= ||exponent||_2; and the smallest degrees
        m whose theta_m covers rho_k, where len(_THETA) + 1 means apply's eigh."""
        s0, s1 = s[:-1], s[1:]
        weights = ([w for w, _ in self.h.step_terms(s0, s1)]
                   if isinstance(self.h, InterpolatedHamiltonian) else [np.ones_like(s0)])
        rho = (s1 - s0) * sum(np.abs(w) * n for w, n in zip(weights, self.norms))
        rows = np.column_stack(weights).astype(self.ops.dtype)
        rows *= ds
        return rows, rho, (np.searchsorted(_THETA, rho) + 1).tolist()

    def points(self, s):
        """Weight rows of H itself at the points s, of any shape: the h.terms
        envelopes (a fixed H: weight 1), on a last axis."""
        if isinstance(self.h, InterpolatedHamiltonian):
            return np.stack([e for e, _ in self.h.terms(s)], axis=-1).astype(self.ops.dtype)
        return np.broadcast_to(np.ones(1, self.ops.dtype), np.shape(s) + (1,))

    def apply(self, row, psi, degree, out):
        """out = exp(-i X) psi, X = row @ ops, at the given Taylor degree."""
        np.dot(row, self.ops, out=self._flat)
        X = self.exponent
        if degree > len(_THETA):
            w, V = np.linalg.eigh(X)
            out[:] = V @ (np.exp(-1j * w) * (V.conj().T @ psi))
            return out
        blocks = self._blocks
        self.rows[0] = psi
        for j in range(1, degree + 1):
            np.matmul(X, blocks[j - 1], out=blocks[j])
        return np.dot(_SERIES[:degree + 1], self.rows[:degree + 1], out=out)

    def product(self, row, psi):
        """X psi, X = row @ ops, in a buffer the next call overwrites."""
        np.dot(row, self.ops, out=self._flat)
        self.rows[0] = psi
        np.matmul(self.exponent, self._blocks[0], out=self._blocks[1])
        return self.rows[1]


def _norm_error(norm, time, tolerance) -> IntegrationError:
    return IntegrationError(f"norm drifted to {norm:.12g} (tolerance {tolerance:g}); reduce "
                            "dt or switch method", time=time)


def _closed_form(H, phi0, s, cfg):
    """Exact propagation under a fixed H = V diag(w) V^dagger, c = V^dagger phi0,
    on the grid s; a failure reports its time as an s. Grid point s_k,
    k = aK + b, splits as s_aK + s_b, so the eigenbasis amplitudes
    z_k = exp(-i w s_k) * c are coarse[a] * fine[b], and each grid-wide sum
    over j is one product of the two tables; z itself, n x dim, is never
    formed. Returns the spectrum (w, V, c), the overlaps conj(z_k . conj(c)),
    the final state V z_N and the largest | |z_k| - 1 |."""
    w, V = np.linalg.eigh(H)
    _check_phase(float(s[-1]) * float(np.max(np.abs(w))), s[-1])
    c = V.conj().T @ phi0
    n = len(s)
    K = math.isqrt(n - 1) + 1
    rate = -1j * w
    coarse = np.exp(np.outer(s[::K], rate))
    fine = np.exp(np.outer(s[:K], rate)) * c
    overlaps = np.conj(coarse @ (fine * c.conj()).T).ravel()[:n]
    norms = np.sqrt((np.abs(coarse) ** 2 @ (np.abs(fine) ** 2).T).ravel()[:n])
    devs = np.abs(norms - 1.0)
    bad = np.flatnonzero(~(devs <= cfg.norm_tolerance))  # NaN fails this test too
    if bad.size:
        raise _norm_error(norms[bad[0]], s[bad[0]], cfg.norm_tolerance)
    for x in (w, V, c):
        x.setflags(write=False)
    a, b = divmod(n - 1, K)
    return (w, V, c), overlaps, V @ (coarse[a] * fine[b]), float(devs.max())


@np.errstate(over="ignore", invalid="ignore")  # a check below reports every inf or NaN
def evolve(h, psi0: StateVector, horizon: float, cfg: IntegratorConfig | None = None,
           betas=(BetaPolicy.zero(),)) -> Trajectory:
    """Propagate psi0 under h for the given horizon, recording observables.

    h is either a fixed HermitianOperator or an InterpolatedHamiltonian; the
    horizon must fit inside the interpolation window in the latter case.
    """
    cfg = cfg if cfg is not None else IntegratorConfig()
    interp = isinstance(h, InterpolatedHamiltonian)
    if psi0.dim != h.dim:
        raise ValueError(f"state dimension {psi0.dim} does not match operator dimension {h.dim}")
    if not 0 < horizon < math.inf:
        raise ValueError(f"horizon must be positive and finite, got {horizon}")
    if interp and horizon > h.total_time * (1.0 + 1e-12):
        raise ValueError(f"horizon {horizon} exceeds the interpolation window {h.total_time}")
    betas = list(betas)
    labels = [p.label for p in betas]
    if len(set(labels)) != len(labels):
        raise ValueError(f"beta policy labels collide: {labels}")

    nsteps = cfg.resolve_steps(horizon)
    hbar = cfg.hbar
    ds = horizon / hbar / nsteps  # the unit boundary: from here on, time is s = t/hbar
    if not sys.float_info.min <= ds < math.inf:
        raise ValueError(f"step ds = dt/hbar = {ds:g} (dt = {horizon / nsteps:g}, hbar = "
                         f"{hbar:g}) is not a finite normal float; use other time units")
    hs = _in_s(h, hbar)
    s = np.arange(nsteps + 1) * ds  # the run's one grid array, scaled to t after the walk

    # normalize exactly once; this vector is the reference phi0 throughout
    phi0 = psi0.amplitudes / np.linalg.norm(psi0.amplitudes)

    # integrand ||(H(s_k) - beta_k) phi0|| on the step grid
    if interp:  # H(s_k) phi0, a sum over the terms of envelope(s_k) * (operator phi0)
        rows = (np.outer(e, op.entries @ phi0) for e, op in hs.terms(s))
        residual_base, grid = functools.reduce(operator.iadd, rows), slice(None)
    else:  # H and every beta a fixed H admits are constant: one row serves the grid
        residual_base, grid = (h.entries @ phi0)[None, :], slice(1)
    # each policy's phase factor exp(-i int_0^s beta) and integrand, before any step
    rotations, rhs_integrals, integrand_max = {}, {}, {}
    for label, bvals in ((p.label, p.values(s, hs)) for p in betas):
        phase = cumulative_trapezoid(bvals, ds)
        rotations[label] = rotation = -1j * phase  # exp(-i phase), formed in place
        np.exp(rotation, out=rotation)
        bad = np.flatnonzero(~np.isfinite(rotation))  # not a bound violation
        if bad.size:
            raise IntegrationError(f"beta policy {label!r}: distance not finite (phase "
                                   f"{phase[bad[0]]:.6g})", time=s[bad[0]] * hbar)
        integrand = np.broadcast_to(np.linalg.norm(
            residual_base - bvals[grid, None] * phi0[None, :], axis=1), s.shape)
        integrand_max[label] = float(np.max(integrand))
        if not math.isfinite(integrand_max[label]):
            k = np.flatnonzero(~np.isfinite(integrand))[0]
            raise IntegrationError(f"beta policy {label!r}: integrand ||(H - beta) phi0|| not "
                                   "finite", time=s[k] * hbar)
        rhs_integrals[label] = cumulative_trapezoid(integrand, ds * hbar)
    del residual_base  # (steps + 1) x dim under H(t), freed before the walk allocates states

    spectrum = states = None
    if cfg.method == "midpoint-exponential" and not interp:
        try:
            spectrum, overlaps, psi, norm_max_dev = _closed_form(h.entries, phi0, s, cfg)
        except IntegrationError as exc:  # its time is an s
            exc.time *= hbar
            raise
    else:
        kernel = _TaylorKernel(hs)
        if cfg.method == "midpoint-exponential":
            rows, rho, degrees = kernel.steps(s, ds)
            bad = np.flatnonzero(~(rho < math.inf))  # NaN fails this test too
            if bad.size:
                raise IntegrationError(f"step bound ||H||_1 ds = {rho[bad[0]]} is not finite",
                                       time=s[bad[0]] * hbar)
            _check_phase(float(np.sum(rho)), horizon)

            def step(k, psi, out):
                kernel.apply(rows[k], psi, degrees[k], out)
        else:  # H at each step's stages s_k, s_k + ds/2 and s_k + ds
            stages = kernel.points(s[:-1, None] + np.array([0.0, ds / 2.0, ds]))
            deriv = lambda row, psi: -1j * kernel.product(row, psi)

            def step(k, psi, out):
                start, mid, end = stages[k]
                k1 = deriv(start, psi)
                k2 = deriv(mid, psi + (ds / 2.0) * k1)
                k3 = deriv(mid, psi + (ds / 2.0) * k2)
                k4 = deriv(end, psi + ds * k3)
                out[:] = psi + (ds / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        overlaps = np.empty(nsteps + 1, dtype=complex)
        states = np.empty((nsteps + 1, h.dim), dtype=complex)
        states[0] = phi0
        norm_max_dev = 0.0
        for k in range(nsteps + 1):
            psi = states[k]
            re, im = psi.real, psi.imag  # np.linalg.norm's arithmetic, without its wrapper
            norm = math.sqrt(re.dot(re) + im.dot(im))
            dev = abs(norm - 1.0)
            if not dev <= cfg.norm_tolerance:  # NaN fails this test too
                raise _norm_error(norm, s[k] * hbar, cfg.norm_tolerance)
            norm_max_dev = max(norm_max_dev, dev)
            overlaps[k] = np.vdot(psi, phi0)
            if k == nsteps:
                break
            step(k, psi, states[k + 1])
        states.setflags(write=False)

    s *= hbar  # the grid leaves as times t
    # every state passed the norm check, so each overlap and distance is finite
    return Trajectory(
        times=s, overlaps=overlaps, survival=np.abs(overlaps) ** 2,
        distances={label: overlap_distance(rotations[label] * overlaps) for label in labels},
        rhs_integrals=rhs_integrals, integrand_max=integrand_max, hamiltonian=h,
        initial_state=StateVector(phi0), final_state=StateVector(psi / np.linalg.norm(psi)),
        states=states, spectrum=spectrum, method=cfg.method, ds=ds, hbar=hbar,
        norm_max_dev=norm_max_dev,
    )


@dataclass(frozen=True)
class ConvergenceResult:
    """Empirical order measurement; `exact` means every probe error sat at
    round-off level so no order is measurable."""

    order: float
    exact: bool
    errors: tuple


def convergence_order(h, psi0, horizon, cfg: IntegratorConfig | None = None) -> ConvergenceResult:
    """Richardson-style self-convergence: errors at dt, dt/2, dt/4 against a
    dt/16 reference of the same method."""
    cfg = cfg if cfg is not None else IntegratorConfig()
    base = cfg.resolve_steps(horizon)

    def final_state(mult):
        sub = replace(cfg, dt=None, steps=base * mult)
        return evolve(h, psi0, horizon, cfg=sub, betas=[BetaPolicy.zero()]).final_state

    ref = final_state(16).amplitudes
    errors = tuple(float(np.linalg.norm(final_state(m).amplitudes - ref)) for m in (1, 2, 4))
    if max(errors) < 1e-12:
        return ConvergenceResult(order=math.inf, exact=True, errors=errors)
    ratios = [math.log2(a / b) for a, b in zip(errors, errors[1:]) if b != 0.0]
    order = float(np.mean(ratios)) if ratios else math.inf
    return ConvergenceResult(order=order, exact=False, errors=errors)


def _write_rows(fh, columns, lo, hi) -> None:
    """Rows [lo, hi) of the columns, a block per write."""
    for start in range(lo, hi, _CSV_BLOCK):
        stop = min(start + _CSV_BLOCK, hi)
        rows = zip(*(map(repr, c[start:stop].tolist()) for c in columns))
        fh.write("\r\n".join(map(",".join, rows)) + "\r\n")


def write_csv_columns(path, header, columns) -> None:
    """CSV of a header row and equal-length array columns, streamed a block
    of rows at a time. The bytes are those csv.writer writes: a float as its
    shortest round-trip repr, a bool as True/False, CRLF row ends.

    Formatting, repr at about 1 us a float, is the cost, so a table of at
    least two blocks where os.fork exists is formatted on two cores: a forked
    child writes rows [n//2, n) to an unnamed temporary file while this
    process writes rows [0, n//2) to path, then appends the file. The child
    leaves by os._exit on every path, so it never flushes this process's
    buffers; its failure is an OSError naming path."""
    n = len(columns[0])
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        if n < 2 * _CSV_BLOCK or not hasattr(os, "fork"):
            _write_rows(fh, columns, 0, n)
            return
        with tempfile.TemporaryFile("w+", newline="", encoding=fh.encoding,
                                    dir=Path(path).parent) as tail:
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    _write_rows(tail, columns, n // 2, n)
                    tail.flush()
                    status = 0
                finally:
                    os._exit(status)
            try:
                _write_rows(fh, columns, 0, n // 2)
            finally:
                status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if status != 0:
                raise OSError(f"{path}: formatting rows {n // 2} to {n} failed "
                              f"(exit status {status})")
            tail.seek(0)
            fh.flush()  # the child wrote text in fh's encoding, so bytes append as they are
            shutil.copyfileobj(tail.buffer, fh.buffer)


def write_trajectory_csv(traj: Trajectory, path, seed=None) -> None:
    """CSV of the recorded observables plus a .meta.json sidecar."""
    path = Path(path)
    header = ["t", "re_overlap", "im_overlap", "survival"]
    columns = [traj.times, traj.overlaps.real, traj.overlaps.imag, traj.survival]
    for label in traj.distances:
        header += [f"distance_{label}", f"rhs_integral_{label}"]
        columns += [traj.distances[label], traj.rhs_integrals[label]]
    write_csv_columns(path, header, columns)
    meta = {"seed": seed, "method": traj.method, "dt": traj.dt, "hbar": traj.hbar}
    path.with_suffix(".meta.json").write_text(json.dumps(meta, indent=2) + "\n")
