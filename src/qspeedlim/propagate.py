"""Schrodinger-equation integration with full observable recording.

The integrator propagates i*hbar d|psi>/dt = H(t)|psi> and records, at every
step boundary, the overlap with the start state, the survival probability,
and for each reference-phase policy beta(t) the Hilbert-space distance

    d(t, beta) = sqrt(2 - 2 Re(exp(-i/hbar * int_0^t beta) <psi(t)|phi0>))

(the map is algebra.overlap_distance) and the right-hand-side integral

    int_0^t ||(H(tau) - beta(tau)) |phi0>|| dtau.

The two integrals are trapezoid sums on the step grid. The reference state is
never integrated separately; its effect is the scalar phase above. Under a
fixed H every beta is constant, so the integrand is one norm per policy,
broadcast over the grid.

A fixed H = V diag(w) V^dagger under midpoint-exponential is solved in closed
form from one eigh: with c = V^dagger phi0, <psi(t)|phi0> = sum_j |c_j|^2
exp(+i w_j t/hbar), and the trajectory keeps (w, V, c) instead of states. On
the grid t_k = (aK + b) dt, K = ceil(sqrt(steps + 1)), the phase is a coarse
factor at t_aK times a fine one at t_b, so the grid's overlaps and norms are
products of two phase tables of about K rows each. An interpolated H(t), and
every rk4 run, walk the step grid. A Trajectory carries the H it ran under, so
Trajectory.overlap_at(t) gives the overlap off the grid with no other input:
the spectral sum, whose exponent (-i/hbar) w is taken once per trajectory, or
one step of that H from a state.

A midpoint-exponential step [t0, t1] applies exp(-i H_k (t1 - t0)/hbar) to psi,
where H_k is the step mean of H(t): for an interpolated H, the exact means of
f and g over the step (the first Magnus term; Blanes, Casas, Oteo & Ros, Phys.
Rep. 470, 151 (2009)), from one InterpolatedHamiltonian.step_terms table per
run, which also gives each step's bound rho, (t1 - t0)/hbar times the sum of
|weight| ||operator||_1. rho is at least the 2-norm of the exponent, since H_k
is Hermitian. The exponential acts as a truncated Taylor series of
matrix-vector products (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488
(2011)) of the smallest degree m whose theta_m covers rho, where theta_m
bounds the series tail beyond degree m by unit round-off, so the step is
exact to round-off like an eigh. A step with rho > theta_20 (about 1.46),
which one series would not cover, is taken by one eigh of H_k, so a step
costs at most 20 products or one eigh at any dt. The annealing runs at the
default 2000 steps have rho <= 0.05: 5 to 8 products.

CSV artifacts come from write_csv_columns: csv.writer's bytes, a block per write.
"""

from __future__ import annotations

import bisect
import csv
import functools
import json
import math
import numbers
import operator
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

_CSV_BLOCK = 4096  # rows per write; whole-column string lists outweigh the trajectory


class IntegrationError(RuntimeError):
    """Norm drift exceeded tolerance; `time` holds the offending instant."""

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
    record_states: bool = True  # step loops only; a closed-form run keeps its spectrum

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.dt is not None and self.steps is not None:
            raise ValueError("give dt or steps, not both")
        for name in ("dt", "norm_tolerance", "hbar"):
            value = getattr(self, name)
            if not (value is None and name == "dt" or is_number(value) and 0 < value < math.inf):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        if not (self.steps is None or is_number(self.steps, numbers.Integral) and self.steps >= 1):
            raise ValueError(f"steps must be an integer of at least 1, got {self.steps!r}")
        if not isinstance(self.record_states, bool):
            raise ValueError(f"record_states must be true or false, got {self.record_states!r}")

    def resolve_steps(self, horizon: float) -> int:
        if self.dt is not None:
            return max(1, math.ceil(horizon / self.dt))
        return self.steps if self.steps is not None else DEFAULT_STEPS


@dataclass(frozen=True)
class BetaPolicy:
    """Reference-phase policy beta(t): identically zero, a constant, or
    proportional to the problem envelope g(t/T) of an interpolated run."""

    kind: str
    beta0: float = 0.0
    name: str | None = None

    def __post_init__(self):
        if self.kind not in ("zero", "constant", "proportional"):
            raise ValueError(f"unknown beta policy kind {self.kind!r}")
        if not (is_number(self.beta0) and math.isfinite(self.beta0)):
            raise ValueError(f"beta0 must be a finite number, got {self.beta0!r}")

    @classmethod
    def zero(cls) -> "BetaPolicy":
        return cls("zero")

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
        if self.kind == "zero":
            return "zero"
        if self.kind == "constant":
            return f"const{self.beta0:g}"
        return f"gprop{self.beta0:g}"

    def values(self, times: np.ndarray, h) -> np.ndarray:
        """beta sampled on the time grid."""
        if self.kind == "zero":
            return np.zeros_like(times)
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
    states: np.ndarray | None  # grid states of a step loop with record_states
    spectrum: tuple | None  # (w, V, c) of a fixed H solved in closed form
    method: str
    dt: float
    hbar: float
    norm_max_dev: float

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    @property
    def float_floor(self) -> float:
        """Round-off allowance on survival and on distances (in hbar units): a
        norm deviation delta moves d by up to sqrt(2*delta) near d = 0."""
        return math.sqrt(2.0 * self.norm_max_dev) + FLOAT_FLOOR

    def numerical_slack(self, label: str) -> float:
        """Check allowance for one policy: 10*dt*(max integrand) + hbar*float_floor."""
        return 10.0 * self.dt * self.integrand_max[label] + self.hbar * self.float_floor

    @property
    def resolves_off_grid(self) -> bool:
        """Whether overlap_at can serve: recorded states or a closed-form spectrum."""
        return self.states is not None or self.spectrum is not None

    @functools.cached_property
    def _spectral_exponent(self) -> np.ndarray:
        """(-i/hbar) w of a closed-form trajectory, taken once for every overlap_at."""
        return (-1j / self.hbar) * self.spectrum[0]

    def overlap_at(self, t: float) -> complex:
        """<psi(t)|phi0> at an off-grid time: the spectral sum of a closed-form
        trajectory, or one midpoint-exponential step [t_k, t] of self.hamiltonian
        from the nearest earlier recorded state (unitary, so safe whatever the
        method)."""
        if self.spectrum is not None:
            c = self.spectrum[2]
            return np.vdot(np.exp(t * self._spectral_exponent) * c, c)
        k = min(int(t / self.dt), len(self.times) - 1)
        tk = self.times[k]
        psi = self.states[k]
        if t > tk + 1e-15:
            matrix, rho = _step_rule(self.hamiltonian, np.array([tk]), np.array([t]), self.hbar)
            psi = _step_midpoint(matrix(0), psi, t - tk, self.hbar, rho[0])
        return np.vdot(psi, self.initial_state.amplitudes)


def cumulative_trapezoid(values: np.ndarray, dt: float) -> np.ndarray:
    """Running trapezoid integral of samples spaced dt apart, starting at 0."""
    out = np.zeros_like(values)
    out[1:] = np.cumsum((values[1:] + values[:-1]) * (dt / 2.0))
    return out


def _check_phase(phase: float, horizon: float) -> None:
    """Reject a phase past FLOAT_FLOOR * 2**52, where its rounding alone exceeds FLOAT_FLOOR."""
    if phase > FLOAT_FLOOR * 2.0**52:
        raise IntegrationError(f"largest phase {phase:.6g} has no significant digit at the float "
                               f"floor {FLOAT_FLOOR:g}; shorten the horizon", time=float(horizon))


def _step_rule(h, t0, t1, hbar):
    """Step k's matrix, as a function of k, and rho_k = (t1 - t0)/hbar * sum |weight|
    ||operator||_1 >= ||exponent||_2, from one h.step_terms table (a fixed H: weight 1)."""
    pairs = (h.step_terms(t0, t1) if isinstance(h, InterpolatedHamiltonian)
             else [(np.ones_like(t0), h)])
    with np.errstate(over="ignore", invalid="ignore"):
        rho = (t1 - t0) / hbar * sum(np.abs(w) * np.linalg.norm(op.entries, 1) for w, op in pairs)
    bad = np.flatnonzero(~(rho < math.inf))  # NaN fails this test too
    if bad.size:
        raise IntegrationError(f"step bound ||H||_1 dt/hbar = {rho[bad[0]]} at t = "
                               f"{t0[bad[0]]:.9g} is not finite", time=float(t0[bad[0]]))
    return lambda k: functools.reduce(operator.iadd, (w[k] * op.entries for w, op in pairs)), rho


def _step_midpoint(M, psi, dt, hbar, rho):
    """One unitary step exp(-i M dt / hbar) |psi> as a truncated Taylor series,
    or by eigh when rho, a bound on ||M||_2 dt/hbar, is past the series table."""
    if rho > _THETA[-1]:
        w, V = np.linalg.eigh(M)
        return V @ (np.exp(-1j * w * dt / hbar) * (V.conj().T @ psi))
    scale, term = -1j * dt / hbar, psi
    for j in range(1, 2 + bisect.bisect_left(_THETA, rho)):
        term = (M @ term) * (scale / j)
        psi = psi + term
    return psi


def _step_rk4(h, psi, t, dt, hbar):
    matrix = h.matrix if isinstance(h, InterpolatedHamiltonian) else lambda t: h.entries
    deriv = lambda t, psi: (-1j / hbar) * (matrix(t) @ psi)
    k1 = deriv(t, psi)
    k2 = deriv(t + dt / 2.0, psi + (dt / 2.0) * k1)
    k3 = deriv(t + dt / 2.0, psi + (dt / 2.0) * k2)
    k4 = deriv(t + dt, psi + dt * k3)
    return psi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _norm_error(norm, t, tolerance) -> IntegrationError:
    return IntegrationError(f"norm drifted to {norm:.12g} at t = {t:.9g} (tolerance "
                            f"{tolerance:g}); reduce dt or switch method", time=float(t))


def _closed_form(H, phi0, times, cfg):
    """Exact propagation under a fixed H = V diag(w) V^dagger, c = V^dagger phi0.
    Grid time t_k, k = aK + b, splits as t_aK + t_b, so the eigenbasis
    amplitudes z_k = exp(-i w t_k/hbar) * c are coarse[a] * fine[b], and each
    grid-wide sum over j is one product of the two tables; z itself, n x dim,
    is never formed. Returns the spectrum (w, V, c), the overlaps
    conj(z_k . conj(c)), the final state V z_N and the largest | |z_k| - 1 |."""
    w, V = np.linalg.eigh(H)
    _check_phase(float(times[-1]) * float(np.max(np.abs(w))) / cfg.hbar, times[-1])
    c = V.conj().T @ phi0
    n = len(times)
    K = math.isqrt(n - 1) + 1
    rate = (-1j / cfg.hbar) * w
    coarse = np.exp(np.outer(times[::K], rate))
    fine = np.exp(np.outer(times[:K], rate)) * c
    overlaps = np.conj(coarse @ (fine * c.conj()).T).ravel()[:n]
    norms = np.sqrt((np.abs(coarse) ** 2 @ (np.abs(fine) ** 2).T).ravel()[:n])
    devs = np.abs(norms - 1.0)
    bad = np.flatnonzero(~(devs <= cfg.norm_tolerance))  # NaN fails this test too
    if bad.size:
        raise _norm_error(norms[bad[0]], times[bad[0]], cfg.norm_tolerance)
    for x in (w, V, c):
        x.setflags(write=False)
    a, b = divmod(n - 1, K)
    return (w, V, c), overlaps, V @ (coarse[a] * fine[b]), float(devs.max())


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
        raise ValueError(
            f"horizon {horizon} exceeds the interpolation window {h.total_time}"
        )
    betas = list(betas)
    labels = [p.label for p in betas]
    if len(set(labels)) != len(labels):
        raise ValueError(f"beta policy labels collide: {labels}")

    nsteps = cfg.resolve_steps(horizon)
    dt = horizon / nsteps
    hbar = cfg.hbar
    times = np.arange(nsteps + 1) * dt

    # normalize exactly once; this vector is the reference phi0 throughout
    phi0 = psi0.amplitudes / np.linalg.norm(psi0.amplitudes)

    beta_grids = {p.label: p.values(times, h) for p in betas}

    # integrand ||(H(t_k) - beta_k) phi0|| on the step grid
    if interp:  # H(t_k) phi0, a sum over the terms of envelope(t_k) * (operator phi0)
        rows = (np.outer(e, op.entries @ phi0) for e, op in h.terms(times))
        residual_base, grid = functools.reduce(operator.iadd, rows), slice(None)
    else:  # H and every beta a fixed H admits are constant: one row serves the grid
        residual_base, grid = (h.entries @ phi0)[None, :], slice(1)
    # a huge beta or H overflows these to inf or NaN, which the finiteness check below reports
    with np.errstate(over="ignore", invalid="ignore"):
        integrands = {label: np.broadcast_to(np.linalg.norm(
                          residual_base - bvals[grid, None] * phi0[None, :], axis=1), times.shape)
                      for label, bvals in beta_grids.items()}
        rhs_integrals = {label: cumulative_trapezoid(v, dt) for label, v in integrands.items()}
        beta_accum = {label: cumulative_trapezoid(v, dt) for label, v in beta_grids.items()}
    integrand_max = {label: float(np.max(v)) for label, v in integrands.items()}

    spectrum = states = None
    if cfg.method == "midpoint-exponential" and not interp:
        spectrum, overlaps, psi, norm_max_dev = _closed_form(h.entries, phi0, times, cfg)
    else:
        if cfg.method == "midpoint-exponential":
            matrix, rho = _step_rule(h, times[:-1], times[1:], hbar)
            _check_phase(float(np.sum(rho)), horizon)
            step = lambda k, psi: _step_midpoint(matrix(k), psi, dt, hbar, rho[k])
        else:
            step = lambda k, psi: _step_rk4(h, psi, times[k], dt, hbar)
        overlaps = np.empty(nsteps + 1, dtype=complex)
        if cfg.record_states:
            states = np.empty((nsteps + 1, h.dim), dtype=complex)
        psi = phi0.copy()
        norm_max_dev = 0.0
        for k in range(nsteps + 1):
            re, im = psi.real, psi.imag  # np.linalg.norm's arithmetic, without its wrapper
            norm = math.sqrt(re.dot(re) + im.dot(im))
            dev = abs(norm - 1.0)
            if not dev <= cfg.norm_tolerance:  # NaN fails this test too
                raise _norm_error(norm, times[k], cfg.norm_tolerance)
            norm_max_dev = max(norm_max_dev, dev)
            overlaps[k] = np.vdot(psi, phi0)
            if states is not None:
                states[k] = psi
            if k == nsteps:
                break
            psi = step(k, psi)

    survival = np.abs(overlaps) ** 2
    distances = {}
    for label in labels:
        with np.errstate(invalid="ignore"):
            phased = np.exp(-1j * beta_accum[label] / hbar) * overlaps
        distances[label] = overlap_distance(phased)
        bad = np.flatnonzero(~np.isfinite(distances[label]))  # not a bound violation
        if bad.size:
            t = times[bad[0]]
            raise IntegrationError(f"beta policy {label!r}: distance not finite at t = {t:.9g} "
                                   f"(phase integral {beta_accum[label][bad[0]]:.6g})", time=t)
        if not math.isfinite(integrand_max[label]):
            t = times[np.flatnonzero(~np.isfinite(integrands[label]))[0]]
            raise IntegrationError(f"beta policy {label!r}: integrand ||(H - beta) phi0|| not "
                                   f"finite at t = {t:.9g}", time=t)

    if states is not None:
        states.setflags(write=False)
    return Trajectory(
        times=times,
        overlaps=overlaps,
        survival=survival,
        distances=distances,
        rhs_integrals=rhs_integrals,
        integrand_max=integrand_max,
        hamiltonian=h,
        initial_state=StateVector(phi0),
        final_state=StateVector(psi / np.linalg.norm(psi)),
        states=states,
        spectrum=spectrum,
        method=cfg.method,
        dt=dt,
        hbar=hbar,
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
        sub = replace(cfg, dt=None, steps=base * mult, record_states=False)
        return evolve(h, psi0, horizon, cfg=sub, betas=[BetaPolicy.zero()]).final_state

    ref = final_state(16).amplitudes
    errors = tuple(float(np.linalg.norm(final_state(m).amplitudes - ref)) for m in (1, 2, 4))
    if max(errors) < 1e-12:
        return ConvergenceResult(order=math.inf, exact=True, errors=errors)
    ratios = [math.log2(a / b) for a, b in zip(errors, errors[1:]) if b != 0.0]
    order = float(np.mean(ratios)) if ratios else math.inf
    return ConvergenceResult(order=order, exact=False, errors=errors)


def write_csv_columns(path, header, columns) -> None:
    """CSV of a header row and equal-length array columns, streamed a block
    of rows at a time. The bytes are those csv.writer writes: a float as its
    shortest round-trip repr, a bool as True/False, CRLF row ends."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        for start in range(0, len(columns[0]), _CSV_BLOCK):
            rows = zip(*(map(repr, c[start:start + _CSV_BLOCK].tolist()) for c in columns))
            fh.write("\r\n".join(map(",".join, rows)) + "\r\n")


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
