"""Characteristic times, survival lower bounds, and inequality margin checks.

Every inequality here is a necessary condition: it forbids an event (reaching
orthogonality, reaching the antipodal state, decaying below a survival floor)
before a moment-determined time, but never guarantees the event happens. An
event that does not occur within the simulated horizon is therefore recorded
as consistent. Which forms apply is read off the Hamiltonian the trajectory
carries: an InterpolatedHamiltonian's schedule and total time, or a fixed H.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .algebra import HermitianOperator, StateVector, expectation, variance_sqrt
from .hamiltonians import InterpolatedHamiltonian
from .propagate import Trajectory
from .schedules import Schedule, schedule_integral

GROUND_ENERGY_TOL = 1e-10


@dataclass(frozen=True)
class MomentPair:
    """Mean and spread of a Hamiltonian in a fixed state."""

    energy: float
    spread: float

    def __post_init__(self):
        if not self.spread >= 0:  # NaN fails too
            raise ValueError(f"spread must be nonnegative, got {self.spread}")


def state_moments(op: HermitianOperator, s: StateVector) -> MomentPair:
    energy, spread = expectation(op, s), variance_sqrt(op, s)
    if not (math.isfinite(energy) and math.isfinite(spread)):  # <op^2> past the float range
        raise ValueError(f"the operator's moments in the state overflow: energy {energy!r}, "
                         f"spread {spread!r}")
    return MomentPair(energy=energy, spread=spread)


@dataclass(frozen=True)
class CharacteristicTimes:
    """Earliest times the two events are allowed at; inf when unreachable."""

    t_any: float
    t_orth: float


def char_times_ti(m: MomentPair, hbar: float) -> CharacteristicTimes:
    """Fixed-Hamiltonian characteristic times 2 hbar / sqrt(spread^2 +
    energy^2) and hbar sqrt(2) / spread: the annealing times with g = 1."""
    return char_times_qac(m, 1.0, hbar)


def char_times_qac(m: MomentPair, g_integral: float, hbar: float) -> CharacteristicTimes:
    """Annealing characteristic times; the unit-interval integral of g
    rescales both (consistently with the inequalities both times come from).
    A time is inf only where its denominator is zero; one that overflows
    from a positive denominator is a ValueError naming hbar."""
    if not g_integral > 0:
        raise ValueError(f"g_integral must be positive, got {g_integral}")
    times = {}
    for name, numer, denom in (("t_any", 2.0 * hbar, g_integral * math.hypot(m.spread, m.energy)),
                               ("t_orth", hbar * math.sqrt(2.0), g_integral * m.spread)):
        times[name] = numer / denom if denom > 0 else math.inf
        if denom > 0 and not times[name] < math.inf:
            raise ValueError(f"characteristic time {name} overflows the float range at "
                             f"hbar = {hbar:g}; use other units")
    return CharacteristicTimes(**times)


class SurvivalBound(NamedTuple):
    value: float
    vacuous: bool


def _nonnegative_times(t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError(f"time must be nonnegative, got {t.min()}")
    return t


def survival_lower_bound_ti(t, spread: float, hbar: float) -> SurvivalBound:
    """(1 - spread^2 t^2 / (2 hbar^2))^2, clamped to 0 and flagged vacuous
    once the parenthesis goes negative; t is a time or an array of times."""
    return _clamped_square_bound(spread, _nonnegative_times(t), hbar)


def survival_lower_bound_qac(t, spread_P: float, sched: Schedule, T: float,
                             hbar: float) -> SurvivalBound:
    """Annealing form: the exact schedule integral int_0^t g(tau/T) dtau
    replaces t; t is a time or an array of times."""
    t = _nonnegative_times(t)
    if np.any(t > T * (1.0 + 1e-12)):
        raise ValueError(f"time {t.max()} exceeds the interpolation window {T}")
    G = T * schedule_integral(sched, upto=np.minimum(t / T, 1.0))
    return _clamped_square_bound(spread_P, G, hbar)


def _clamped_square_bound(spread, elapsed, hbar: float) -> SurvivalBound:
    """(1 - x)^2 clamped to 0 with x = (spread * elapsed)^2 / (2 hbar^2),
    elementwise over an array of elapsed (schedule-weighted) times."""
    # np.square, not ** 2: a 0-d ** 2 calls pow(), an ulp off the array's square;
    # an overflow to inf reads as vacuous below
    with np.errstate(over="ignore"):
        x = np.square(spread * elapsed / hbar) / 2.0
    # the eps pad keeps an exact touch of zero (x = 1 up to rounding) from
    # being misreported as vacuous
    return _elementwise(SurvivalBound, np.square(np.clip(1.0 - x, 0.0, None)), x > 1.0 + 1e-12)


def _elementwise(result_type, *fields):
    """Python scalars for a scalar time argument, arrays for an array."""
    return result_type(*(f if np.ndim(f) else f.item() for f in fields))


class DecayDiagnostic(NamedTuple):
    value: float
    regime_ok: bool


def exp_decay_diagnostic(t, spread: float, energy: float, hbar: float) -> DecayDiagnostic:
    """exp(-spread^2 t^2 / hbar^2) with a short-time regime flag, elementwise
    over an array of times. Diagnostic only: the underlying relation has no
    sharp constant, so this is never asserted as a hard bound."""
    t = _nonnegative_times(t)
    value = np.exp(-np.square(spread * t / hbar))
    regime_ok = t * math.hypot(spread, energy) <= 0.1 * hbar
    return _elementwise(DecayDiagnostic, value, regime_ok)


@dataclass(frozen=True)
class Margin:
    """One inequality check: satisfied means lhs <= rhs + slack."""

    name: str
    lhs: float
    rhs: float
    slack: float
    note: str | None = None

    @property
    def satisfied(self) -> bool:
        return self.lhs <= self.rhs + self.slack

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs


@dataclass(frozen=True)
class BoundReport:
    context: str
    moments: MomentPair
    characteristic: CharacteristicTimes
    margins: tuple
    numerical_slack: dict
    events: dict = field(default_factory=dict)
    measured_orth_time: float | None = None
    measured_antipodal_time: float | None = None
    provenance: dict = field(default_factory=dict)

    @property
    def all_satisfied(self) -> bool:
        return all(m.satisfied for m in self.margins)

    @property
    def violations(self) -> tuple:
        return tuple(m for m in self.margins if not m.satisfied)

    def to_dict(self) -> dict:
        def clean(x):
            if x is None or isinstance(x, (bool, str)):
                return x
            x = float(x)
            return x if math.isfinite(x) else None

        events = {}
        for kind, ev in self.events.items():
            events[kind] = {
                "triggered": ev.triggered,
                "time": clean(ev.time),
                "bracket_width": clean(ev.bracket_width),
                "functional_value": clean(ev.functional_value),
                "note": ev.note,
            }
        return {
            "context": self.context,
            "moments": {"energy": clean(self.moments.energy),
                        "spread": clean(self.moments.spread)},
            "characteristic_times": {"t_any": clean(self.characteristic.t_any),
                                     "t_orth": clean(self.characteristic.t_orth)},
            "events": events,
            "measured_orth_time": clean(self.measured_orth_time),
            "measured_antipodal_time": clean(self.measured_antipodal_time),
            "margins": [
                {"name": m.name, "lhs": clean(m.lhs), "rhs": clean(m.rhs),
                 "slack": clean(m.slack), "margin": clean(m.margin),
                 "satisfied": m.satisfied, "note": m.note}
                for m in self.margins
            ],
            "numerical_slack": {k: clean(v) for k, v in self.numerical_slack.items()},
            "provenance": self.provenance,
        }


def write_report_json(report: BoundReport, path) -> None:
    with open(path, "w") as fh:  # json.dumps, not json.dump's one write per encoder chunk
        fh.write(json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")


def _worst_sample_margin(name, lhs_array, rhs_array, slack, times):
    k = int(np.argmax(lhs_array - rhs_array))
    return Margin(name=name, lhs=float(lhs_array[k]), rhs=float(rhs_array[k]), slack=slack,
                  note=f"worst sample at t = {times[k]:.9g}")


def check_inequalities(traj: Trajectory, moments: MomentPair, events: dict | None = None,
                       provenance: dict | None = None) -> BoundReport:
    """Evaluate every applicable inequality against one trajectory.

    The trajectory's Hamiltonian selects the family: a fixed H checks the
    fixed-H characteristic times and survival floor ("time-independent"), an
    InterpolatedHamiltonian the forms rescaled by its schedule and total time
    ("qac"). `moments` are the moments of the fixed H or of the problem term
    in the start state. `events` maps "orthogonal"/"antipodal" to
    EventResults when event detection ran. The "qac" forms need H(t) phi0 =
    g(t/T) H_P phi0, so an initial term that does not annihilate the start
    state is a ValueError.
    """
    h = traj.hamiltonian
    qac = isinstance(h, InterpolatedHamiltonian)
    if qac:
        defect = float(np.linalg.norm(h.initial.apply(traj.initial_state)))
        if defect > GROUND_ENERGY_TOL:
            raise ValueError(f"initial term does not annihilate the start state "
                             f"(defect {defect:.3g}); not a valid annealing start")
    hbar = traj.hbar
    events = dict(events or {})
    slack_map = {label: traj.numerical_slack(label) for label in traj.distances}
    margins = []

    # master inequality, one worst-sample entry per beta policy
    for label, d in traj.distances.items():
        margins.append(_worst_sample_margin(
            f"general:{label}", hbar * d, traj.rhs_integrals[label],
            slack_map[label], traj.times))

    # survival floor over all samples
    if qac:
        bound = survival_lower_bound_qac(traj.times, moments.spread, h.schedule, h.total_time,
                                         hbar)
        char = char_times_qac(moments, schedule_integral(h.schedule), hbar)
    else:
        bound = survival_lower_bound_ti(traj.times, moments.spread, hbar)
        char = char_times_ti(moments, hbar)
    margins.append(_worst_sample_margin("survival", bound.value, traj.survival,
                                        traj.float_floor, traj.times))

    orth = events.get("orthogonal")
    anti = events.get("antipodal")
    measured_orth = orth.time if orth is not None and orth.triggered else None
    measured_anti = anti.time if anti is not None and anti.triggered else None

    def untriggered(name, lhs):
        return Margin(name=name, lhs=lhs, rhs=math.inf, slack=0.0,
                      note="not triggered; consistent (necessary condition)")

    if not qac:
        # event times against characteristic times, in time units
        for name, ev, lhs in (("orthogonal_time", orth, char.t_orth),
                              ("antipodal_time", anti, char.t_any)):
            if ev is not None:
                margins.append(Margin(name, lhs=lhs, rhs=ev.time, slack=ev.bracket_width)
                               if ev.triggered else untriggered(name, lhs))
    else:
        # schedule-weighted forms: at an event time t_e the accumulated rhs
        # integral must already exceed hbar*sqrt(2) (orthogonal, best policy)
        # or 2*hbar (antipodal, zero policy)
        for name, ev, lhs, labels in (
                ("qac_orthogonal", orth, hbar * math.sqrt(2.0), traj.rhs_integrals),
                ("qac_antipodal", anti, 2.0 * hbar, ["zero"])):
            labels = [label for label in labels if label in traj.rhs_integrals]
            if ev is not None and not ev.triggered:
                margins.append(untriggered(name, lhs))
            elif ev is not None and labels:
                at_event = {label: float(np.interp(ev.time, traj.times, traj.rhs_integrals[label]))
                            for label in labels}
                best = min(at_event, key=at_event.get)
                slack = slack_map[best] + ev.bracket_width * traj.integrand_max[best]
                margins.append(Margin(name, lhs, rhs=at_event[best], slack=slack,
                                      note=f"policy {best}"))

    return BoundReport(
        context="qac" if qac else "time-independent",
        moments=moments,
        characteristic=char,
        margins=tuple(margins),
        numerical_slack=slack_map,
        events=events,
        measured_orth_time=measured_orth,
        measured_antipodal_time=measured_anti,
        provenance=dict(provenance or {}),
    )
