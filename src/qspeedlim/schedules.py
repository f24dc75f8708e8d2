"""Interpolation schedules for annealing-style Hamiltonians.

A schedule is a pair of envelopes (f, g) on the unit interval with
f(0) = 1, f(1) = 0, g(0) = 0, g(1) = 1, both continuous and g >= 0, given by
its kind and that kind's parameters alone. Each kind's envelopes and their
closed-form integrals are computed here, from those parameters; f and g take a
point or an array of points.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .algebra import is_number, read_json

BOUNDARY_TOL = 1e-12

KINDS = ("linear", "poly", "tabulated")


class Schedule:
    """Interpolation envelopes of one kind: "linear" takes no parameter, "poly"
    a `power` and "tabulated" a `knots` table. Build via :meth:`linear`,
    :meth:`polynomial` or :meth:`tabulated`."""

    def __init__(self, kind, power=None, knots=None):
        if kind not in KINDS:
            raise ValueError(f"schedule kind must be one of {KINDS}, got {kind!r}")
        for name, value, owner in (("power", power, "poly"), ("knots", knots, "tabulated")):
            if value is not None and kind != owner:
                raise ValueError(f"a {kind} schedule takes no {name}, got {value!r}")
        if kind == "poly" and not (is_number(power) and 0 < power < math.inf):
            raise ValueError(f"power must be a positive finite number, got {power!r}")
        self.kind = kind
        self.power = float(power) if kind == "poly" else None
        self.knots = _checked_knots(knots) if kind == "tabulated" else None

    @classmethod
    def linear(cls) -> "Schedule":
        """f = 1 - tau, g = tau."""
        return cls("linear")

    @classmethod
    def polynomial(cls, power: float) -> "Schedule":
        """g = tau**power with f = 1 - g; power must be positive and finite."""
        return cls("poly", power=power)

    @classmethod
    def tabulated(cls, knots) -> "Schedule":
        """Piecewise-linear schedule through rows (tau, f, g).

        Knots must start at tau = 0 and end at tau = 1; g must be
        nonnegative at every knot (piecewise linearity then gives g >= 0
        everywhere). f may dip below zero but that is unusual enough to
        warrant a warning.
        """
        return cls("tabulated", knots=knots)

    def f(self, tau):
        return _envelope(self, tau, "f")

    def g(self, tau):
        return _envelope(self, tau, "g")

    def to_dict(self) -> dict:
        if self.kind == "linear":
            return {"kind": "linear"}
        if self.kind == "poly":
            return {"kind": "poly", "power": self.power}
        return {"kind": "tabulated", "knots": self.knots.tolist()}

    @classmethod
    def from_dict(cls, data: dict) -> "Schedule":
        if not isinstance(data, dict):
            raise ValueError(f"schedule must be an object with a 'kind', got {data!r}")
        kind = data.get("kind")
        if kind == "linear":
            return cls.linear()
        if kind == "poly":
            if "power" not in data:
                raise ValueError("poly schedule needs a 'power' field")
            return cls.polynomial(data["power"])
        if kind == "tabulated":
            if "knots" not in data:
                raise ValueError("tabulated schedule needs a 'knots' field")
            return cls.tabulated(data["knots"])
        raise ValueError(f"unknown schedule kind {kind!r}")


def _checked_knots(knots) -> np.ndarray:
    try:
        table = np.asarray(knots, dtype=float)
    except (TypeError, ValueError):
        table = np.empty(0)
    if table.ndim != 2 or table.shape[1] != 3 or len(table) < 2 or not np.isfinite(table).all():
        raise ValueError("knots must be a finite (m, 3) table of (tau, f, g) rows, m >= 2")
    taus = table[:, 0]
    if np.any(np.diff(taus) <= 0):
        raise ValueError("knot positions must be strictly increasing")
    if abs(taus[0]) > BOUNDARY_TOL or abs(taus[-1] - 1.0) > BOUNDARY_TOL:
        raise ValueError("knots must span tau = 0 to tau = 1")
    if np.any(table[:, 2] < 0):
        raise ValueError("g must be nonnegative at every knot")
    # the boundary values that linear and poly hold by construction
    for name, got, want in (("f(0)", table[0, 1], 1.0), ("f(1)", table[-1, 1], 0.0),
                            ("g(0)", table[0, 2], 0.0), ("g(1)", table[-1, 2], 1.0)):
        if abs(got - want) > BOUNDARY_TOL:
            raise ValueError(f"schedule boundary violated: {name} = {float(got)!r}, "
                             f"expected {want}")
    # every step weight is a difference of these integrals
    for column, name in ((1, "f"), (2, "g")):
        with np.errstate(over="ignore", invalid="ignore"):  # the overflow is the error here
            bad = np.flatnonzero(~np.isfinite(_knot_integral(taus, table[:, column], taus)))
        if bad.size:
            raise ValueError(f"the integral of {name} over the knots is not finite at "
                             f"tau = {taus[bad[0]]:g}; scale the knot values down")
    if np.any(table[:, 1] < 0):
        warnings.warn("tabulated schedule has f < 0 at some knots", stacklevel=4)
    return table


def _envelope(s: Schedule, tau, envelope: str):
    """The envelope g, or f, at tau in [0, 1]: g = tau^p (linear is p = 1)
    with f = 1 - g, or the piecewise-linear column of a tabulated schedule."""
    if s.kind == "tabulated":
        return np.interp(tau, s.knots[:, 0], s.knots[:, 1 if envelope == "f" else 2])
    g = tau**s.power if s.kind == "poly" else tau
    return 1.0 - g if envelope == "f" else g


def schedule_integral(s: Schedule, upto=1.0, envelope="g"):
    """Integral of the envelope g, or f, from 0 to `upto`, a point or an array
    of points in [0, 1], exact for every kind: u^(p+1) / (p+1) for g = tau^p
    (linear is p = 1) and u minus that for f = 1 - g, and the knot trapezoids
    below u plus the partial segment up to u for the piecewise-linear column
    of a tabulated schedule."""
    if envelope not in ("f", "g"):
        raise ValueError(f"envelope must be 'f' or 'g', got {envelope!r}")
    u = np.asarray(upto, dtype=float)
    if not np.all((0.0 <= u) & (u <= 1.0 + BOUNDARY_TOL)):  # NaN fails this test too
        raise ValueError(f"upto must lie in [0, 1], got {upto}")
    u = np.minimum(u, 1.0)
    if s.kind == "tabulated":
        out = _knot_integral(s.knots[:, 0], s.knots[:, 1 if envelope == "f" else 2], u)
    else:
        p = s.power if s.kind == "poly" else 1.0
        out = u ** (p + 1.0) / (p + 1.0)
        if envelope == "f":
            out = u - out
    return out if out.ndim else float(out)


def _knot_integral(taus, vals, u):
    """Integral from 0 to u of the piecewise-linear column vals on the knots
    taus: the trapezoids below u plus the partial segment up to u."""
    below = np.append(0.0, np.cumsum(np.diff(taus) * (vals[1:] + vals[:-1]) / 2.0))
    k = np.clip(np.searchsorted(taus, u, side="right") - 1, 0, len(taus) - 2)
    return below[k] + (u - taus[k]) * (vals[k] + np.interp(u, taus, vals)) / 2.0


def load_schedule(path) -> Schedule:
    return Schedule.from_dict(read_json(path))
