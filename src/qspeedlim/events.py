"""Detection and refinement of the two trajectory events the bounds govern:
first orthogonality (overlap reaches 0, distance sqrt(2)) and first antipodal
reach (distance 2 under the zero reference phase).

Both events minimize a nonnegative functional of the overlap, so detection is
a grid scan for local minima below a coarse threshold followed by
golden-section refinement on the grid in s = t/hbar that the run walked, to a
width relative to its s-horizon. Trajectory.overlap_at_s gives the overlap
under the Hamiltonian the trajectory carries (a spectral sum, or one short
step from a grid state the step loop kept), so no caller passes H and no
evaluation depends on the time unit; event times and widths leave multiplied
by hbar.
The reported bracket stops shrinking once round-off can steer the search, so
a flat minimum reports the bracket it is known to lie in.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .algebra import overlap_distance
from .propagate import Trajectory

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

KINDS = ("orthogonal", "antipodal")

NEAR_MISS_CEILING = 1e-3

ROUNDOFF = 1e-14  # on a functional value: overlaps of unit vectors err by a few ulp of 1

# a guard, not the stopping rule: a bracket of at most two grid steps meets the
# goal, 1e-9 of an n-step horizon, in ceil(log_phi(2e9 / n)) <= 45 golden steps
_GUARD_STEPS = 60

_log = logging.getLogger(__name__)
_log.addHandler(logging.NullHandler())  # silent unless the application configures logging


@dataclass(frozen=True)
class EventQuery:
    """A grid minimum at or below coarse_threshold is refined to the width
    goal; the first in time order that reaches tolerance triggers."""

    kind: str
    tolerance: float = 1e-6
    coarse_threshold: float = 0.05

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")


@dataclass(frozen=True)
class EventResult:
    triggered: bool
    time: float | None
    bracket_width: float | None
    functional_value: float
    kind: str
    note: str | None = None


def _golden_min(f, a, b, width_goal, noise=0.0):
    """Golden-section minimization on [a, b] to a bracket of width_goal;
    returns (x, f(x), width). Once the two interior values differ by less
    than `noise`, round-off may pick the side, so the width returned is that
    step's bracket, the last one known to hold the minimum."""
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    held = None
    for _ in range(_GUARD_STEPS):
        if b - a <= width_goal:
            break
        if held is None and abs(fc - fd) < noise:
            held = b - a
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    width = b - a if held is None else held
    return (c, fc, width) if fc < fd else (d, fd, width)


def _scan_and_refine(traj: Trajectory, q: EventQuery | None, kind: str, functional):
    q = q if q is not None else EventQuery(kind=kind)
    if q.kind != kind:
        raise ValueError(f"query kind {q.kind!r} does not match first_{kind}")
    samples = functional(traj.overlaps)
    n = len(samples) - 1

    f_at = lambda s: float(functional(traj.overlap_at_s(s)))

    threshold = max(q.coarse_threshold, q.tolerance)
    width_goal = n * traj.ds * 1e-9
    best = float(np.min(samples))
    # grid local minima below the threshold (the last sample needs no right neighbour)
    here = samples[1:]
    right_ok = np.append(here[:-1] <= here[1:], True)
    for k in np.flatnonzero((here <= threshold) & (here <= samples[:-1]) & right_ok) + 1:
        a, b = (k - 1) * traj.ds, min(k + 1, n) * traj.ds
        s_min, f_min, width = _golden_min(f_at, a, b, width_goal, ROUNDOFF)
        best = min(best, f_min)
        if f_min <= q.tolerance:
            return EventResult(triggered=True, time=float(s_min * traj.hbar),
                               bracket_width=float(width * traj.hbar),
                               functional_value=float(f_min), kind=q.kind)

    note = None
    if q.kind == "orthogonal" and q.tolerance < best <= NEAR_MISS_CEILING:
        note = (
            f"minimum overlap {best:.3g} sits between the tolerance and "
            f"{NEAR_MISS_CEILING:g}; the step grid may have missed a narrower crossing"
        )
        _log.warning(note)
    return EventResult(triggered=False, time=None, bracket_width=None,
                       functional_value=float(best), kind=q.kind, note=note)


def first_orthogonal(traj: Trajectory, q: EventQuery | None = None) -> EventResult:
    """First time |<psi(t)|phi0>| falls to the tolerance, or the achieved
    minimum if it never does. Phase-invariant, so no beta policy enters."""
    return _scan_and_refine(traj, q, "orthogonal", np.abs)


def first_antipodal(traj: Trajectory, q: EventQuery | None = None) -> EventResult:
    """First time the zero-phase distance d(t, 0) reaches 2 (functional
    2 - d), or the supremum-distance record if it never does."""
    if "zero" not in traj.distances:
        raise ValueError("antipodal detection needs the trajectory to carry the zero beta policy")
    return _scan_and_refine(traj, q, "antipodal", lambda o: 2.0 - overlap_distance(o))
