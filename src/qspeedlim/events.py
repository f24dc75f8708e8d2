"""Detection and refinement of the two trajectory events the bounds govern:
first orthogonality (overlap reaches 0, distance sqrt(2)) and first antipodal
reach (distance 2 under the zero reference phase).

Both events minimize a nonnegative functional of the overlap, so detection is
a grid scan for local minima below a coarse threshold followed by Brent's
refinement, from the grid minimum, its two neighbours and their samples, on
the grid in s = t/hbar that the run walked, to a width relative to its
s-horizon. Trajectory.overlap_at_s gives the overlap under the Hamiltonian
the trajectory carries (a spectral sum, or one short step from a grid state
the step loop kept), so no caller passes H and no evaluation depends on the
time unit; event times and widths leave multiplied by hbar.
Where round-off could steer the search, refinement stops and certifies its
bracket instead: each end's value exceeds the best by more than round-off, or
no probe on its side rose, so a flat minimum reports the bracket it is known
to lie in.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .algebra import overlap_distance
from .propagate import Trajectory

KINDS = ("orthogonal", "antipodal")

NEAR_MISS_CEILING = 1e-3

ROUNDOFF = 1e-14  # on a functional value: overlaps of unit vectors err by a few ulp of 1

# a guard, not the stopping rule: golden steps alone take a bracket of two
# grid steps to the goal, 1e-9 of an n-step horizon, in ceil(log_phi(2e9 / n))
# <= 45 steps; parabolic steps, and golden steps from x on an end, take fewer
_GUARD_STEPS = 60

_CGOLD = (3.0 - math.sqrt(5.0)) / 2.0  # a golden step's share of the larger part

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
        if not 0 < self.tolerance < math.inf:
            raise ValueError(f"tolerance must be positive and finite, got {self.tolerance!r}")
        if not abs(self.coarse_threshold) < math.inf:  # NaN fails this test too
            raise ValueError(f"coarse_threshold must be finite, got {self.coarse_threshold!r}")


@dataclass(frozen=True)
class EventResult:
    triggered: bool
    time: float | None
    bracket_width: float | None
    functional_value: float
    kind: str
    note: str | None = None


def _brent_min(f, points, values, width_goal, noise=0.0):
    """Brent's minimization (Brent 1973, ch. 5) on the bracket (a, x, b) with
    known values (fa, fx, fb), fx the least: parabolic steps through the three
    best points, the first through the bracket, golden-section steps where
    they fail, until the bracket reaches width_goal; returns (x, f(x), width).

    An end moves only on a comparison that differs by more than `noise`, so
    round-off cannot steer the bracket. On a tie within `noise`, each side is
    certified by probes at x -+ h, h doubling, until one exceeds f(x) + noise:
    the width returned is that certified bracket. A side whose end ties f(x),
    as x = b at the horizon, is probed from the tied step and may keep its end."""
    (a, x, b), (fa, fx, fb) = points, values
    (fw, w), (fv, v) = sorted(((fa, a), (fb, b)))
    d = e = b - a  # the bracket stands in for the last two steps, so vertices come first
    for _ in range(_GUARD_STEPS):
        if b - a <= width_goal:
            break
        # steps of at least tol: the last two, one each side of x, leave 2 tol
        m, tol = 0.5 * (a + b), width_goal / 3.0 + math.ulp(abs(a) + abs(b))
        r, q = (x - w) * (fx - fv), (x - v) * (fx - fw)
        p, q = (x - v) * q - (x - w) * r, 2.0 * (q - r)
        p, q = (-p, q) if q > 0 else (p, -q)
        if abs(e) > tol and abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x):
            e, d = d, p / q  # the parabola's vertex, kept off the ends
            if x + d - a < 2.0 * tol or b - x - d < 2.0 * tol:
                d = tol if x < m else -tol
        else:  # a golden step into the larger part
            e = (a if x >= m else b) - x
            d = _CGOLD * e
        u = x + (d if abs(d) >= tol else math.copysign(tol, d))
        fu = f(u)
        if abs(fu - fx) <= noise:  # a tie: x and u sit on the minimum's round-off floor
            step = abs(u - x)
            (fx, x) = best = min((fx, x), (fu, u))
            ends = []
            for end, f_end, sign in ((a, fa, -1.0), (b, fb, 1.0)):
                # first where a parabola through x and the end rises by 2 noise
                rise = f_end - fx
                h = max(step, abs(end - x) * math.sqrt(2.0 * noise / rise)) if rise > noise else step
                while sign * (end - x) > h:
                    fy = f(x + sign * h)
                    best = min(best, (fy, x + sign * h))
                    if fy > fx + noise:
                        end = x + sign * h
                        break
                    h *= 2.0
                ends.append(end)
            (fx, x), (a, b) = best, ends
            break
        if fu < fx:
            a, fa, b, fb = (x, fx, b, fb) if u >= x else (a, fa, x, fx)
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            a, fa, b, fb = (a, fa, u, fu) if u >= x else (u, fu, b, fb)
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v in (x, w):
                v, fv = u, fu
    return x, fx, b - a


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
    for k in (np.flatnonzero((here <= threshold) & (here <= samples[:-1]) & right_ok) + 1).tolist():
        idx = [k - 1, k, min(k + 1, n)]
        s_min, f_min, width = _brent_min(f_at, [i * traj.ds for i in idx], samples[idx].tolist(),
                                         width_goal, ROUNDOFF)
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
