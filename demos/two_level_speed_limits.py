"""Closed-form two-level systems: where the speed limits sit and how close
real dynamics gets to them.

Two textbook cases. A gap Hamiltonian diag(0, 1) started in the plus state
reaches orthogonality at t = pi, while the characteristic time says it could
not happen before 2 sqrt(2). A symmetric gap diag(-1/2, 1/2) reaches the
antipodal state (distance 2 from the start) at t = 2 pi against a floor of 4.
The script evolves both, detects the events, checks every inequality, and
writes the survival curve next to its lower bound. With matplotlib available
it also renders the curves to PNG; the CSV carries the same data either way.
"""

import math
import os
from pathlib import Path

import numpy as np

from qspeedlim import (
    HermitianOperator,
    IntegratorConfig,
    StateVector,
    run_time_independent,
    survival_lower_bound_ti,
    write_report_json,
)
from qspeedlim.propagate import write_csv_columns

OUT = Path(os.environ.get("QSPEEDLIM_OUT", "demo-output")) / "two-level"
OUT.mkdir(parents=True, exist_ok=True)

PLUS = StateVector.normalized(np.array([1.0, 1.0]))


def run_case(name, diag, horizon):
    print(f"== {name}: H = diag({diag[0]:g}, {diag[1]:g}), plus start state ==")
    h = HermitianOperator(np.diag(diag).astype(complex))
    report, traj = run_time_independent(h, PLUS, IntegratorConfig(), {"demo": name},
                                        horizon=horizon)
    m, char = report.moments, report.characteristic
    print(f"moments: mean {m.energy:g}, spread {m.spread:g}")
    print(f"characteristic times: antipodal >= {char.t_any:g}, "
          f"orthogonality >= {char.t_orth:.6f}")

    for kind, ev in report.events.items():
        if ev.triggered:
            print(f"{kind} event at t = {ev.time:.9f} "
                  f"(bracket width {ev.bracket_width:.2e})")
        else:
            print(f"{kind} event: not reached inside horizon "
                  f"(functional minimum {ev.functional_value:.3g})")

    for margin in report.margins:
        state = "ok" if margin.satisfied else "VIOLATED"
        note = f"  ({margin.note})" if margin.note else ""
        print(f"  {margin.name:<18} lhs {margin.lhs:>10.6g}  "
              f"rhs {margin.rhs:>10.6g}  [{state}]{note}")
    write_report_json(report, OUT / f"{name}-report.json")

    curve_path = OUT / f"{name}-survival.csv"
    bound = survival_lower_bound_ti(traj.times, m.spread, 1.0)
    write_csv_columns(curve_path, ["t", "survival", "survival_bound"],
                      [traj.times, traj.survival, bound.value])
    print(f"wrote {curve_path}")
    print()
    return traj, m, report


traj_gap, m_gap, rep_gap = run_case("orthogonal-gap", [0.0, 1.0], horizon=4.0)
traj_sym, m_sym, rep_sym = run_case("antipodal-gap", [-0.5, 0.5], horizon=8.0)

print("closed-form cross-checks:")
print(f"  measured orthogonality time minus pi: "
      f"{rep_gap.measured_orth_time - math.pi:+.2e}")
print(f"  measured antipodal time minus 2 pi:   "
      f"{rep_sym.measured_antipodal_time - 2.0 * math.pi:+.2e}")
print(f"  gap-case survival at t = 1: {np.interp(1.0, traj_gap.times, traj_gap.survival):.9f}"
      f" (cos^2(1/2) = {math.cos(0.5) ** 2:.9f})")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, axes = plt.subplots(1, 2, figsize=(10, 4), sharey=True)
    for ax, traj, m, title in [
        (axes[0], traj_gap, m_gap, "gap diag(0, 1)"),
        (axes[1], traj_sym, m_sym, "symmetric gap diag(-1/2, 1/2)"),
    ]:
        bound = survival_lower_bound_ti(traj.times, m.spread, 1.0)
        ax.plot(traj.times, traj.survival, label="survival P(t)")
        ax.plot(traj.times, bound.value, "--", label="lower bound")
        ax.plot(traj.times, traj.distances["zero"] / 2.0, ":",
                label="d(t, 0) / 2")
        ax.set_xlabel("t (hbar-relative)")
        ax.set_title(title)
        ax.legend(fontsize=8)
    fig.tight_layout()
    png = OUT / "two-level-curves.png"
    fig.savefig(png, dpi=120)
    print(f"wrote {png}")
except ImportError:
    print("matplotlib not installed; CSV output only")
