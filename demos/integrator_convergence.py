"""Integrator diagnostics: exactness, convergence orders, and norm drift.

The midpoint-exponential stepper applies exp(-i H dt/hbar), with H the exact
mean of the schedule envelopes over the step, as a Taylor series of
matrix-vector products truncated at round-off; only a step too coarse for
one series of at most 20 terms diagonalizes H instead. For a
time-independent Hamiltonian that IS the propagator (solved in closed form
from one eigh), so the step error sits at round-off and the order probe
reports "exact". On an interpolated Hamiltonian it is a second-order method
that stays unitary per step to round-off; rk4 converges at fourth order but
lets the norm drift. The script measures all of this on the single-qubit
projector interpolation and prints the step-halving table behind the order-2
claim.
"""

import numpy as np

from qspeedlim import (
    HermitianOperator,
    IntegratorConfig,
    InterpolatedHamiltonian,
    Schedule,
    StateVector,
    convergence_order,
    evolve,
    transverse_initial,
)

ih = InterpolatedHamiltonian(
    initial=transverse_initial(1),
    problem=HermitianOperator(np.diag([0.0, 1.0]).astype(complex)),
    schedule=Schedule.linear(),
    total_time=10.0,
)
psi0 = StateVector.uniform(2)
fixed = HermitianOperator(np.diag([0.0, 1.0]).astype(complex))
plus = StateVector.normalized(np.array([1.0, 1.0]))

print("== order probes (final-state error against a 16x refined reference) ==")
res = convergence_order(fixed, plus, horizon=10.0, cfg=IntegratorConfig(steps=100))
print(f"midpoint-exponential, fixed H: {'exact' if res.exact else res.order}")

res = convergence_order(ih, psi0, horizon=10.0, cfg=IntegratorConfig(steps=50))
print(f"midpoint-exponential, interpolated H: order {res.order:.3f} (expect ~2)")

res = convergence_order(ih, psi0, horizon=10.0,
                        cfg=IntegratorConfig(method="rk4", steps=100,
                                             norm_tolerance=1e-7))
print(f"rk4, interpolated H: order {res.order:.3f} (expect ~4)")
print()

print("== per-step norm drift over 2000 steps of the interpolation ==")
for method, tol in (("midpoint-exponential", None), ("rk4", None)):
    traj = evolve(ih, psi0, horizon=10.0,
                  cfg=IntegratorConfig(method=method, steps=2000))
    norms = np.linalg.norm(traj.grid_states(), axis=1)
    per_step = float(np.max(np.abs(np.diff(norms))))
    print(f"{method:<22} max per-step drift {per_step:.3e}, "
          f"max total deviation {traj.norm_max_dev:.3e}")
print()

print("== step-halving table, midpoint-exponential final survival ==")
steps_list = (125, 250, 500, 1000, 2000)
finals = [float(evolve(ih, psi0, horizon=10.0,
                       cfg=IntegratorConfig(steps=n)).survival[-1])
          for n in steps_list]
print(f"{'steps':>6} {'P(T)':>18} {'change':>12} {'ratio':>7}")
prev_change = None
for i, (n, p) in enumerate(zip(steps_list, finals)):
    if i == 0:
        print(f"{n:>6} {p:>18.12f} {'':>12} {'':>7}")
        continue
    change = abs(p - finals[i - 1])
    ratio = f"{prev_change / change:.2f}" if prev_change else ""
    print(f"{n:>6} {p:>18.12f} {change:>12.3e} {ratio:>7}")
    prev_change = change
print()
print("a ratio of ~4 per halving is the signature of a second-order method;")
print("the trajectory-level checks in the test suite pin exactly this.")
