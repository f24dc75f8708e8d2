"""Schrodinger-evolution simulator with quantum-speed-limit bound checking.

The package simulates state evolution under time-independent and
annealing-style interpolated Hamiltonians, detects orthogonality and
antipodal events on the trajectories, and checks every time-energy
uncertainty bound the toolkit knows about, reporting margins rather than
point verdicts. All quantities are hbar-relative unless a config says
otherwise.
"""

from .algebra import (
    DIM_CAP,
    HermitianOperator,
    StateVector,
    distance,
    expectation,
    inner_product,
    random_state,
    residual_norm,
    tensor,
    variance_sqrt,
)
from .bounds import (
    BoundReport,
    CharacteristicTimes,
    DecayDiagnostic,
    Margin,
    MomentPair,
    SurvivalBound,
    char_times_qac,
    char_times_ti,
    check_inequalities,
    exp_decay_diagnostic,
    state_moments,
    survival_lower_bound_qac,
    survival_lower_bound_ti,
    write_report_json,
)
from .campaigns import (
    Campaign,
    CampaignResult,
    load_campaign,
    run_analytic_suite,
    run_campaign,
    run_entanglement_compare,
    run_gue_ensemble,
    run_qac,
    run_time_independent,
    write_campaign_result,
)
from .events import (
    EventQuery,
    EventResult,
    first_antipodal,
    first_orthogonal,
)
from .hamiltonians import (
    InterpolatedHamiltonian,
    IsingInstance,
    ising_problem,
    load_ising_instance,
    noninteracting_pair,
    random_hermitian,
    shift_ground_to_zero,
    transverse_initial,
)
from .propagate import (
    BetaPolicy,
    ConvergenceResult,
    IntegrationError,
    IntegratorConfig,
    Trajectory,
    convergence_order,
    evolve,
    write_trajectory_csv,
)
from .schedules import Schedule, load_schedule, schedule_integral

__version__ = "0.1.0"

__all__ = [
    "DIM_CAP",
    "StateVector",
    "HermitianOperator",
    "inner_product",
    "distance",
    "expectation",
    "variance_sqrt",
    "residual_norm",
    "tensor",
    "random_state",
    "Schedule",
    "schedule_integral",
    "load_schedule",
    "IsingInstance",
    "ising_problem",
    "load_ising_instance",
    "transverse_initial",
    "noninteracting_pair",
    "shift_ground_to_zero",
    "random_hermitian",
    "InterpolatedHamiltonian",
    "IntegratorConfig",
    "BetaPolicy",
    "Trajectory",
    "IntegrationError",
    "ConvergenceResult",
    "evolve",
    "convergence_order",
    "write_trajectory_csv",
    "EventQuery",
    "EventResult",
    "first_orthogonal",
    "first_antipodal",
    "MomentPair",
    "CharacteristicTimes",
    "SurvivalBound",
    "DecayDiagnostic",
    "Margin",
    "BoundReport",
    "state_moments",
    "char_times_ti",
    "char_times_qac",
    "survival_lower_bound_ti",
    "survival_lower_bound_qac",
    "exp_decay_diagnostic",
    "check_inequalities",
    "write_report_json",
    "Campaign",
    "CampaignResult",
    "run_analytic_suite",
    "run_gue_ensemble",
    "run_qac",
    "run_entanglement_compare",
    "run_time_independent",
    "run_campaign",
    "load_campaign",
    "write_campaign_result",
]
