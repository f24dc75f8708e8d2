"""Verification campaigns: batches of propagate-detect-check runs with
deterministic aggregation.

Four campaign kinds ship: the closed-form two-level suite, random-matrix
ensembles, annealing-style interpolation runs over Ising instances, and an
exploratory product-versus-entangled decay comparison. Each member run yields
one BoundReport; results aggregate into margin quantiles, event trigger
rates, and a violations list that is expected to stay empty.

A run's identity comes from _identity alone: its config_hash digests the
kind, the campaign's parameters and every IntegratorConfig field (so adding
or removing a field re-hashes every campaign), and each member's provenance
is {"campaign": kind, **fields, "config_hash": ...} with fields case
(analytic-two-level); dim, seed, shift_ground (gue-ensemble); instance, T,
shift_problem_ground (qac-ising); seed, variant, subsystem_dim
(entanglement-compare).

A campaign file is read through algebra.from_json, as are its integrator,
instance and schedule (spelled sched). Its parameters are the runner's keywords
less integrator and initial_term: an unknown one is an error, and so is a
missing required one (dim and seeds, or seed_range [a, b] read as range(a, b),
for gue-ensemble; instance for qac-ising).
"""

from __future__ import annotations

import csv
import hashlib
import json
import re
from dataclasses import asdict, dataclass, field
from functools import partial
from numbers import Integral, Real
from pathlib import Path

import numpy as np

from .algebra import (HermitianOperator, StateVector, from_json, is_number, random_state,
                      read_json)
from .bounds import (
    BoundReport,
    char_times_ti,
    check_inequalities,
    state_moments,
    write_report_json,
)
from .events import first_antipodal, first_orthogonal
from .hamiltonians import (
    InterpolatedHamiltonian,
    IsingInstance,
    ising_problem,
    noninteracting_pair,
    random_hermitian,
    shift_ground_to_zero,
    transverse_initial,
)
from .propagate import BetaPolicy, IntegratorConfig, evolve
from .schedules import Schedule, schedule_integral

# types of the scalar runner parameters a campaign file may set
_PARAM_TYPES = {"dim": Integral, "subsystem_dim": Integral, "horizon_mult": Real,
                "shift_ground": bool, "shift_problem_ground": bool}


@dataclass(frozen=True)
class Campaign:
    """Declarative campaign definition; a JSON integrator becomes an IntegratorConfig."""

    kind: str
    parameters: dict = field(default_factory=dict)
    integrator: IntegratorConfig = field(default_factory=IntegratorConfig)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if not isinstance(self.parameters, dict):
            raise ValueError(f"campaign parameters must be given as a JSON object, "
                             f"got {self.parameters!r}")
        if not isinstance(self.integrator, IntegratorConfig):
            object.__setattr__(self, "integrator", from_json(
                IntegratorConfig, self.integrator, "integrator fields"))

    @classmethod
    def from_dict(cls, data: dict) -> "Campaign":
        return from_json(cls, data, "campaign fields")


def load_campaign(path) -> Campaign:
    return Campaign.from_dict(read_json(path))


@dataclass(frozen=True)
class CampaignResult:
    kind: str
    reports: tuple
    violations: tuple
    summary: dict

    @property
    def passed(self) -> bool:
        return len(self.violations) == 0


def _provenance_key(report: BoundReport) -> str:
    return json.dumps(report.provenance, sort_keys=True)


def _native(value):
    """value as JSON reads it back: numpy scalars become Python ones, tuples lists."""
    return json.loads(json.dumps(value, default=lambda v: v.tolist()))


def _identity(kind: str, integrator: IntegratorConfig | None, **params) -> tuple:
    """(integrator config, member provenance builder, collector with kind and
    config_hash bound) of one campaign run, as the module docstring describes."""
    cfg = integrator if integrator is not None else IntegratorConfig()
    payload = _native({"kind": kind, **params, "integrator": asdict(cfg)})
    config_hash = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:12]

    def provenance(**member_fields) -> dict:
        return {"campaign": kind, **_native(member_fields), "config_hash": config_hash}

    return cfg, provenance, partial(_collect, kind, config_hash=config_hash)


def _checked_seeds(seeds, horizon_mult) -> list:
    """An ensemble's seed list, after its horizon multiple is checked."""
    if not horizon_mult > 0:
        raise ValueError("horizon_mult must be positive")
    seeds = _native(list(seeds))
    if not seeds:
        raise ValueError("seed range must be nonempty")
    return seeds


def _collect(kind: str, reports, config_hash: str, extras: dict | None = None) -> CampaignResult:
    reports = tuple(sorted(reports, key=_provenance_key))
    violations = []
    for rep in reports:
        for margin in rep.violations:
            violations.append({
                "provenance": rep.provenance,
                "margin": margin.name,
                "lhs": margin.lhs,
                "rhs": margin.rhs,
                "slack": margin.slack,
            })

    rates = {}
    for ev_kind in ("orthogonal", "antipodal"):
        queried = [r for r in reports if ev_kind in r.events]
        if queried:
            hits = sum(1 for r in queried if r.events[ev_kind].triggered)
            rates[ev_kind] = hits / len(queried)
        else:
            rates[ev_kind] = None

    quantiles = {}
    by_name = {}
    for rep in reports:
        for m in rep.margins:
            if np.isfinite(m.margin):
                by_name.setdefault(m.name, []).append(m.margin)
    for name in sorted(by_name):
        vals = np.array(by_name[name])
        q = np.percentile(vals, [0, 25, 50, 75, 100])
        quantiles[name] = {"min": float(q[0]), "q25": float(q[1]),
                           "median": float(q[2]), "q75": float(q[3]),
                           "max": float(q[4])}

    summary = {
        "kind": kind,
        "config_hash": config_hash,
        "n_runs": len(reports),
        "n_violations": len(violations),
        "trigger_rates": rates,
        "margin_quantiles": quantiles,
        "violations": violations,
    }
    if extras:
        summary.update(extras)
    return CampaignResult(kind=kind, reports=reports, violations=tuple(violations),
                          summary=summary)


def _detect_events(traj) -> dict:
    return {"orthogonal": first_orthogonal(traj), "antipodal": first_antipodal(traj)}


def _fallback_horizon(char, horizon_mult: float, hbar: float) -> float:
    """horizon_mult characteristic times, or one hbar when neither is reachable."""
    for name in ("t_orth", "t_any"):
        t = getattr(char, name)
        if np.isfinite(t):
            horizon = horizon_mult * t
            if not np.isfinite(horizon):
                raise ValueError(f"horizon_mult = {horizon_mult:g} times the characteristic "
                                 f"time {name} = {t:g} overflows the float range")
            return horizon
    return hbar


def run_time_independent(H: HermitianOperator, psi0: StateVector, cfg: IntegratorConfig,
                         provenance: dict, horizon: float | None = None,
                         horizon_mult: float = 4.0, beta: float | None = None,
                         events: bool = True) -> tuple:
    """(report, trajectory) of the paper's fixed-H recipe; report.moments are
    those of H in psi0. The horizon defaults to horizon_mult characteristic
    times (_fallback_horizon), the policies are zero and a constant (the mean
    energy, labelled "opt", unless beta is given), and both events are
    detected unless events is False."""
    m = state_moments(H, psi0)
    if horizon is None:
        horizon = _fallback_horizon(char_times_ti(m, cfg.hbar), horizon_mult, cfg.hbar)
    reference = (BetaPolicy.constant(m.energy, name="opt") if beta is None
                 else BetaPolicy.constant(beta))
    traj = evolve(H, psi0, horizon, cfg=cfg, betas=[BetaPolicy.zero(), reference])
    report = check_inequalities(traj, m, events=_detect_events(traj) if events else None,
                                provenance=provenance)
    return report, traj


def run_analytic_suite(integrator: IntegratorConfig | None = None) -> CampaignResult:
    """The four closed-form cases: an orthogonality-reaching gap system, an
    antipodal-reaching symmetric gap, frozen dynamics, and a stationary
    eigenstate. Every inequality must hold and the event times are known.
    The horizons are multiples of hbar, so every hbar walks the same s = t/hbar."""
    cfg, provenance, collect = _identity("analytic-two-level", integrator)
    plus = StateVector.normalized(np.array([1.0, 1.0]))
    cases = [
        ("orthogonal-two-level",
         HermitianOperator(np.diag([0.0, 1.0]).astype(complex)), plus, 4.0),
        ("antipodal-two-level",
         HermitianOperator(np.diag([-0.5, 0.5]).astype(complex)), plus, 8.0),
        ("null-hamiltonian",
         HermitianOperator(np.zeros((2, 2), dtype=complex)), plus, 1.0),
        ("eigenstate",
         HermitianOperator(np.diag([0.0, 1.0]).astype(complex)),
         StateVector.basis(2, 0), 4.0),
    ]

    def member(case):
        name, H, psi0, mult = case
        horizon = mult * cfg.hbar
        if not np.isfinite(horizon):
            raise ValueError(f"the {name} case's horizon of {mult:g} hbar overflows the "
                             f"float range at hbar = {cfg.hbar:g}")
        return run_time_independent(H, psi0, cfg, provenance(case=name), horizon=horizon)[0]

    return collect([member(case) for case in cases])


def run_gue_ensemble(dim: int, seeds, horizon_mult: float = 4.0,
                     shift_ground: bool = False,
                     integrator: IntegratorConfig | None = None) -> CampaignResult:
    """Random Hermitian matrices against Haar-random start states. The
    horizon is a multiple of the orthogonality characteristic time, so
    trigger rates stay informative across dimensions."""
    seeds = _checked_seeds(seeds, horizon_mult)
    cfg, provenance, collect = _identity("gue-ensemble", integrator, dim=dim, seeds=seeds,
                                         horizon_mult=horizon_mult, shift_ground=shift_ground)

    def member(seed):
        H = random_hermitian(dim, seed)
        if shift_ground:
            H = shift_ground_to_zero(H)
        return run_time_independent(
            H, random_state(dim, [seed, 17]), cfg, horizon_mult=horizon_mult,
            provenance=provenance(dim=dim, seed=seed, shift_ground=shift_ground))[0]

    return collect([member(seed) for seed in seeds])


def run_qac(instance: IsingInstance, sched: Schedule | None = None,
            T_values=(1.0, 4.0, 16.0), shift_problem_ground: bool = False,
            initial_term: HermitianOperator | None = None,
            integrator: IntegratorConfig | None = None) -> CampaignResult:
    """Interpolated-Hamiltonian runs from the uniform superposition.

    The initial term defaults to the transverse-field sum whose ground state
    is exactly that superposition at energy zero; a custom initial term must
    annihilate it too, or check_inequalities rejects the run. Reports use
    the problem-term moments and the schedule-weighted inequality forms; a
    final-state population diagnostic against the problem ground space is
    summarized per T (reported, never asserted)."""
    sched = sched if sched is not None else Schedule.linear()
    T_values = [float(T) for T in T_values]
    if not T_values:
        raise ValueError("T_values must be nonempty")
    cfg, provenance, collect = _identity(
        "qac-ising", integrator, instance=instance.to_dict(), schedule=sched.to_dict(),
        T_values=T_values, shift_problem_ground=shift_problem_ground)
    H_I = initial_term if initial_term is not None else transverse_initial(instance.n)
    H_P = ising_problem(instance)
    if shift_problem_ground:
        H_P = shift_ground_to_zero(H_P)
    if H_I.dim != H_P.dim:
        raise ValueError("initial term dimension does not match the instance")
    psi0 = StateVector.uniform(H_P.dim)
    m = state_moments(H_P, psi0)

    # adiabatic diagnostic: final population of H_P's ground space, diagonal minima to 1e-9 max|E|
    energies = H_P.entries.diagonal().real
    ground = np.flatnonzero(np.abs(energies - energies.min()) <= 1e-9 * np.max(np.abs(energies)))

    def member(T):
        ih = InterpolatedHamiltonian(initial=H_I, problem=H_P, schedule=sched,
                                     total_time=T)
        betas = [BetaPolicy.zero(), BetaPolicy.proportional(m.energy, name="gprop")]
        traj = evolve(ih, psi0, T, cfg=cfg, betas=betas)
        rep = check_inequalities(
            traj, m, events=_detect_events(traj),
            provenance=provenance(instance=instance.to_dict(), T=T,
                                  shift_problem_ground=shift_problem_ground))
        pop = float(np.sum(np.abs(traj.final_state.amplitudes[ground]) ** 2))
        diag = {"T": T, "final_survival": float(traj.survival[-1]),
                "problem_ground_population": pop}
        return rep, diag

    reports, diags = zip(*(member(T) for T in T_values))
    return collect(reports, extras={"qac_diagnostics": sorted(diags, key=lambda d: d["T"]),
                                    "g_integral": schedule_integral(sched)})


def run_entanglement_compare(subsystem_dim: int = 2, seeds=range(24),
                             horizon_mult: float = 4.0,
                             integrator: IntegratorConfig | None = None) -> CampaignResult:
    """Product versus entangled start states of two identical uncoupled
    subsystems, at matched mean energy where construction allows.

    Per seed, three states evolve under H (x) 1 + 1 (x) H: the product a (x) a
    of a Haar draw with itself, the correlated superposition over doubled
    eigenvectors with the product's eigenbasis weights (same mean energy,
    doubled spread instead of the product's sqrt(2) factor), and the uniform
    energy-basis superposition. The half-life (first time survival drops
    below 1/2) and the spread are recorded per run; their correlation is
    summarized. Only the inequality checks are asserted; any decay speedup is
    reported as data."""
    seeds = _checked_seeds(seeds, horizon_mult)
    cfg, provenance, collect = _identity("entanglement-compare", integrator,
                                         subsystem_dim=subsystem_dim, seeds=seeds,
                                         horizon_mult=horizon_mult)

    def member(seed):
        h1 = random_hermitian(subsystem_dim, seed)
        Hc = noninteracting_pair(h1, h1)
        w, V = np.linalg.eigh(h1.entries)
        a = random_state(subsystem_dim, [seed, 21]).amplitudes
        coeffs = V.conj().T @ a
        weights = np.sqrt(np.abs(coeffs) ** 2)
        doubled = np.stack([np.kron(V[:, k], V[:, k]) for k in range(subsystem_dim)])
        variants = {
            "product": np.kron(a, a),
            "correlated": weights @ doubled,
            "bell": np.sum(doubled, axis=0) / np.sqrt(subsystem_dim),
        }
        out = []
        for variant, amps in variants.items():
            rep, traj = run_time_independent(
                Hc, StateVector.normalized(amps), cfg, horizon_mult=horizon_mult, events=False,
                provenance=provenance(seed=seed, variant=variant, subsystem_dim=subsystem_dim))
            out.append((rep, {"seed": seed, "variant": variant,
                              "spread": rep.moments.spread,
                              "half_time": _half_time(traj)}))
        return out

    reports, records = zip(*(pair for seed in seeds for pair in member(seed)))
    records = sorted(records, key=lambda r: (r["seed"], r["variant"]))

    decayed = [r for r in records if r["half_time"] is not None]
    corr = None
    if len(decayed) >= 3:
        spreads = np.array([r["spread"] for r in decayed])
        halves = np.array([r["half_time"] for r in decayed])
        if np.std(spreads) > 0 and np.std(halves) > 0:
            corr = float(np.corrcoef(spreads, halves)[0, 1])
    variant_stats = {}
    for variant in ("product", "correlated", "bell"):
        rows = [r for r in records if r["variant"] == variant]
        finished = [r["half_time"] for r in rows if r["half_time"] is not None]
        variant_stats[variant] = {
            "mean_spread": float(np.mean([r["spread"] for r in rows])),
            "mean_half_time": float(np.mean(finished)) if finished else None,
            "n_decayed": len(finished),
            "n_runs": len(rows),
        }
    extras = {"entanglement": {"spread_halftime_correlation": corr,
                               "variant_stats": variant_stats,
                               "records": records}}
    return collect(reports, extras=extras)


def _half_time(traj) -> float | None:
    """First time survival drops below 1/2, linearly interpolated between
    bracketing samples; None when it never does inside the horizon."""
    below = np.nonzero(traj.survival < 0.5)[0]
    if len(below) == 0:
        return None
    k = int(below[0])  # at least 1, since survival starts at 1
    p_prev, p_here = traj.survival[k - 1], traj.survival[k]
    frac = (p_prev - 0.5) / (p_prev - p_here)
    return float(traj.times[k - 1] + frac * traj.dt)


_RUNNERS = {
    "analytic-two-level": run_analytic_suite,
    "gue-ensemble": run_gue_ensemble,
    "qac-ising": run_qac,
    "entanglement-compare": run_entanglement_compare,
}
KINDS = tuple(_RUNNERS)


def run_campaign(campaign: Campaign) -> CampaignResult:
    """Dispatch a declarative Campaign to its runner, as the module docstring
    describes; the initial term is an operator, which a campaign file cannot spell."""
    params = dict(campaign.parameters)
    fixed = {"integrator": campaign.integrator}
    if campaign.kind in ("gue-ensemble", "entanglement-compare"):
        _resolve_seeds(params)
    if campaign.kind == "qac-ising":
        fixed["initial_term"] = None
        if "instance" in params:
            params["instance"] = IsingInstance.from_dict(params["instance"])
        if params.get("sched") is not None:
            params["sched"] = Schedule.from_dict(params["sched"])
        if "T_values" in params:
            params["T_values"] = _numbers("T_values", params["T_values"], Real)
    for name in sorted(params.keys() & _PARAM_TYPES.keys()):
        want, value = _PARAM_TYPES[name], params[name]
        if not (isinstance(value, bool) if want is bool else is_number(value, want)):
            raise ValueError(f"campaign parameter {name!r} must be {want.__name__}, got {value!r}")
    return from_json(_RUNNERS[campaign.kind], params, f"parameters for {campaign.kind}",
                     **fixed)


def _resolve_seeds(params: dict) -> None:
    """Read a 'seed_range' pair or a 'seeds' list of params into its 'seeds'."""
    if "seeds" in params and "seed_range" in params:
        raise ValueError("give 'seeds' or 'seed_range', not both")
    if "seed_range" in params:
        params["seeds"] = range(*_numbers("seed_range", params.pop("seed_range"), length=2))
    elif "seeds" in params:
        params["seeds"] = _numbers("seeds", params["seeds"])


def _numbers(name: str, values, kind=Integral, length=None) -> list:
    if not (isinstance(values, (list, tuple, range)) and length in (None, len(values))
            and all(is_number(v, kind) for v in values)):
        raise ValueError(f"campaign parameter {name!r} must be a list of "
                         f"{length or 'any number of'} {kind.__name__.lower()} values, "
                         f"got {values!r}")
    return list(values)


def write_campaign_result(result: CampaignResult, out_dir) -> dict:
    """One report JSON per run plus summary.csv and summary.json.

    Output is a pure function of the campaign inputs: identical campaigns
    write byte-identical files (no timestamps anywhere), and a report-<int>.json
    left by an earlier, larger campaign in out_dir is deleted."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for path in out.glob("report-*.json"):
        index = re.fullmatch(r"report-([0-9]+)\.json", path.name)
        if index and int(index[1]) >= len(result.reports):
            path.unlink()
    report_paths = []
    for idx, rep in enumerate(result.reports):
        path = out / f"report-{idx:04d}.json"
        write_report_json(rep, path)
        report_paths.append(path)

    csv_path = out / "summary.csv"

    def fmt(x):
        return "" if isinstance(x, float) and not np.isfinite(x) else x

    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([
            "index", "provenance", "context", "all_satisfied", "n_margins",
            "min_finite_margin", "orth_triggered", "orth_time",
            "anti_triggered", "anti_time", "t_any", "t_orth",
            "energy", "spread",
        ])
        for idx, rep in enumerate(result.reports):
            finite = [m.margin for m in rep.margins if np.isfinite(m.margin)]
            orth = rep.events.get("orthogonal")
            anti = rep.events.get("antipodal")
            writer.writerow([
                idx, _provenance_key(rep), rep.context, rep.all_satisfied,
                len(rep.margins),
                fmt(min(finite)) if finite else "",
                "" if orth is None else orth.triggered,
                "" if orth is None else fmt(orth.time),
                "" if anti is None else anti.triggered,
                "" if anti is None else fmt(anti.time),
                fmt(rep.characteristic.t_any), fmt(rep.characteristic.t_orth),
                fmt(rep.moments.energy), fmt(rep.moments.spread),
            ])

    json_path = out / "summary.json"
    with open(json_path, "w") as fh:
        fh.write(json.dumps(result.summary, indent=2, sort_keys=True) + "\n")
    return {"summary_json": json_path, "summary_csv": csv_path,
            "reports": report_paths}
