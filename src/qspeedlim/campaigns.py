"""Verification campaigns: batches of propagate-detect-check runs with
deterministic aggregation.

Four campaign kinds ship: the closed-form two-level suite, random-matrix
ensembles, annealing-style interpolation runs over Ising instances, and an
exploratory product-versus-entangled decay comparison. Each member run yields
one BoundReport; results aggregate into margin quantiles, event trigger
rates, and a violations list that is expected to stay empty.
"""

from __future__ import annotations

import csv
import hashlib
import inspect
import json
import re
from dataclasses import asdict, dataclass, field, fields
from numbers import Integral, Real
from pathlib import Path

import numpy as np

from .algebra import HermitianOperator, StateVector, is_number, random_state, read_json
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

KINDS = ("analytic-two-level", "gue-ensemble", "qac-ising", "entanglement-compare")

# types of the scalar runner parameters a campaign file may set
_PARAM_TYPES = {"dim": Integral, "subsystem_dim": Integral, "horizon_mult": Real,
                "shift_ground": bool, "shift_problem_ground": bool}


@dataclass(frozen=True)
class Campaign:
    """Declarative campaign definition, JSON-loadable."""

    kind: str
    parameters: dict = field(default_factory=dict)
    integrator: IntegratorConfig = field(default_factory=IntegratorConfig)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")

    @classmethod
    def from_dict(cls, data: dict) -> "Campaign":
        if not isinstance(data, dict) or "kind" not in data:
            raise ValueError("campaign definition needs a 'kind' field")
        extra = set(data) - {"kind", "parameters", "integrator"}
        if extra:
            raise ValueError(f"unknown campaign fields: {sorted(extra)}")
        parameters, integrator = data.get("parameters", {}), data.get("integrator", {})
        if not (isinstance(parameters, dict) and isinstance(integrator, dict)):
            raise ValueError("campaign 'parameters' and 'integrator' must be objects")
        unknown = set(integrator) - {f.name for f in fields(IntegratorConfig)}
        if unknown:
            raise ValueError(f"unknown integrator fields: {sorted(unknown)}")
        return cls(kind=data["kind"], parameters=dict(parameters),
                   integrator=IntegratorConfig(**integrator))


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


def _config_hash(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


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
    cfg = integrator if integrator is not None else IntegratorConfig()
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
    config_hash = _config_hash({"kind": "analytic-two-level",
                                "integrator": asdict(cfg)})

    def member(case):
        name, H, psi0, mult = case
        horizon = mult * cfg.hbar
        if not np.isfinite(horizon):
            raise ValueError(f"the {name} case's horizon of {mult:g} hbar overflows the "
                             f"float range at hbar = {cfg.hbar:g}")
        return run_time_independent(
            H, psi0, cfg, horizon=horizon,
            provenance={"campaign": "analytic-two-level", "case": name,
                        "config_hash": config_hash})[0]

    reports = [member(case) for case in cases]
    return _collect("analytic-two-level", reports, config_hash)


def run_gue_ensemble(dim: int, seeds, horizon_mult: float = 4.0,
                     shift_ground: bool = False,
                     integrator: IntegratorConfig | None = None) -> CampaignResult:
    """Random Hermitian matrices against Haar-random start states. The
    horizon is a multiple of the orthogonality characteristic time, so
    trigger rates stay informative across dimensions."""
    if not horizon_mult > 0:
        raise ValueError("horizon_mult must be positive")
    seeds = list(seeds)
    if not seeds:
        raise ValueError("seed range must be nonempty")
    cfg = integrator if integrator is not None else IntegratorConfig()
    config_hash = _config_hash({"kind": "gue-ensemble", "dim": dim,
                                "seeds": seeds, "horizon_mult": horizon_mult,
                                "shift_ground": shift_ground,
                                "integrator": asdict(cfg)})

    def member(seed):
        H = random_hermitian(dim, seed)
        if shift_ground:
            H = shift_ground_to_zero(H)
        return run_time_independent(
            H, random_state(dim, [seed, 17]), cfg, horizon_mult=horizon_mult,
            provenance={"campaign": "gue-ensemble", "dim": dim, "seed": seed,
                        "shift_ground": shift_ground, "config_hash": config_hash})[0]

    reports = [member(seed) for seed in seeds]
    return _collect("gue-ensemble", reports, config_hash)


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
    cfg = integrator if integrator is not None else IntegratorConfig()
    H_I = initial_term if initial_term is not None else transverse_initial(instance.n)
    H_P = ising_problem(instance)
    if shift_problem_ground:
        H_P = shift_ground_to_zero(H_P)
    if H_I.dim != H_P.dim:
        raise ValueError("initial term dimension does not match the instance")
    psi0 = StateVector.uniform(H_P.dim)
    m = state_moments(H_P, psi0)
    config_hash = _config_hash({"kind": "qac-ising", "instance": instance.to_dict(),
                                "schedule": sched.to_dict(),
                                "T_values": T_values,
                                "shift_problem_ground": shift_problem_ground,
                                "integrator": asdict(cfg)})

    # adiabatic diagnostic: final population of H_P's ground space, its lowest diagonal entries
    energies = H_P.entries.diagonal().real
    ground = np.flatnonzero(np.abs(energies - energies.min()) <= 1e-9)

    def member(T):
        ih = InterpolatedHamiltonian(initial=H_I, problem=H_P, schedule=sched,
                                     total_time=T)
        betas = [BetaPolicy.zero(), BetaPolicy.proportional(m.energy, name="gprop")]
        traj = evolve(ih, psi0, T, cfg=cfg, betas=betas)
        rep = check_inequalities(
            traj, m, events=_detect_events(traj),
            provenance={"campaign": "qac-ising", "instance": instance.to_dict(),
                        "T": T, "shift_problem_ground": shift_problem_ground,
                        "config_hash": config_hash})
        pop = float(np.sum(np.abs(traj.final_state.amplitudes[ground]) ** 2))
        diag = {"T": T, "final_survival": float(traj.survival[-1]),
                "problem_ground_population": pop}
        return rep, diag

    pairs = [member(T) for T in T_values]
    reports = [p[0] for p in pairs]
    diags = sorted((p[1] for p in pairs), key=lambda d: d["T"])
    return _collect("qac-ising", reports, config_hash,
                    extras={"qac_diagnostics": diags,
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
    seeds = list(seeds)
    if not seeds:
        raise ValueError("seed range must be nonempty")
    if not horizon_mult > 0:
        raise ValueError("horizon_mult must be positive")
    cfg = integrator if integrator is not None else IntegratorConfig()
    config_hash = _config_hash({"kind": "entanglement-compare",
                                "subsystem_dim": subsystem_dim, "seeds": seeds,
                                "horizon_mult": horizon_mult,
                                "integrator": asdict(cfg)})

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
                provenance={"campaign": "entanglement-compare", "seed": seed,
                            "variant": variant, "subsystem_dim": subsystem_dim,
                            "config_hash": config_hash})
            out.append((rep, {"seed": seed, "variant": variant,
                              "spread": rep.moments.spread,
                              "half_time": _half_time(traj)}))
        return out

    reports, records = [], []
    for seed in seeds:
        for rep, rec in member(seed):
            reports.append(rep)
            records.append(rec)
    records.sort(key=lambda r: (r["seed"], r["variant"]))

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
    return _collect("entanglement-compare", reports, config_hash, extras=extras)


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


def run_campaign(campaign: Campaign) -> CampaignResult:
    """Dispatch a declarative Campaign to its runner."""
    runner = _RUNNERS[campaign.kind]
    params = dict(campaign.parameters)
    if campaign.kind in ("gue-ensemble", "entanglement-compare"):
        seeds = _resolve_seeds(params, required=campaign.kind == "gue-ensemble")
        if seeds is not None:
            params["seeds"] = seeds
    if campaign.kind == "qac-ising":
        if "instance" not in params:
            raise ValueError("qac-ising campaign needs an 'instance' parameter")
        params["instance"] = IsingInstance.from_dict(params["instance"])
        if params.get("sched") is not None:
            params["sched"] = Schedule.from_dict(params["sched"])
        if "T_values" in params:
            params["T_values"] = _numbers("T_values", params["T_values"], Real)
    # an initial term is an operator, which a campaign file cannot spell
    allowed = set(inspect.signature(runner).parameters) - {"integrator", "initial_term"}
    unknown = set(params) - allowed
    if unknown:
        raise ValueError(
            f"unknown parameters for {campaign.kind}: {sorted(unknown)}")
    for name in sorted(params.keys() & _PARAM_TYPES.keys()):
        want, value = _PARAM_TYPES[name], params[name]
        if not (isinstance(value, bool) if want is bool else is_number(value, want)):
            raise ValueError(f"campaign parameter {name!r} must be {want.__name__}, got {value!r}")
    return runner(**params, integrator=campaign.integrator)


def _resolve_seeds(params: dict, required: bool):
    if "seeds" in params and "seed_range" in params:
        raise ValueError("give 'seeds' or 'seed_range', not both")
    if "seed_range" in params:
        return range(*_numbers("seed_range", params.pop("seed_range"), length=2))
    if "seeds" in params:
        return _numbers("seeds", params["seeds"])
    if required:
        raise ValueError("campaign needs a 'seeds' list or 'seed_range' pair")
    return None


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
        if x is None:
            return ""
        if isinstance(x, float) and not np.isfinite(x):
            return ""
        return repr(x) if isinstance(x, float) else str(x)

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
