"""Command-line driver for batch verification runs.

Thin sequential wrapper over the campaigns: parse arguments, run, write
machine-readable outputs, map the outcome to an exit code. A campaign file
and a campaign verb's flags, which spell the kind and parameters such a file
holds, share one path through `run_campaign` and its checks. Exit 0 means
every asserted inequality held, 1 means at least one bound violation
(outputs are still written, and the offending report paths are printed),
2 means a configuration or input error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .algebra import HermitianOperator, StateVector, random_state, read_json
from .bounds import exp_decay_diagnostic, survival_lower_bound_ti, write_report_json
from .campaigns import (Campaign, load_campaign, run_campaign, run_time_independent,
                        write_campaign_result)
from .hamiltonians import random_hermitian
from .propagate import (METHODS, IntegrationError, IntegratorConfig, write_csv_columns,
                        write_trajectory_csv)

OUT_ENV_VAR = "QSPEEDLIM_OUT"


def parse_seeds(text: str) -> list:
    """Seed sets come as 'a..b' (half-open range) or a comma list."""
    text = text.strip()
    try:
        if ".." in text:
            start, _, stop = text.partition("..")
            return list(range(int(start), int(stop)))
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"--seeds takes 'a..b' or a comma list of integers, "
                         f"got {text!r}") from None


def parse_times(text: str) -> list:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        values = []
    if not values:
        raise ValueError(f"--T takes a comma-separated list of times, got {text!r}")
    return values


def parse_schedule(text: str) -> dict:
    """The schedule spec of 'linear', 'poly:<power>', or a schedule JSON file."""
    if text == "linear":
        return {"kind": "linear"}
    if text.startswith("poly:"):
        try:
            return {"kind": "poly", "power": float(text.partition(":")[2])}
        except ValueError:
            raise ValueError(f"--schedule poly:<power> takes a number, got {text!r}") from None
    return read_json(text)


def _out_dir(args, default_name: str) -> Path:
    if args.out is not None:
        return Path(args.out)
    base = os.environ.get(OUT_ENV_VAR, "qspeedlim-results")
    return Path(base) / default_name


def _integrator(args) -> IntegratorConfig:
    return IntegratorConfig(method=args.method, dt=args.dt, steps=args.steps,
                            hbar=args.hbar)


def _print_units_header(hbar: float) -> None:
    print(f"units: hbar = {hbar:g}; all energies and times are hbar-relative")


def _finish_campaign(result, out_dir: Path, verbose: bool) -> int:
    """Write artifacts, narrate the outcome, map violations to exit 1.

    Outputs land on disk before any nonzero return."""
    paths = write_campaign_result(result, out_dir)
    summary = result.summary
    print(f"campaign {summary['kind']} (config {summary['config_hash']}): "
          f"{summary['n_runs']} runs, {summary['n_violations']} violations")
    rates = summary["trigger_rates"]
    if rates["orthogonal"] is not None:
        print(f"trigger rates: orthogonal {rates['orthogonal']:.3g}, "
              f"antipodal {rates['antipodal']:.3g}")
    if verbose:
        for idx, rep in enumerate(result.reports):
            state = "ok" if rep.all_satisfied else "VIOLATION"
            print(f"  [{idx:04d}] {json.dumps(rep.provenance, sort_keys=True)}"
                  f" -> {state}")
    print(f"wrote {len(paths['reports'])} reports and summaries to {out_dir}")
    if result.violations:
        print("violating reports:")
        for idx, rep in enumerate(result.reports):
            if not rep.all_satisfied:
                print(f"  {paths['reports'][idx]}")
        return 1
    return 0


def _cmd_campaign(args) -> int:
    """A campaign file, or the campaign a verb's flags spell, through
    run_campaign. The default output directory is the verb, or a file's kind."""
    path = getattr(args, "campaign", None)
    if path is None:
        campaign = Campaign(args.kind, args.parameters(args), _integrator(args))
    else:
        campaign = load_campaign(path)
    _print_units_header(campaign.integrator.hbar)
    result = run_campaign(campaign)
    out_dir = _out_dir(args, args.subcommand if path is None else campaign.kind)
    return _finish_campaign(result, out_dir, args.verbose)


def _cmd_decay(args) -> int:
    """Single time-independent run: trajectory, survival-bound curve, and one
    inequality report. The curve file carries the data a plot would show."""
    cfg = _integrator(args)
    if args.two_level:
        h = HermitianOperator(np.diag([0.0, 1.0]).astype(complex))
        psi0 = StateVector.normalized(np.array([1.0, 1.0]))
        provenance = {"command": "decay", "system": "two-level"}
    else:
        if args.dim is None:
            raise ValueError("decay needs --two-level or --dim")
        h = random_hermitian(args.dim, args.seed)
        psi0 = random_state(args.dim, [args.seed, 17])
        provenance = {"command": "decay", "system": "gue",
                      "dim": args.dim, "seed": args.seed}
    _print_units_header(cfg.hbar)

    report, traj = run_time_independent(h, psi0, cfg, provenance, args.horizon, beta=args.beta)
    m = report.moments

    out = _out_dir(args, "decay")
    out.mkdir(parents=True, exist_ok=True)
    traj_path = out / "trajectory.csv"
    write_trajectory_csv(traj, traj_path,
                         seed=None if args.two_level else args.seed)
    curve_path = out / "decay.csv"
    bound = survival_lower_bound_ti(traj.times, m.spread, cfg.hbar)
    diag = exp_decay_diagnostic(traj.times, m.spread, m.energy, cfg.hbar)
    write_csv_columns(curve_path,
                      ["t", "survival", "survival_bound", "bound_vacuous",
                       "exp_decay_diagnostic", "regime_ok"],
                      [traj.times, traj.survival, bound.value, bound.vacuous,
                       diag.value, diag.regime_ok])
    report_path = out / "report.json"
    write_report_json(report, report_path)

    print(f"wrote {traj_path}, {curve_path}, {report_path}")
    if report.measured_orth_time is not None:
        print(f"orthogonality reached at t = {report.measured_orth_time:.9g}")
    if not report.all_satisfied:
        print("violating report:")
        print(f"  {report_path}")
        return 1
    return 0


def _cmd_report(args) -> int:
    """Render an existing results directory as a text summary."""
    summary_path = Path(args.results_dir) / "summary.json"
    summary = read_json(summary_path)  # a missing file is an OSError naming the path
    try:  # every line is formatted before any is printed
        lines = _summary_lines(summary)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{summary_path}: not a campaign summary: {exc!r}") from None
    print("\n".join(lines))
    return 0 if summary["n_violations"] == 0 else 1


def _summary_lines(summary: dict) -> list:
    """The report's lines; a non-object, a missing key or a mistyped field raises."""
    lines = [f"campaign: {summary['kind']} (config {summary['config_hash']})",
             f"runs: {summary['n_runs']:d}, violations: {summary['n_violations']:d}"]
    rates = summary.get("trigger_rates", {})
    if rates:
        fmt = lambda v: "n/a" if v is None else f"{v:.3g}"
        lines.append(f"trigger rates: orthogonal {fmt(rates.get('orthogonal'))}, "
                     f"antipodal {fmt(rates.get('antipodal'))}")
    quantiles = summary.get("margin_quantiles", {})
    if quantiles:
        lines.append("margin quantiles (rhs - lhs, positive is headroom):")
        width = max(len(name) for name in quantiles)
        lines.append(f"  {'name'.ljust(width)}  {'min':>12}  {'median':>12}  {'max':>12}")
        for name, stats in sorted(quantiles.items()):
            lines.append(f"  {name.ljust(width)}  {stats['min']:>12.6g}  "
                         f"{stats['median']:>12.6g}  {stats['max']:>12.6g}")
    lines += [f"violation: {json.dumps(v, sort_keys=True)}" for v in summary.get("violations", [])]
    return lines


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None,
                        help=f"output directory (default: ${OUT_ENV_VAR} or "
                             "./qspeedlim-results/<command>)")
    common.add_argument("--hbar", type=float, default=1.0,
                        help="value of hbar, a normal float; all quantities are relative "
                             "to it, and the numerics run in s = t/hbar")
    common.add_argument("--dt", type=float, default=None,
                        help="integrator step size (exclusive with --steps)")
    common.add_argument("--steps", type=int, default=None,
                        help="integrator step count (exclusive with --dt)")
    common.add_argument("--method", default="midpoint-exponential",
                        choices=METHODS)
    common.add_argument("-v", "--verbose", action="store_true",
                        help="print one line per campaign member")

    parser = argparse.ArgumentParser(
        prog="qspeedlim",
        description="Simulate Schrodinger evolution and verify "
                    "time-energy uncertainty bounds.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("verify", parents=[common],
                       help="run the closed-form suite or a campaign file")
    target = p.add_mutually_exclusive_group()
    target.add_argument("--analytic", action="store_true",
                        help="run the closed-form two-level suite (the default)")
    target.add_argument("--campaign", default=None,
                        help="path to a campaign definition JSON")
    # the closed-form suite is the default verification target
    p.set_defaults(handler=_cmd_campaign, kind="analytic-two-level", parameters=lambda a: {})

    p = sub.add_parser("ensemble", parents=[common],
                       help="random-matrix ensemble campaign")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--seeds", default="0..8",
                   help="'a..b' half-open range or comma list")
    p.add_argument("--horizon-mult", type=float, default=4.0)
    p.add_argument("--shift-ground", action="store_true",
                   help="shift each sample so its ground energy is zero")
    p.set_defaults(handler=_cmd_campaign, kind="gue-ensemble", parameters=lambda a: {
        "dim": a.dim, "seeds": parse_seeds(a.seeds), "horizon_mult": a.horizon_mult,
        "shift_ground": a.shift_ground})

    p = sub.add_parser("qac", parents=[common],
                       help="interpolated-Hamiltonian campaign over an Ising instance")
    p.add_argument("--instance", required=True, help="instance JSON path")
    p.add_argument("--schedule", default="linear",
                   help="'linear', 'poly:<power>', or a schedule JSON path")
    p.add_argument("--T", default="1,4,16",
                   help="comma list of total interpolation times")
    p.add_argument("--shift-ground", action="store_true",
                   help="shift the problem term so its ground energy is zero")
    p.set_defaults(handler=_cmd_campaign, kind="qac-ising", parameters=lambda a: {
        "instance": read_json(a.instance), "sched": parse_schedule(a.schedule),
        "T_values": parse_times(a.T), "shift_problem_ground": a.shift_ground})

    p = sub.add_parser("decay", parents=[common],
                       help="single survival-decay run with bound curves")
    p.add_argument("--two-level", action="store_true",
                   help="the closed-form gap system instead of a random draw")
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--horizon", type=float, default=None,
                   help="default: 4x the orthogonality characteristic time")
    p.add_argument("--beta", type=float, default=None,
                   help="constant reference-energy policy to track alongside zero")
    p.set_defaults(handler=_cmd_decay)

    p = sub.add_parser("entangle", parents=[common],
                       help="product versus entangled decay comparison")
    p.add_argument("--subsystem-dim", type=int, default=2)
    p.add_argument("--seeds", default="0..24")
    p.add_argument("--horizon-mult", type=float, default=4.0)
    p.set_defaults(handler=_cmd_campaign, kind="entanglement-compare", parameters=lambda a: {
        "subsystem_dim": a.subsystem_dim, "seeds": parse_seeds(a.seeds),
        "horizon_mult": a.horizon_mult})

    p = sub.add_parser("report", help="summarize an existing results directory")
    p.add_argument("results_dir")
    p.set_defaults(handler=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except IntegrationError as exc:
        print(f"error: integration failed at t = {exc.time:.6g}: {exc}",
              file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a step grid too large to allocate is an input error
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
