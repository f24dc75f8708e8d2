"""Correctness gate: compare one call's outputs with the reference digest.

A digest keeps what the gate checks and nothing else: the exit code, the
violation count, the trigger rates, and per member report the event flags,
times and bracket widths plus every margin with its slack. Members are keyed
by provenance without `config_hash`, so a change to the integrator config
fields does not break the match.

The check is a tolerance, not byte equality, so that a faster path whose
overlaps move by round-off still passes:

- exit code 0 and no violations;
- equal trigger rates, and equal trigger flags per member;
- event times within the sum of the two bracket widths;
- margins within the margin's own reported slack.
"""

from __future__ import annotations

import json
from pathlib import Path


def _member_key(report: dict) -> str:
    prov = {k: v for k, v in report["provenance"].items() if k != "config_hash"}
    return json.dumps(prov, sort_keys=True)


def _member(report: dict) -> dict:
    return {
        "events": {kind: [ev["triggered"], ev["time"], ev["bracket_width"]]
                   for kind, ev in sorted(report["events"].items())},
        "margins": {m["name"]: [m["margin"], m["slack"]] for m in report["margins"]},
    }


def _count_lines(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh)


def digest(exit_code: int, out_dir: Path) -> dict:
    """Reduce one call's output directory to the fields the gate checks."""
    out = {"exit": exit_code}
    summary_path = out_dir / "summary.json"
    if summary_path.exists():
        summary = json.loads(summary_path.read_text())
        out["n_violations"] = summary["n_violations"]
        out["trigger_rates"] = summary["trigger_rates"]
        reports = sorted(out_dir.glob("report-*.json"))
    else:
        # the decay command writes one report plus two curves
        reports = [out_dir / "report.json"]
        out["rows"] = {name: _count_lines(out_dir / name)
                       for name in ("trajectory.csv", "decay.csv")}
    reports = [json.loads(path.read_text()) for path in reports]
    out.setdefault("n_violations", sum(not m["satisfied"] for r in reports
                                       for m in r["margins"]))
    out["members"] = {_member_key(r): _member(r) for r in reports}
    return out


def _close(value, ref, tol) -> bool:
    if value is None or ref is None:
        return value is None and ref is None
    return tol is not None and abs(value - ref) <= tol


def compare(got: dict, ref: dict) -> list:
    """Every way `got` departs from the reference `ref`; empty means pass."""
    problems = []
    if got["exit"] != 0:
        problems.append(f"exit code {got['exit']}")
    if got.get("n_violations") != 0:
        problems.append(f"{got.get('n_violations')} violations")
    if got.get("trigger_rates") != ref.get("trigger_rates"):
        problems.append(f"trigger rates {got.get('trigger_rates')} != "
                        f"{ref.get('trigger_rates')}")
    if got.get("rows") != ref.get("rows"):
        problems.append(f"curve rows {got.get('rows')} != {ref.get('rows')}")
    if set(got["members"]) != set(ref["members"]):
        problems.append("member runs differ from the reference")
        return problems
    for key, ref_member in ref["members"].items():
        member = got["members"][key]
        for kind, (trig, t, width) in ref_member["events"].items():
            got_trig, got_t, got_width = member["events"].get(kind, (None, None, None))
            if got_trig != trig:
                problems.append(f"{key}: {kind} triggered {got_trig} != {trig}")
            elif trig and not _close(got_t, t, got_width + width):
                problems.append(f"{key}: {kind} time {got_t!r} != {t!r} "
                                f"beyond the bracket widths")
        if set(member["margins"]) != set(ref_member["margins"]):
            problems.append(f"{key}: margin names differ")
            continue
        for name, (margin, _) in ref_member["margins"].items():
            got_margin, got_slack = member["margins"][name]
            if not _close(got_margin, margin, got_slack):
                problems.append(f"{key}: margin {name} {got_margin!r} != "
                                f"{margin!r} beyond slack {got_slack!r}")
    return problems


class Gate:
    """Counts attempted and failed calls against one instance's reference
    digests, keeping the first problems for the log."""

    def __init__(self, reference: dict):
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, name: str, code: int, out_dir: Path) -> None:
        self.attempted += 1
        try:
            problems = compare(digest(code, out_dir), self.reference[name])
        except (OSError, KeyError, ValueError) as exc:
            problems = [f"unreadable outputs: {exc!r}"]
        if problems:
            self.failed += 1
            self.problems += [f"{name}: {p}" for p in problems[:3]]
