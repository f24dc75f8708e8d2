"""Outside-in tracing: spans around the calls into each module of qspeedlim.

Nothing in the program changes. While a Tracer is installed, every public
function that `qspeedlim.cli` and `qspeedlim.campaigns` bind from another
qspeedlim module, plus `InterpolatedHamiltonian.matrix` and
`Schedule.f`/`Schedule.g`, is replaced by a wrapper that records a span
(id, parent id, layer, name, start, end) in memory. Some wrappers also add
counters computed from the call's arguments and result. The layer is the
defining module, except that every `write_*` function is the `write` layer.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# span fields
ID, PARENT, LAYER, NAME, START, END = range(6)


class Tracer:
    """Spans and counters of one traced repetition."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.maxima = {}
        self._stack = []

    def wrap(self, layer: str, name: str, fn, count=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), stack[-1][ID] if stack else None, layer, name,
                    clock(), None]
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if count is not None:
                count(self, args, kwargs, result)
            return result

        return traced

    def root(self, fn, *args):
        """Call fn as the `cli` root span of one command line."""
        return self.wrap("cli", "main", fn)(*args)

    def peak(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima.get(key, 0.0), float(value))


def _arg(args, kwargs, index, name):
    if len(args) > index:
        return args[index]
    return kwargs.get(name)


def _count_evolve(tracer, args, kwargs, traj):
    from qspeedlim.hamiltonians import InterpolatedHamiltonian
    from qspeedlim.propagate import IntegratorConfig

    cfg = _arg(args, kwargs, 3, "cfg") or IntegratorConfig()
    steps = len(traj.times) - 1
    tracer.counts["propagate.steps"] += steps
    if cfg.method == "midpoint-exponential":
        # one eigh of the fixed H, or one per step of an interpolated H(t)
        interp = isinstance(args[0], InterpolatedHamiltonian)
        tracer.counts["propagate.eigh_calls"] += steps if interp else 1
    if traj.states is not None:
        tracer.counts["propagate.state_bytes"] += traj.states.nbytes
    tracer.peak("propagate.norm_max_dev", traj.norm_max_dev)


def candidate_count(traj, query, result) -> int:
    """Grid local minima below the coarse threshold that the event scan
    refines: all of them, or up to the one whose bracket holds the event."""
    o = traj.overlaps
    if query.kind == "orthogonal":
        samples = np.abs(o)
    else:
        samples = 2.0 - np.sqrt(np.clip(2.0 - 2.0 * o.real, 0.0, 4.0))
    threshold = max(query.coarse_threshold, query.tolerance)
    here = samples[1:]
    right = np.append(here[:-1] <= here[1:], True)
    ks = np.nonzero((here <= threshold) & (here <= samples[:-1]) & right)[0] + 1
    if not result.triggered:
        return len(ks)
    n = len(samples) - 1
    ends = traj.times[np.minimum(ks + 1, n)]
    hit = np.nonzero((traj.times[ks - 1] <= result.time) & (result.time <= ends))[0]
    return int(hit[0]) + 1 if len(hit) else len(ks)


def _count_event(kind):
    def count(tracer, args, kwargs, result):
        from qspeedlim.events import EventQuery

        query = _arg(args, kwargs, 2, "q") or EventQuery(kind=kind)
        tracer.counts["events.candidates"] += candidate_count(args[0], query, result)
        tracer.counts["events.triggered"] += int(result.triggered)
    return count


def _count_check(tracer, args, kwargs, report):
    tracer.counts["bounds.violations"] += len(report.violations)
    slacks = [m.slack for m in report.margins if np.isfinite(m.slack)]
    tracer.peak("bounds.slack_max", max(slacks, default=0.0))


def _count_files(tracer, *paths):
    for path in paths:
        tracer.counts["write.files"] += 1
        tracer.counts["write.bytes"] += Path(path).stat().st_size


def _count_report(tracer, args, kwargs, _):
    _count_files(tracer, _arg(args, kwargs, 1, "path"))


def _count_campaign_write(tracer, args, kwargs, paths):
    # the per-member reports are counted by the nested write_report_json
    _count_files(tracer, paths["summary_json"], paths["summary_csv"])


def _count_trajectory(tracer, args, kwargs, _):
    path = Path(_arg(args, kwargs, 1, "path"))
    _count_files(tracer, path, path.with_suffix(".meta.json"))


def _count_members(tracer, args, kwargs, result):
    tracer.counts["campaigns.members"] += len(result.reports)


COUNTERS = {
    "evolve": _count_evolve,
    "first_orthogonal": _count_event("orthogonal"),
    "first_antipodal": _count_event("antipodal"),
    "check_inequalities": _count_check,
    "write_report_json": _count_report,
    "write_campaign_result": _count_campaign_write,
    "write_trajectory_csv": _count_trajectory,
    "run_analytic_suite": _count_members,
    "run_gue_ensemble": _count_members,
    "run_qac": _count_members,
    "run_entanglement_compare": _count_members,
    "run_campaign": _count_members,
}


def _layer(fn) -> str:
    if fn.__name__.startswith("write_"):
        return "write"
    return fn.__module__.rsplit(".", 1)[-1]


@contextmanager
def installed(tracer: Tracer):
    """Patch the traced functions for the duration of the block."""
    from qspeedlim import campaigns, cli
    from qspeedlim.hamiltonians import InterpolatedHamiltonian
    from qspeedlim.schedules import Schedule

    patches = []
    for module in (cli, campaigns):
        for name, fn in vars(module).items():
            if (inspect.isfunction(fn) and not name.startswith("_")
                    and fn.__module__.startswith("qspeedlim.")
                    and fn.__module__ != module.__name__):
                patches.append((module, name, fn, _layer(fn), name))
    patches += [
        (InterpolatedHamiltonian, "matrix", InterpolatedHamiltonian.matrix,
         "hamiltonians", "InterpolatedHamiltonian.matrix"),
        (Schedule, "f", Schedule.f, "schedules", "Schedule.f"),
        (Schedule, "g", Schedule.g, "schedules", "Schedule.g"),
    ]
    try:
        for owner, attr, fn, layer, name in patches:
            setattr(owner, attr, tracer.wrap(layer, name, fn, COUNTERS.get(name)))
        yield tracer
    finally:
        for owner, attr, fn, _, _ in patches:
            setattr(owner, attr, fn)


def layer_times(spans) -> tuple:
    """(busy, self) seconds per layer.

    Busy time is the time some span of the layer is open, counting nested
    spans of the same layer once. Self time is the span's duration minus its
    direct children's, summed per layer."""
    children = Counter()
    for span in spans:
        if span[PARENT] is not None:
            children[span[PARENT]] += span[END] - span[START]
    busy, own = Counter(), Counter()
    for span in spans:
        duration = span[END] - span[START]
        own[span[LAYER]] += duration - children[span[ID]]
        parent = span[PARENT]
        while parent is not None and spans[parent][LAYER] != span[LAYER]:
            parent = spans[parent][PARENT]
        if parent is None:
            busy[span[LAYER]] += duration
    return busy, own


def root_time(spans) -> float:
    return sum(s[END] - s[START] for s in spans if s[PARENT] is None)
