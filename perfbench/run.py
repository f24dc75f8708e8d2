#!/usr/bin/env python3
"""qspeedlim benchmark: time the `qspeedlim` command line in-process.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload suite-small --seed 0 --seconds 25 --trace 0

One run repeats the workload's command lines through `qspeedlim.cli.main`
for about `--seconds` seconds (at least MIN_REPS repetitions), checks every
call's outputs against the reference recorded at the seed commit, and prints
one JSON object as its last line. With `--trace 0` it reports the end-to-end
metrics; with `--trace 1` it alternates untraced and traced repetitions and
reports the per-layer metrics of the traced ones (see tracing.py).

The program is imported from `src/` of the checkout and nowhere else, so the
run fails with exit code 2 where no source tree is present.
"""

import os

# one BLAS thread, fixed before numpy loads: BLAS threads competing for the
# machine's cores make the dense-eigh workloads' times spread widely
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from collections import Counter
from pathlib import Path

import gate
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
OUT = ROOT / ".perfbench-out"

MIN_REPS = 2
SETUP_PROBES = 5

PER_LAYER_TIMES = {
    "propagate.busy_s": ("busy", "propagate"),
    "events.busy_s": ("busy", "events"),
    "write.busy_s": ("busy", "write"),
    "hamiltonians.busy_s": ("busy", "hamiltonians"),
    "bounds.busy_s": ("busy", "bounds"),
    "campaigns.self_s": ("self", "campaigns"),
    "cli.self_s": ("self", "cli"),
}
PER_LAYER_COUNTS = {
    "propagate.steps": "count", "propagate.eigh_calls": "count",
    "propagate.state_bytes": "B", "hamiltonians.matrix_calls": "count",
    "schedules.calls": "count", "events.candidates": "count",
    "events.triggered": "count", "campaigns.members": "count",
    "write.bytes": "B", "write.files": "count", "bounds.violations": "count",
}
PER_LAYER_MAXIMA = ("propagate.norm_max_dev", "bounds.slack_max")


class SetupError(RuntimeError):
    pass


def import_program():
    """Import qspeedlim from this checkout's src/, refusing any other copy."""
    if not (SRC / "qspeedlim" / "__init__.py").is_file():
        raise SetupError(f"no qspeedlim source tree under {SRC}")
    sys.path.insert(0, str(SRC))
    import qspeedlim.cli

    if SRC not in Path(qspeedlim.cli.__file__).resolve().parents:
        raise SetupError(f"qspeedlim was imported from {qspeedlim.cli.__file__}")
    return qspeedlim.cli


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None when unknown."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _cpu_model():
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                return line.partition(":")[2].strip()
    return platform.processor() or None


def _git_commit():
    """HEAD of the checkout when it is a git working tree, else None."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _src_digest():
    """sha256 over src/**/*.py, which names the code where git cannot."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def provenance():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
    }


def measure_setup(args, work: Path) -> list:
    """Seconds from process start to ready (imports plus input generation),
    one fresh interpreter per probe."""
    samples = []
    for i in range(SETUP_PROBES):
        started = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
             "--workload", args.workload, "--seed", str(args.seed),
             "--work", str(work / f"probe-{i}"), "--started", repr(started)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise SetupError(f"setup probe exited {proc.returncode}: "
                             f"{proc.stderr.strip()[-500:]}")
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def load_reference(workload: str, seed: int) -> dict:
    path = BENCH / "reference" / f"{workload}.json"
    return json.loads(path.read_text())[str(seed % workloads.POOL)]


def run_call(main, argv, out_dir: Path, tracer=None):
    """One command line; returns (exit code, seconds)."""
    shutil.rmtree(out_dir, ignore_errors=True)
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        try:
            code = tracer.root(main, argv) if tracer else main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        elapsed = time.perf_counter() - t0
    return code, elapsed


def repetition(main, calls, checker, tracer=None) -> float:
    """Run every call of the workload once; returns the summed call time."""
    total = 0.0
    for name, argv, out_dir in calls:
        code, elapsed = run_call(main, argv, out_dir, tracer)
        total += elapsed
        checker.check(name, code, out_dir)
    return total


def layer_metrics(tracer, wall: float) -> dict:
    busy, own = tracing.layer_times(tracer.spans)
    names = Counter(span[tracing.NAME] for span in tracer.spans)
    values = {name: {"busy": busy, "self": own}[kind][layer]
              for name, (kind, layer) in PER_LAYER_TIMES.items()}
    values.update({name: tracer.counts[name] for name in PER_LAYER_COUNTS})
    values["hamiltonians.matrix_calls"] = names["InterpolatedHamiltonian.matrix"]
    values["schedules.calls"] = names["Schedule.f"] + names["Schedule.g"]
    values.update({name: tracer.maxima.get(name, 0.0) for name in PER_LAYER_MAXIMA})
    values["trace.untraced_s"] = wall - tracing.root_time(tracer.spans)
    values["trace.wall_s"] = wall
    return values


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return PER_LAYER_COUNTS.get(name, "1")


def benchmark(args) -> int:
    main = import_program().main
    run_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup = [] if args.trace else measure_setup(args, run_dir)
        calls = workloads.make_calls(args.workload, args.seed, run_dir / "run")
        checker = gate.Gate(load_reference(args.workload, args.seed))

        walls, traced = [], []
        last_tracer = None
        start = time.perf_counter()
        while True:
            walls.append(repetition(main, calls, checker))
            if args.trace:
                last_tracer = tracing.Tracer()
                with tracing.installed(last_tracer):
                    wall = repetition(main, calls, checker, last_tracer)
                traced.append(layer_metrics(last_tracer, wall))
            elapsed = time.perf_counter() - start
            per_rep = elapsed / len(walls)
            if len(walls) >= MIN_REPS and elapsed + per_rep > args.seconds:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    wall_s = statistics.median(walls)
    if args.trace:
        # counts repeat exactly from one repetition to the next; times vary
        values = {name: statistics.median(t[name] for t in traced)
                  if name.endswith("_s") else traced[-1][name]
                  for name in traced[0]}
        values["trace.overhead_frac"] = values["trace.wall_s"] / wall_s - 1.0
        metrics = {name: {"value": value, "unit": unit(name)}
                   for name, value in sorted(values.items())}
    else:
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss / 1024.0, "unit": "MB"},
        }
    result = {"correct": checker.failed == 0, "attempted": checker.attempted,
              "failed": checker.failed, "metrics": metrics}
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "reps": len(walls), "rep_wall_s": walls, "setup_samples_s": setup,
              "fail_frac": checker.failed / checker.attempted,
              "provenance": provenance()}
    if args.trace:
        detail["shares"] = shares(metrics)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(
        json.dumps({"detail": detail, "result": result}, indent=2) + "\n")
    if last_tracer is not None:
        # spans of the last traced repetition
        (OUT / f"{stem}-spans.json").write_text(json.dumps(
            {"fields": ["id", "parent", "layer", "name", "start", "end"],
             "spans": last_tracer.spans}) + "\n")
    for problem in checker.problems[:20]:
        print(f"gate: {problem}", file=sys.stderr)
    print("detail: " + json.dumps(detail))
    print(json.dumps(result))
    return 0


def shares(metrics: dict) -> dict:
    """Layer shares of the traced wall time that the workloads are built to
    isolate."""
    def value(name):
        return metrics[name]["value"]

    wall = value("trace.wall_s")
    return {
        "events": value("events.busy_s") / wall,
        "propagate": value("propagate.busy_s") / wall,
        "write+cli": (value("write.busy_s") + value("cli.self_s")) / wall,
    }


def probe_setup(args) -> int:
    import_program()
    workloads.make_calls(args.workload, args.seed, Path(args.work))
    print(time.clock_gettime(time.CLOCK_MONOTONIC) - args.started)
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed; 0 gives the acceptance instances")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--work", help=argparse.SUPPRESS)
    parser.add_argument("--started", type=float, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    warnings.simplefilter("ignore")
    try:
        return probe_setup(args) if args.probe_setup else benchmark(args)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
