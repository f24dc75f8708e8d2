"""The benchmark workloads: each one is a list of `qspeedlim` command lines.

A workload turns a seed into its inputs (instance files written to a work
directory plus the command lines that read them). Seeds map onto a pool of
POOL instances, `index = seed % POOL`, because the correctness gate compares
every output with a reference recorded for exactly that instance. Index 0
reproduces the acceptance instances where the workload has them.

Only workload inputs reach the command line: never `--workers` or
`--method`, whose defaults later changes may move or delete.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

POOL = 8

# acceptance-test instances (tests/test_acceptance.py)
PROJECTOR = {"n": 1, "couplings": [], "fields": [[0, -0.5]]}
CHAIN3 = {"n": 3, "couplings": [[0, 1, -1.0], [1, 2, -1.0]],
          "fields": [[0, 0.25], [2, -0.5]]}

# Event refinement runs one dense eigh per golden-section evaluation. Its
# cost follows the number of refined minima, which varies from member to
# member (standard deviation about a quarter of the mean), so the ensemble
# is wide and cheap per member to keep the seed-to-seed spread small; the
# long horizon keeps events above half of the time.
GUE_DENSE_DIM = 32
GUE_DENSE_MEMBERS = 64
GUE_DENSE_HORIZON_MULT = 32
ANNEAL_QUBITS = 6
DECAY_DIM = 16
DECAY_STEPS = 50_000


def _chain(n: int, index: int) -> dict:
    """Ferromagnetic Ising chain; index 0 extends the acceptance chain's
    pattern, other indices draw couplings and fields from the index."""
    if index == 0:
        return {"n": n,
                "couplings": [[i, i + 1, -1.0] for i in range(n - 1)],
                "fields": [[0, 0.25], [n - 1, -0.5]]}
    rng = np.random.default_rng([n, index])
    return {"n": n,
            "couplings": [[i, i + 1, float(-rng.uniform(0.5, 1.5))]
                          for i in range(n - 1)],
            "fields": [[i, float(rng.uniform(-0.5, 0.5))] for i in range(n)]}


def _write(path: Path, data: dict) -> str:
    path.write_text(json.dumps(data, indent=2) + "\n")
    return str(path)


def _suite_small(index: int, work: Path) -> list:
    """The acceptance default suites: closed-form suite, GUE dim 2 x 100 and
    dim 8 x 50, the projector and the 3-qubit chain at T = 1, 4, 16."""
    chain = CHAIN3 if index == 0 else _chain(3, index)
    return [
        ("verify", ["verify"]),
        ("gue-dim2", ["ensemble", "--dim", "2",
                      "--seeds", f"{100 * index}..{100 * index + 100}"]),
        ("gue-dim8", ["ensemble", "--dim", "8",
                      "--seeds", f"{50 * index}..{50 * index + 50}"]),
        ("qac-single", ["qac", "--instance",
                        _write(work / "projector.json", PROJECTOR),
                        "--T", "1,4,16", "--shift-ground"]),
        ("qac-chain", ["qac", "--instance", _write(work / "chain3.json", chain),
                       "--T", "1,4,16"]),
    ]


def _gue_dense(index: int, work: Path) -> list:
    first = GUE_DENSE_MEMBERS * index
    return [("gue-dense", ["ensemble", "--dim", str(GUE_DENSE_DIM),
                           "--seeds", f"{first}..{first + GUE_DENSE_MEMBERS}",
                           "--horizon-mult", str(GUE_DENSE_HORIZON_MULT)])]


def _qac_anneal(index: int, work: Path) -> list:
    path = _write(work / "chain6.json", _chain(ANNEAL_QUBITS, index))
    return [("qac-anneal", ["qac", "--instance", path, "--T", "1,4,16"])]


def _decay_long(index: int, work: Path) -> list:
    return [("decay-long", ["decay", "--dim", str(DECAY_DIM), "--seed",
                            str(index), "--steps", str(DECAY_STEPS)])]


WORKLOADS = {
    "suite-small": _suite_small,
    "gue-dense": _gue_dense,
    "qac-anneal": _qac_anneal,
    "decay-long": _decay_long,
}


def make_calls(workload: str, seed: int, work: Path) -> list:
    """(call name, argv, output directory) for every CLI call of one
    repetition; instance files land in `work`."""
    work.mkdir(parents=True, exist_ok=True)
    calls = WORKLOADS[workload](seed % POOL, work)
    return [(name, argv + ["--out", str(work / "out" / name)], work / "out" / name)
            for name, argv in calls]
