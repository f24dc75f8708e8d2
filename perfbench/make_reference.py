#!/usr/bin/env python3
"""Record the correctness gate's reference digests for one workload.

    python3 perfbench/make_reference.py suite-small

Runs every pool instance of the workload once through `qspeedlim.cli.main`
and writes perfbench/reference/<workload>.json. The references in the tree
were recorded at the commit that added the benchmark; rerun this only to
record a deliberate change of the program's outputs, and say so.
"""

import json
import shutil
import sys
import time

import run  # pins the BLAS threads before numpy loads
import gate
from workloads import POOL, make_calls


def main(workload: str) -> int:
    cli = run.import_program()
    work = run.WORK / f"reference-{workload}"
    pool = {}
    try:
        for index in range(POOL):
            t0 = time.perf_counter()
            digests = {}
            for name, argv, out_dir in make_calls(workload, index, work):
                code, _ = run.run_call(cli.main, argv, out_dir)
                digests[name] = gate.digest(code, out_dir)
                if digests[name]["exit"] != 0 or digests[name]["n_violations"]:
                    raise SystemExit(f"{workload}[{index}] {name}: exit {code}, "
                                     f"{digests[name]['n_violations']} violations")
            pool[str(index)] = digests
            print(f"{workload}[{index}] {time.perf_counter() - t0:.2f} s", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    path = run.BENCH / "reference" / f"{workload}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(pool, sort_keys=True, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
