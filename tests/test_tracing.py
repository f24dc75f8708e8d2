"""The benchmark's tracer (perfbench/tracing.py) still installs over the program.

The tracer patches functions by name and its counters read trajectory fields
by name, so renaming one of them breaks only the traced benchmark runs. One
traced command line here catches that. The tracer's source is read and
executed, never imported, so no file under perfbench/ is written.
"""

import json
import types
from pathlib import Path

from qspeedlim import cli

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# the acceptance chain (tests/test_acceptance.py)
CHAIN3 = {"n": 3, "couplings": [[0, 1, -1.0], [1, 2, -1.0]], "fields": [[0, 0.25], [2, -0.5]]}


def load_tracing():
    module = types.ModuleType("tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_traced_qac_run_spans_every_layer(tmp_path):
    tracing = load_tracing()
    instance = tmp_path / "chain3.json"
    instance.write_text(json.dumps(CHAIN3))
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        rc = tracer.root(cli.main, ["qac", "--instance", str(instance), "--T", "1",
                                    "--steps", "50", "--out", str(tmp_path / "o")])
    assert rc == 0
    layers = {span[tracing.LAYER] for span in tracer.spans}
    assert {"propagate", "events", "bounds", "write"} <= layers
    assert tracer.counts["campaigns.members"] == 1
