"""Random-matrix stress test of every inequality at once.

Fifty random Hermitian matrices (Gaussian unitary ensemble, deterministic
seeds) at dimension 8, each against a Haar-random start state, evolved to
four times the orthogonality characteristic time. Exact orthogonality needs
finely balanced eigenbasis weights, so Haar-random starts generically never
reach it and the trigger rate reads zero; that is the expected, consistent
outcome for bounds that are necessary conditions, and the margins quantify
how much headroom every inequality keeps. Results land in the same
directory layout the command-line driver produces.
"""

import json
import os
from pathlib import Path

from qspeedlim import run_gue_ensemble, write_campaign_result

OUT = Path(os.environ.get("QSPEEDLIM_OUT", "demo-output")) / "gue-ensemble"

result = run_gue_ensemble(dim=8, seeds=range(50), horizon_mult=4.0)
paths = write_campaign_result(result, OUT)
summary = result.summary

print(f"ensemble: dim 8, 50 seeds (config {summary['config_hash']})")
print(f"violations: {summary['n_violations']} (expected 0)")
rates = summary["trigger_rates"]
print(f"orthogonality trigger rate: {rates['orthogonal']:.2f}, "
      f"antipodal: {rates['antipodal']:.2f}")
print()
print("margin quantiles (rhs - lhs; positive means headroom):")
print(f"  {'margin':<20} {'min':>10} {'median':>10} {'max':>10}")
for name, stats in sorted(summary["margin_quantiles"].items()):
    print(f"  {name:<20} {stats['min']:>10.4g} {stats['median']:>10.4g} "
          f"{stats['max']:>10.4g}")
print()

# the per-run reports carry full provenance; show one
sample = json.loads(paths["reports"][0].read_text())
print(f"sample report {paths['reports'][0].name}:")
print(f"  provenance: {json.dumps(sample['provenance'], sort_keys=True)}")
print(f"  characteristic times: {sample['characteristic_times']}")
print(f"  measured orthogonality time: {sample['measured_orth_time']}")
print()
print(f"wrote {len(paths['reports'])} reports, summary.csv and summary.json to {OUT}")
