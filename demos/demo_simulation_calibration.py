"""
Monte Carlo calibration of the estimator and the score test
===========================================================

The `simulate` subcommand replays the whole pipeline (draw a sample, fit,
standardize) many times at a known true parameter and writes per-replication
statistics plus a summary with Kolmogorov-Smirnov comparisons against the
asymptotic law.  Well-calibrated machinery produces uniform-looking KS
p-values; a bug in the constants, the gradient, or the information matrix
shows up immediately as a skewed column.
"""

import contextlib
import io
import json
import pathlib
import tempfile

from exppoly import cli

# removed again when the demo exits
workdir = tempfile.TemporaryDirectory()
out = pathlib.Path(workdir.name) / "sim"


def run_quietly(argv):
    # the CLI prints its JSON payload to stdout; the files carry the same
    # content, so keep the demo's own output readable
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


# ------------------------------------------------------------------
# 1. Interior truth: every standardized coordinate of the MLE should be
#    asymptotically N(0,1).  Keep reps modest so the demo runs in seconds.

code = run_quietly([
    "simulate", "--theta=-1,3,-2", "--n", "400", "--reps", "60",
    "--seed", "4", "--out", str(out / "interior"),
])
assert code == 0
summary = json.loads((out / "interior" / "summary.json").read_text())
print(f"statistic: {summary['statistic']}  null: {summary['null']}")
for col in summary["columns"]:
    print(f"  {col['name']:>4s}: mean {col['mean']:+.3f}  var {col['variance']:.3f}"
          f"  KS p = {col['ks_pvalue']:.3f}")

# ------------------------------------------------------------------
# 2. Truth on the boundary (a quadratic written as a cubic with trailing
#    zero): the harness switches to the order score statistic, which should
#    be N(0,1) under this null.

code = run_quietly([
    "simulate", "--theta=3,-2,0", "--n", "400", "--reps", "60",
    "--seed", "5", "--out", str(out / "boundary"),
])
assert code == 0
summary = json.loads((out / "boundary" / "summary.json").read_text())
col = summary["columns"][0]
print(f"\nboundary truth, statistic: {summary['statistic']}  null: {summary['null']}")
print(f"  {col['name']}: mean {col['mean']:+.3f}  var {col['variance']:.3f}"
      f"  KS p = {col['ks_pvalue']:.3f}")

# ------------------------------------------------------------------
# 3. Everything is reproducible: the per-replication table is written as
#    CSV next to the summary, and rerunning with the same seed gives the
#    identical file byte for byte.

table = (out / "boundary" / "stats.csv").read_text().splitlines()
print(f"\n{len(table)} replications in stats.csv; first rows:")
for line in table[:4]:
    print("  " + line)
