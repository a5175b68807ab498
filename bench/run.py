"""exppoly benchmark: one workload, measured end to end or traced per module.

    python3 bench/run.py --workload normconst --seed 1 --seconds 20 --trace 0

Run from a checkout; the library is imported from its ``src`` directory.
Every workload runs in fresh single-threaded interpreters (BLAS limited to
one thread), as a closed loop: one caller issues operations back to back.

``--trace 0`` times set-up in three fresh interpreters (one that stops after
set-up, the measured one, and another that stops after set-up) and reports
the median; the measured one then times a fixed number of operations: whole
cycles of operation kinds, about ``--seconds`` of work at the workload's
nominal rate and at least 220, so that ten samples lie beyond the p95.  The
count depends on the workload and ``--seconds`` alone, so every run of one
seed does the same operations and meets the same failures.  Times are
reported in normalised seconds (see worker.py), so that the machine's own
changes of speed cancel out.  ``--trace 1`` runs the workload untraced at
half the size, then again with spans around the calls into each module for the same operations,
and reports the per-module metrics, the tracing overhead, and whether both
runs returned bit-identical outputs.

Human-readable lines come first; the last line is one JSON object with the
metrics that BENCHMARK.json declares for the chosen mode.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = ROOT / "bench" / "worker.py"
WORKLOADS = ("normconst", "calibration", "quadrant", "chambers")
DEADLINE_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# what every end-to-end number a run prints means; BENCHMARK.json gates the
# ones that stay steady across seeds and gives their units, UNGATED the rest's
DESCRIPTIONS = {
    "setup_s": "fresh interpreter until exppoly and exppoly.cli are imported and the first inputs exist (median of 3)",
    "ops_per_s": "operations that completed and passed their check, per second of operation time",
    "typical_ops_per_s": "passed share times operations per cycle over the sum of each kind's median time",
    "latency_p50_ms": "median time per operation, failed ones included",
    "latency_p90_ms": "90th percentile of the same times",
    "latency_p95_ms": "95th percentile of the same times",
    "failed_ratio": "failed operations (raised, not converged, or missed the oracle) over attempted ones",
    "max_rel_err": "worst relative deviation from the oracle among checked outputs",
    "accurate_digits": "-log10 of the median relative deviation from the oracle (floored at 1e-17)",
    "peak_rss_mb": "ru_maxrss of the workload process at the end of the timed loop",
}
UNGATED = {"ops_per_s": "1/s", "latency_p90_ms": "ms", "latency_p95_ms": "ms", "failed_ratio": "1", "max_rel_err": "1"}


class BenchError(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def _worker(args: list[str], deadline: float, setup_only: bool = False) -> tuple[float, dict]:
    """Run one worker; returns (normalised seconds from spawn to its
    ``ready`` line, result)."""
    cmd = [sys.executable, str(WORKER), *args] + (["--setup-only"] if setup_only else [])
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=_env(), cwd=ROOT)
    setup_s = None
    lines = []
    try:
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([proc.stdout], [], [], remaining)[0]:
                raise BenchError(f"worker ran past the deadline: {' '.join(args)}")
            line = proc.stdout.readline()
            if not line:
                break
            if setup_s is None and line.strip() == "ready":
                setup_s = time.perf_counter() - start
            else:
                lines.append(line)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0 or setup_s is None:
        raise BenchError(f"worker exited with code {proc.returncode}: {' '.join(args)}")
    result = json.loads(lines[-1])
    return setup_s * result["setup_scale"], result


def _declared(mode: str) -> dict[str, str]:
    """name -> unit of the metrics BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[mode]}


def _describe(workload: str, seed: int, seconds: float, trace: int, res: dict) -> None:
    env = res["env"]
    print(f"exppoly benchmark: workload={workload} seed={seed} seconds={seconds:g} trace={trace}")
    print(
        f"environment: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
        f"nproc {env['nproc']}, BLAS threads {env['blas_threads']} ({', '.join(THREAD_VARS)})"
    )
    failures = ", ".join(f"{k} {v}" for k, v in sorted(res["failures"].items())) or "none"
    print(
        f"operations: attempted {res['ops']}, passed {res['passed']}, failed {res['ops'] - res['passed']} "
        f"({failures}); {res['beyond_p95']} samples beyond p95; operation time {res['wall_busy_s']:.2f} s wall"
    )
    print(
        f"machine speed: speed probe median {res['probe_ms']:.3f} ms wall over {res['probe_samples']} samples; "
        f"times below are normalised seconds, in which the probe takes {res['probe_nominal_ms']:g} ms"
    )
    for reason, message in sorted(res["first_message"].items()):
        print(f"  first {reason}: {message}")


def _emit(correct: bool, res: dict, values: dict[str, float], units: dict[str, str]) -> None:
    missing = [name for name in units if name not in values]
    if missing:
        raise BenchError(f"declared metrics not measured: {missing}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    failed = res["ops"] - res["passed"]
    print(json.dumps({"correct": correct, "attempted": res["ops"], "failed": failed, "metrics": metrics}))


def measure(workload: str, seed: int, seconds: float, deadline: float) -> None:
    common = ["--workload", workload, "--seed", str(seed)]
    # set-up samples before and after the measured process, so that a slow
    # spell of the machine does not decide the median alone
    setups = [_worker(common, deadline, setup_only=True)[0]]
    setup_s, res = _worker(common + ["--seconds", str(seconds)], deadline)
    setups += [setup_s, _worker(common, deadline, setup_only=True)[0]]
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": res["passed"] / res["busy_s"],
        "typical_ops_per_s": res["typical_ops_per_s"],
        "latency_p50_ms": res["latency_p50_ms"],
        "latency_p90_ms": res["latency_p90_ms"],
        "latency_p95_ms": res["latency_p95_ms"],
        "failed_ratio": (res["ops"] - res["passed"]) / res["ops"],
        "max_rel_err": res["max_rel_err"],
        "accurate_digits": -math.log10(max(res["rel_err_p50"], 1e-17)),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    _describe(workload, seed, seconds, 0, res)
    print(f"set-up samples (s): {', '.join(f'{s:.3f}' for s in setups)}")
    declared = _declared("end_to_end")
    units = {**UNGATED, **declared}
    for name, text in DESCRIPTIONS.items():
        print(f"  {name:16s} {values[name]:14.6g} {units[name]:4s} {text}")
    if res["gross"]:
        print(f"INCORRECT: {res['gross']} outputs deviate from their oracle by more than 1e-2")
    _emit(res["gross"] == 0, res, values, declared)


def trace(workload: str, seed: int, seconds: float, deadline: float) -> None:
    common = ["--workload", workload, "--seed", str(seed)]
    _, plain = _worker(common + ["--seconds", str(seconds / 2)], deadline)
    _, traced = _worker(common + ["--ops", str(plain["ops"]), "--trace"], deadline)
    identical = plain["digest"] == traced["digest"]
    values = dict(traced["layers"])
    values["setup.import_s"] = traced["import_s"]
    values["setup.inputs_s"] = traced["inputs_s"]
    values["setup.reference_s"] = traced["reference_s"]
    values["trace.overhead_ratio"] = traced["busy_s"] / plain["busy_s"] - 1.0
    _describe(workload, seed, seconds, 1, traced)
    print(
        f"self-test: traced and untraced outputs of the same {plain['ops']} operations are "
        f"{'bit-identical' if identical else 'DIFFERENT'} ({plain['digest']} / {traced['digest']})"
    )
    for name in sorted(values):
        print(f"  {name:40s} {values[name]:.6g}")
    correct = identical and plain["gross"] == 0 and traced["gross"] == 0
    _emit(correct, traced, values, _declared("per_layer"))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "exppoly" / "__init__.py").is_file():
        print(f"no exppoly sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        (trace if args.trace else measure)(args.workload, args.seed, args.seconds, deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
