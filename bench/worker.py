"""One workload process: set up, run operations back to back, check them.

Started by run.py in a fresh interpreter with BLAS limited to one thread.
It prints ``ready`` once set-up is done (the parent times set-up up to that
line) and one JSON result line at the end.

The machine this runs on may change speed while it runs (other tenants,
clock scaling), so the worker also times a fixed speed probe: right after
set-up and then every ``PROBE_EVERY_S`` between operations.  Every reported
time is in normalised seconds: an operation's wall time times
``PROBE_NOMINAL_S`` over the median of the ``PROBE_WINDOW`` probe samples
nearest to it in time, so that a slow spell of the machine slows the probe
and the library alike and cancels out.

The timed region is the library call of each operation and nothing else.
Input chunks after the first, the oracle references and checks, and the
output digests all run outside it.  Outputs are checked and dropped chunk by
chunk, so the process's memory does not grow with the number of operations.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import platform
import resource
import statistics
import struct
import sys
from array import array
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
# An answer this far from its oracle has fewer than two correct digits: it
# is silent noise, which makes the run incorrect rather than merely failed.
# Precision lost at ill-conditioned points (up to 3e-4 on the highest
# normconst moment) stays below it and counts as an oracle miss.
GROSS = 1e-2
# The speed probe: its time in normalised seconds, how often it is sampled
# between operations, how many samples follow set-up, and how many samples
# around an operation set its scale.
PROBE_NOMINAL_S = 1.5e-3
PROBE_EVERY_S = 0.1
PROBE_AT_SETUP = 20
PROBE_WINDOW = 5
# The fewest operations in a run: with this many, at least ten samples lie
# beyond the run's p95.
MIN_OPS = 220


def speed_probe() -> float:
    """Seconds taken by a fixed mix of interpreter work and small numpy
    solves, the same kind of work as the library's inner loops."""
    import numpy as np

    start = perf_counter()
    a = np.arange(1.0, 26.0).reshape(5, 5) + 30.0 * np.eye(5)
    s = 0.0
    for k in range(150):
        x = np.linalg.solve(a, np.full(5, k + 1.0))
        s += float(x @ x)
        for j in range(40):
            s = (s * 1.0000001 + j) % 1e6
    return perf_counter() - start


def local_scales(op_at, probe_at, probe) -> list[float]:
    """Normalised seconds per wall second at each operation's start time."""
    scales = []
    for t in op_at:
        lo = min(max(0, bisect.bisect(probe_at, t) - PROBE_WINDOW // 2), len(probe) - PROBE_WINDOW)
        scales.append(PROBE_NOMINAL_S / statistics.median(probe[lo : lo + PROBE_WINDOW]))
    return scales


class Ledger:
    """Checks finished operations against their oracle and keeps the tallies."""

    def __init__(self, wl, time_oracle: bool):
        self.wl = wl
        self.time_oracle = time_oracle
        self.errors = array("d")
        self.ok = bytearray()
        self.failures: dict[str, int] = {}
        self.first_message: dict[str, str] = {}
        self.gross = 0
        self.oracle_ms: dict[str, list[float]] = {}
        self.seconds = 0.0
        self._hash = hashlib.blake2b(digest_size=16)

    def _fail(self, reason: str, message: str = "") -> None:
        self.failures[reason] = self.failures.get(reason, 0) + 1
        if message:
            self.first_message.setdefault(reason, message[:200])

    def settle(self, inputs: list, outputs: list) -> None:
        start = perf_counter()
        returned = [k for k, out in enumerate(outputs) if not isinstance(out, Exception)]
        errors = self.wl.check_all([(inputs[k], outputs[k]) for k in returned])
        ok = bytearray(len(outputs))
        for k, e in zip(returned, errors):
            self.errors.append(e)
            if not self.wl.converged(inputs[k], outputs[k]):
                self._fail("not_converged")
            elif e <= self.wl.tol:
                ok[k] = 1
            else:
                self._fail("oracle_miss")
                self.gross += not e <= GROSS
        for out in outputs:
            if isinstance(out, Exception):
                self._fail(type(out).__name__, str(out))
                blob = f"!{type(out).__name__}".encode()
            else:
                blob = self.wl.encode(out)
            self._hash.update(struct.pack("<I", len(blob)))
            self._hash.update(blob)
        self.ok += ok
        if self.time_oracle:
            for inp in inputs[: len(outputs)]:
                timed = self.wl.time_oracle(inp)
                if timed is not None:
                    self.oracle_ms.setdefault(timed[0], []).append(1e3 * timed[1])
        self.seconds += perf_counter() - start

    @property
    def digest(self) -> str:
        """One hash over the canonical bytes of every output, in operation order."""
        return self._hash.hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0, help="size the run from the workload's nominal rate")
    ap.add_argument("--ops", type=int, default=0, help="run exactly this many operations instead")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    t0 = perf_counter()
    import exppoly
    import exppoly.cli  # noqa: F401  (the command-line layer's cost is its import)

    import_s = perf_counter() - t0
    if not Path(exppoly.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"exppoly imported from {exppoly.__file__}, not from this checkout", file=sys.stderr)
        return 2

    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    t1 = perf_counter()
    wl = workloads.WORKLOADS[args.workload](args.seed)
    inputs = wl.inputs(0, wl.chunk)
    inputs_s = perf_counter() - t1
    print("ready", flush=True)
    speed_probe()  # warm-up: numpy's first solve loads LAPACK
    probe, probe_at = array("d"), array("d")
    for _ in range(PROBE_AT_SETUP):
        probe.append(speed_probe())
        probe_at.append(perf_counter())
    setup_scale = PROBE_NOMINAL_S / statistics.median(probe)
    if args.setup_only:
        print(json.dumps({"setup_scale": setup_scale}), flush=True)
        return 0

    ledger = Ledger(wl, time_oracle=tracer is not None)
    lat, op_at = array("d"), array("d")
    outputs: list = []
    busy = 0.0
    i = 0
    last_probe = perf_counter()

    n_ops = args.ops or wl.ops_for(args.seconds, MIN_OPS)
    while i < n_ops:
        if perf_counter() - last_probe >= PROBE_EVERY_S:
            probe.append(speed_probe())
            last_probe = perf_counter()
            probe_at.append(last_probe)
        if len(outputs) == len(inputs):
            ledger.settle(inputs, outputs)
            inputs, outputs = wl.inputs(i, wl.chunk), []
        inp = inputs[len(outputs)]
        span = tracer.begin_op(i, wl.kind(i)) if tracer else None
        err = None
        start = perf_counter()
        try:
            out = wl.call(inp)
        except Exception as exc:  # a raising operation is a failure, not an abort
            out, err = None, exc
        dt = perf_counter() - start
        if tracer:
            tracer.end_op(span, type(err).__name__ if err else "")
        lat.append(dt)
        op_at.append(start)
        outputs.append(err if err is not None else out)
        busy += dt
        i += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.restore()
    ledger.settle(inputs, outputs)

    import numpy
    import scipy

    # from here on every time is in normalised seconds
    lat = array("d", (dt * k for dt, k in zip(lat, local_scales(op_at, probe_at, probe))))
    # a typical cycle: each slot costs the median time of its operation kind,
    # so a few very slow operations cannot decide the throughput alone
    by_kind: dict[str, list[float]] = {}
    for k, dt in enumerate(lat):
        by_kind.setdefault(wl.kind(k), []).append(dt)
    median = {kind: statistics.median(v) for kind, v in by_kind.items()}
    cycle_s = sum(median[wl.kind(k)] for k in range(wl.quantum))
    passed = sum(ledger.ok)
    errors = sorted(ledger.errors)
    srt = sorted(lat)
    result = {
        "ops": len(lat),
        "passed": passed,
        "failures": ledger.failures,
        "gross": ledger.gross,
        "first_message": ledger.first_message,
        "wall_busy_s": busy,
        "busy_s": sum(lat),
        "probe_ms": 1e3 * statistics.median(probe),
        "probe_nominal_ms": 1e3 * PROBE_NOMINAL_S,
        "setup_scale": setup_scale,
        "probe_samples": len(probe),
        "typical_ops_per_s": passed / len(lat) * wl.quantum / cycle_s,
        "latency_p50_ms": 1e3 * workloads.percentile(srt, 50),
        "latency_p90_ms": 1e3 * workloads.percentile(srt, 90),
        "latency_p95_ms": 1e3 * workloads.percentile(srt, 95),
        "beyond_p95": workloads.beyond_p95(srt),
        "max_rel_err": errors[-1] if errors else 0.0,
        "rel_err_p50": statistics.median(errors) if errors else 0.0,
        "peak_rss_mb": peak_rss_mb,
        "import_s": import_s,
        "inputs_s": inputs_s,
        "reference_s": ledger.seconds,
        "digest": ledger.digest,
        "env": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "nproc": os.cpu_count(),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", ""),
        },
    }
    if tracer:
        p50 = {k: statistics.median(v) for k, v in ledger.oracle_ms.items()}
        result["layers"] = tracing.layer_metrics(tracer.spans, len(lat), p50)
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{args.workload}-{args.seed}.csv.gz")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
