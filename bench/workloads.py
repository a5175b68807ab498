"""The four benchmark workloads: inputs, the timed library call, and the oracle check.

Every workload draws its inputs from the benchmark seed alone; the library
only ever sees the generated parameters and samples.  Inputs come in chunks:
the first chunk is part of set-up, later chunks are generated between
operations, outside the timed intervals.  Operations run in a fixed cycle of
kinds so that every run holds about equal numbers of each kind; a run only
stops at the end of a cycle (``quantum`` operations).

Library functions are always looked up through their module at call time, so
the wrappers that a traced run installs on module attributes see every call.

Each ``check`` (or ``check_all``) compares an output with an oracle that
shares no code path with the holonomic engines (adaptive quadrature, numpy
root finding, the resultant identity) and returns the worst relative
deviation it saw.  An output whose deviation exceeds ``tol`` misses its
check, and the operation counts as failed.
"""

from __future__ import annotations

import bisect
import math
import statistics
import struct
from itertools import product
from time import perf_counter

import numpy as np

from exppoly import domain, holo_bi, holo_uni, inference, oracle, polyalg
from exppoly.domain import Support, ThetaBi, ThetaUni
from exppoly.errors import OnDiscriminant
from exppoly.verify import random_theta_bi_proper, random_theta_uni

HALF, REAL = Support.HALF_LINE, Support.REAL_LINE


class NotConverged(Exception):
    """A fit returned with ``converged=False``; the operation failed."""


def _stream(seed: int, key: tuple) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def _pack(*values: float) -> bytes:
    return struct.pack(f"<{len(values)}d", *values)


def percentile(sorted_values, q: int) -> float:
    """q-th percentile (statistics.quantiles, inclusive) of sorted values; 0 if empty."""
    if len(sorted_values) < 2:
        return sorted_values[0] if sorted_values else 0.0
    return statistics.quantiles(sorted_values, n=100, method="inclusive")[q - 1]


def beyond_p95(sorted_values) -> int:
    """How many of the sorted values lie above their 95th percentile."""
    return len(sorted_values) - bisect.bisect_right(sorted_values, percentile(sorted_values, 95))


def _rel(got: float, want: float, scale: float) -> float:
    return abs(got - want) / max(scale, 1e-300)


def _quad_moments(theta: ThetaUni, top: int) -> np.ndarray:
    """Oracle moment integrals m = 0..top at theta, by quadrature."""
    return np.array([oracle.quad_moment_uni(theta, m) for m in range(top + 1)])


def _halfline_statistic(stats, d: int, theta_null: ThetaUni) -> float:
    """Half-line score statistic recomputed from quadrature moments."""
    A = _quad_moments(theta_null, 2 * d)
    mom = A / A[0]
    info = np.array([[mom[l + m] - mom[l] * mom[m] for m in range(1, d + 1)] for l in range(1, d + 1)])
    head, cross, corner = info[: d - 1, : d - 1], info[: d - 1, d - 1], info[d - 1, d - 1]
    cond = corner - float(cross @ np.linalg.solve(head, cross))
    return math.sqrt(stats.n) * (stats.moment(d) - mom[d]) / math.sqrt(cond)


def _realline_statistic(stats, d: int, theta_null: ThetaUni) -> float:
    """Whole-line chi-square statistic recomputed from quadrature moments."""
    A = _quad_moments(theta_null, 2 * d)
    mom = A / A[0]
    info = np.array([[mom[l + m] - mom[l] * mom[m] for m in range(1, d + 1)] for l in range(1, d + 1)])
    scores = np.array([stats.moment(d - 1) - mom[d - 1], stats.moment(d) - mom[d]])
    head, cross, corner = info[: d - 2, : d - 2], info[: d - 2, d - 2 :], info[d - 2 :, d - 2 :]
    cond = corner - cross.T @ np.linalg.solve(head, cross)
    return float(stats.n * scores @ np.linalg.solve(cond, scores))


def _null_score_err(stats, theta_null: ThetaUni) -> float:
    """Worst score component of the null fit, from quadrature moments.

    The null MLE solves sample moment m = model moment m for every free
    coordinate, so each component should vanish.
    """
    eff = domain.effective_theta(theta_null)
    A = _quad_moments(eff, eff.d)
    return max(_rel(stats.moment(m), A[m] / A[0], abs(stats.moment(m))) for m in range(1, eff.d + 1))


class Workload:
    name = ""
    kinds: tuple = ()
    chunk = 64
    tol = 1e-6
    # operations per wall second at the parent commit on the 2-vCPU machine
    # the benchmark was built on; sets the fixed size of a run
    per_second: float

    def __init__(self, seed: int):
        self.seed = seed

    @property
    def quantum(self) -> int:
        """Operations per cycle; a run stops only at a cycle boundary."""
        return len(self.kinds)

    def ops_for(self, seconds: float, least: int) -> int:
        """Operations in a run sized to ``seconds``: whole cycles, at least
        ``least`` operations, the same count for every seed."""
        want = max(seconds * self.per_second, least)
        return math.ceil(want / self.quantum) * self.quantum

    def kind(self, i: int) -> str:
        return self.kinds[i % len(self.kinds)]

    def inputs(self, start: int, count: int) -> list:
        return [self.make(i) for i in range(start, start + count)]

    def make(self, i: int):
        raise NotImplementedError

    def call(self, inp):
        raise NotImplementedError

    def encode(self, out) -> bytes:
        raise NotImplementedError

    def check(self, inp, out) -> float:
        raise NotImplementedError

    def check_all(self, pairs: list) -> list[float]:
        """Deviation of every (input, output) pair from its oracle."""
        return [self.check(inp, out) for inp, out in pairs]

    def converged(self, inp, out) -> bool:
        """Whether every fit inside the operation reached its maximum."""
        return True

    def time_oracle(self, inp):
        """(oracle key, seconds) for one plain oracle evaluation of the input's
        main quantity, or None; traced runs compare engine and oracle medians."""
        return None


class NormConst(Workload):
    """A(theta) and theta_1-derivatives up to 2d at distinct random points.

    Exercises `_ode` and `holo_uni`: one long transport from the gamma start
    per point, the conditioning retry and the refusal policy.  No input
    repeats, so a result cache has nothing to reuse.
    """

    name = "normconst"
    cases = tuple((d, HALF) for d in range(2, 7)) + tuple((d, REAL) for d in (2, 4, 6))
    kinds = tuple(f"{'half' if s is HALF else 'real'}{d}" for d, s in cases)
    chunk = 256
    per_second = 32.0

    def __init__(self, seed: int):
        super().__init__(seed)
        self._rngs = [_stream(seed, (c,)) for c in range(len(self.cases))]

    def make(self, i: int) -> ThetaUni:
        c = i % len(self.cases)
        d, support = self.cases[c]
        return random_theta_uni(self._rngs[c], d, support)

    def call(self, theta: ThetaUni) -> np.ndarray:
        return holo_uni.norm_const_and_derivs(theta, 2 * theta.d)

    def encode(self, out: np.ndarray) -> bytes:
        return np.ascontiguousarray(out, dtype=float).tobytes()

    def check(self, theta: ThetaUni, out: np.ndarray) -> float:
        """A and the first d moment integrals against quadrature.

        On the whole line an odd moment can nearly cancel, so each deviation
        is taken relative to the integral of |x|^m exp(g), the sum of the two
        half-line pieces.
        """
        worst = 0.0
        half = ThetaUni(theta.coeffs, HALF)
        mirror = ThetaUni([c * (-1) ** (k + 1) for k, c in enumerate(theta.coeffs)], HALF)
        for m in range(theta.d + 1):
            want = oracle.quad_moment_uni(theta, m)
            if theta.support is REAL:
                scale = oracle.quad_moment_uni(half, m) + oracle.quad_moment_uni(mirror, m)
            else:
                scale = abs(want)
            worst = max(worst, _rel(float(out[m]), want, scale))
        return worst

    def time_oracle(self, theta: ThetaUni):
        start = perf_counter()
        oracle.quad_moment_uni(theta, 0)
        return "uni", perf_counter() - start


class Calibration(Workload):
    """Monte Carlo replications as in `exppoly simulate`, one fit or test each.

    Exercises `inference` (Fisher scoring, score tests, order selection) and
    the incremental short transports of its provider, plus the refresh and
    second full transport to the same estimate.
    """

    name = "calibration"
    kinds = ("fit_mle", "score_test_halfline", "select_order_halfline", "select_order_realline")
    truths = {
        "fit_mle": ThetaUni((-1.0, 3.0, -2.0)),
        "score_test_halfline": ThetaUni((3.0, -2.0, 0.0)),
        "select_order_halfline": ThetaUni((-1.0, 3.0, -2.0)),
        "select_order_realline": ThetaUni((1.0, 4.0, -2.0, -3.0), REAL),
    }
    stat_order = {"fit_mle": 6, "score_test_halfline": 6, "select_order_halfline": 5, "select_order_realline": 6}
    per_second = 18.0
    n = 1000

    def make(self, i: int):
        kind = self.kind(i)
        truth = self.truths[kind]
        x = oracle.sample_uni(truth, self.n, np.random.SeedSequence(entropy=self.seed, spawn_key=(i,)))
        return kind, domain.suff_stats(x, self.stat_order[kind], truth.support)

    def call(self, inp):
        kind, stats = inp
        if kind == "fit_mle":
            fit = inference.fit_mle(stats, 3)
            if not fit.converged:
                raise NotConverged(f"fit stopped after {fit.iterations} iterations")
            return fit
        if kind == "score_test_halfline":
            return inference.score_test_halfline(stats, 3)
        if kind == "select_order_halfline":
            return inference.select_order(stats, 5)
        return inference.select_order(stats, 6, support=REAL)

    def encode(self, out) -> bytes:
        if isinstance(out, inference.FitResult):
            return out.theta_hat.as_array().tobytes() + _pack(out.loglik_bar, out.grad_norm, out.iterations)
        tests = [out] if isinstance(out, inference.TestResult) else out[1]
        head = b"" if isinstance(out, inference.TestResult) else _pack(out[0])
        return head + b"".join(_pack(t.statistic, *t.theta_hat_null, t.effective_order) for t in tests)

    @staticmethod
    def _tests(inp, out) -> list:
        kind = inp[0]
        return [] if kind == "fit_mle" else [out] if kind == "score_test_halfline" else out[1]

    def check(self, inp, out) -> float:
        """The score at a fitted estimate, or every test statistic, from
        quadrature moments at the estimate the library reports."""
        kind, stats = inp
        if kind == "fit_mle":
            return _null_score_err(stats, out.theta_hat)
        worst = 0.0
        for t in self._tests(inp, out):
            d = len(t.theta_hat_null)
            theta_null = ThetaUni(t.theta_hat_null, stats.support)
            if stats.support is REAL:
                ref = _realline_statistic(stats, d, theta_null)
            else:
                ref = _halfline_statistic(stats, d, theta_null)
            worst = max(worst, _rel(t.statistic, ref, max(1.0, abs(ref))))
        return worst

    def converged(self, inp, out) -> bool:
        """A test is only as good as its null fit: the score of the null model
        must vanish at the reported null estimate.  The library does not check
        this itself, so a null fit that stopped early is caught here."""
        stats = inp[1]
        return all(
            _null_score_err(stats, ThetaUni(t.theta_hat_null, stats.support)) <= self.tol
            for t in self._tests(inp, out)
        )


class Quadrant(Workload):
    """Bivariate derivative tables on the positive quadrant, plus a few fits.

    Exercises `holo_bi`: transport from the product point (with the sign of
    the discriminant checked at every accepted step) and level solves up to
    order 2d; `holo_uni` only carries the two axis states.  Every seventh
    operation fits a quadratic model to a sample with independent columns.
    """

    name = "quadrant"
    kinds = ("table2", "table3", "table4", "table2", "table3", "table4", "fit_bi")
    chunk = 28
    per_second = 11.5
    tol = 1e-5
    x_truth = ThetaUni((1.0, -1.0))
    y_truth = ThetaUni((0.5, -2.0))
    n = 1000

    def __init__(self, seed: int):
        super().__init__(seed)
        self._rngs = {d: _stream(seed, (d,)) for d in (2, 3, 4)}

    def make(self, i: int):
        kind = self.kind(i)
        if kind == "fit_bi":
            x = oracle.sample_uni(self.x_truth, self.n, np.random.SeedSequence(entropy=self.seed, spawn_key=(i, 0)))
            y = oracle.sample_uni(self.y_truth, self.n, np.random.SeedSequence(entropy=self.seed, spawn_key=(i, 1)))
            return kind, domain.suff_stats(np.column_stack([x, y]), 2, "bivariate")
        d = int(kind[-1])
        return kind, random_theta_bi_proper(self._rngs[d], d)

    def call(self, inp):
        kind, arg = inp
        if kind == "fit_bi":
            fit = inference.fit_mle(arg, 2)
            if not fit.converged:
                raise NotConverged(f"fit stopped after {fit.iterations} iterations")
            return fit
        d = arg.d
        top = arg.top_coeffs()
        table = holo_bi.transport_bi(holo_bi.initial_state_bi(d, abs(top[0]), abs(top[-1])), arg)
        return holo_bi.extend_table(table, 2 * d)

    def encode(self, out) -> bytes:
        if isinstance(out, inference.FitResult):
            return out.theta_hat.as_vector().tobytes() + _pack(out.loglik_bar, out.iterations)
        return _pack(*(out.values[k] for k in sorted(out.values)))

    def check(self, inp, out) -> float:
        """A(theta) against nested quadrature; fits by their score at the estimate."""
        kind, arg = inp
        if kind != "fit_bi":
            want = oracle.quad_A_bi(arg)
            return _rel(out.norm_const, want, abs(want))
        theta = out.theta_hat
        A = oracle.quad_A_bi(theta)
        return max(
            _rel(arg.moment_bi(s, t), oracle.quad_A_bi(theta, (s, t)) / A, abs(arg.moment_bi(s, t)))
            for s, t in domain.monomials_bi(2)
        )

    def time_oracle(self, inp):
        kind, arg = inp
        if kind == "fit_bi":
            return None
        start = perf_counter()
        oracle.quad_A_bi(arg)
        return "bi", perf_counter() - start


class Chambers(Workload):
    """The README's cubic-slice grid sweep, one grid point per operation.

    Exercises `polyalg` (resultant discriminant, Sturm chains, square-free
    handling) and `holo_bi.pfaffian_det`.  The grid is fixed
    (theta_30 = theta_03 = -1, theta_12 and theta_21 in -6..6 step 0.1,
    14 641 points); the seed sets the visiting order of each sweep, and a run
    only ends after a whole sweep.
    """

    name = "chambers"
    ticks = np.arange(-6.0, 6.0 + 0.05, 0.1)
    grid = [(float(a), float(b)) for a, b in product(ticks, ticks)]
    kinds = ("point",)
    quantum = chunk = len(grid)
    per_second = 5400.0
    tol = 1e-9

    def inputs(self, start: int, count: int) -> list:
        sweep = start // len(self.grid)
        order = _stream(self.seed, (sweep,)).permutation(len(self.grid))
        return [(-1.0, self.grid[k][1], self.grid[k][0], -1.0) for k in order]

    def call(self, top):
        try:
            label = polyalg.classify_chamber(top)
            sig = (label.n_positive, label.n_negative, label.n_complex_pairs, label.proper)
        except OnDiscriminant:
            sig = None
        theta = ThetaBi(3, {(3 - j, j): top[j] for j in range(4)})
        return sig, polyalg.discriminant(top), holo_bi.pfaffian_det(theta)

    def encode(self, out) -> bytes:
        sig, disc, detp = out
        return repr(sig).encode() + _pack(disc, detp)

    def check_all(self, pairs: list) -> list[float]:
        """Labels against real-root counts of numpy.roots' companion matrices
        (batched); det P against d^(d-2) D in the detp-suite convention.

        A wrong label reads as an infinite deviation.  A point reported on the
        discriminant must have a (numerically) double root.
        """
        tops = np.array([top for top, _ in pairs])
        companion = np.zeros((len(pairs), 3, 3))
        companion[:, 0, :] = -tops[:, 1:] / tops[:, :1]
        companion[:, 1, 0] = companion[:, 2, 1] = 1.0
        errs = []
        for (top, (sig, disc, detp)), roots in zip(pairs, np.linalg.eigvals(companion)):
            size = max(1.0, float(np.max(np.abs(roots))))
            if sig is None:
                gap = min(abs(roots[i] - roots[j]) for i in range(3) for j in range(i + 1, 3))
                if gap > 1e-4 * size:
                    errs.append(math.inf)
                    continue
            else:
                real = roots[np.abs(roots.imag) <= 1e-9 * size].real
                want = (int(np.sum(real > 0)), int(np.sum(real < 0)), (3 - real.size) // 2)
                if sig[:3] != want or sig[3] != (top[0] < 0 and top[-1] < 0 and want[0] == 0):
                    errs.append(math.inf)
                    continue
            errs.append(abs(detp - 3.0 * disc) / max(1.0, abs(3.0 * disc)))
        return errs


WORKLOADS = {w.name: w for w in (NormConst, Calibration, Quadrant, Chambers)}

