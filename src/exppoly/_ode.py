"""Initial-value integrators for transport along parameter segments.

Both transport engines, univariate and bivariate, step by Taylor series
from exactly computed coefficients (`taylor`), with the step chosen from the
last coefficients; each system supplies its own coefficient recursion, which
hands back all of a step's coefficient rows as one ndarray.  A linear system
may step its variational equations in the same rows, and `taylor` then
multiplies the steps' Jacobians into the segment's.

The other steppers here propagate y' = f(s, y) across s in [0, 1] and no
engine calls them: an embedded Dormand-Prince 5(4) pair with proportional
step control (`dopri45`) and a fixed-step Runge-Kutta pair.  Both are kept
only because the benchmark tracer wraps them by name; tests/test_ode.py
checks them.

The right-hand sides here are smooth and cheap, so hand-rolled integrators
keep per-transport overhead far below a generic solver while staying fully
deterministic.

The Runge-Kutta stages run on lists of Python floats, not numpy arrays.  The
transport states they were written for have 2 to 21 entries, so an array
operation would cost its call overhead and almost nothing else, and a step
needs dozens of them.  Each stage is written out as one expression per
component, with the operations in the order of the array form
``y + h * sum(a_i * k_i)``, so the results agree with that form to the last
bit (tests/test_ode.py keeps it as the reference).  ``f`` receives a list
and may return any sequence of floats; an ndarray is converted to a list
once per evaluation.
"""

from __future__ import annotations

import math
from operator import mul
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import OdeDivergence

# Dormand-Prince 5(4) tableau.
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)

Rhs = Callable[[float, list], Sequence[float]]
StepCallback = Optional[Callable[[float, list], None]]


def _floats(v: Sequence[float]) -> Sequence[float]:
    return v.tolist() if isinstance(v, np.ndarray) else v


# rk4_fixed and rk4_with_estimate are kept only because bench/tracing.py
# wraps rk4_with_estimate by name; no engine calls them.
def rk4_fixed(
    f: Rhs,
    y0: Sequence[float],
    n_steps: int,
    callback: StepCallback = None,
) -> list[float]:
    y = np.asarray(y0, dtype=float).tolist()
    h = 1.0 / n_steps
    half = 0.5 * h
    sixth = h / 6.0
    s = 0.0
    for _ in range(n_steps):
        k1 = _floats(f(s, y))
        k2 = _floats(f(s + 0.5 * h, [u + half * p for u, p in zip(y, k1)]))
        k3 = _floats(f(s + 0.5 * h, [u + half * p for u, p in zip(y, k2)]))
        k4 = _floats(f(s + h, [u + h * p for u, p in zip(y, k3)]))
        y = [
            u + sixth * (p1 + 2.0 * p2 + 2.0 * p3 + p4)
            for u, p1, p2, p3, p4 in zip(y, k1, k2, k3, k4)
        ]
        s += h
        if callback is not None:
            callback(s, y)
    return y


def rk4_with_estimate(
    f: Rhs,
    y0: Sequence[float],
    n_steps: int,
    callback: StepCallback = None,
) -> tuple[list[float], float]:
    """Fixed RK4 plus a Richardson error estimate from a half-step-count run."""
    fine = rk4_fixed(f, y0, n_steps, callback)
    coarse = rk4_fixed(f, y0, max(1, n_steps // 2))
    fine_arr = np.array(fine)
    scale = max(float(np.max(np.abs(fine_arr))), 1e-300)
    est = float(np.max(np.abs(fine_arr - np.array(coarse)))) / (15.0 * scale)
    return fine, est


def dopri45(
    f: Rhs,
    y0: Sequence[float],
    rtol: float,
    max_steps: int = 200_000,
    callback: StepCallback = None,
) -> tuple[list[float], float]:
    """Adaptive Dormand-Prince over [0, 1]; returns (y(1), error accumulator).

    Error control is relative to the larger state components with a floored
    denominator, so a component passing through zero cannot stall the solver.
    The accumulator sums accepted per-step relative error estimates.  A step
    whose fifth-order solution is not finite is retried at a fifth of its
    size; a NaN error ratio rejects the step like a large one.
    """
    _, c2, c3, c4, c5, c6, c7 = _C
    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), (
        a61, a62, a63, a64, a65
    ), (a71, a72, a73, a74, a75, a76) = _A[1:]
    b1, b2, b3, b4, b5, b6, b7 = _B5
    e1, e2, e3, e4, e5, e6, e7 = _B4
    y = np.asarray(y0, dtype=float).tolist()
    s = 0.0
    h = 0.01
    accum = 0.0
    k1 = _floats(f(s, y))
    for _ in range(max_steps):
        if s >= 1.0:
            return y, accum
        h = min(h, 1.0 - s)
        if h < 1e-14:
            raise OdeDivergence("step size underflow in adaptive transport")
        # each "0.0 +" reproduces the zero start of the array sums these replace
        z = [u + h * (0.0 + a21 * p1) for u, p1 in zip(y, k1)]
        k2 = _floats(f(s + c2 * h, z))
        z = [u + h * (0.0 + a31 * p1 + a32 * p2) for u, p1, p2 in zip(y, k1, k2)]
        k3 = _floats(f(s + c3 * h, z))
        z = [
            u + h * (0.0 + a41 * p1 + a42 * p2 + a43 * p3)
            for u, p1, p2, p3 in zip(y, k1, k2, k3)
        ]
        k4 = _floats(f(s + c4 * h, z))
        z = [
            u + h * (0.0 + a51 * p1 + a52 * p2 + a53 * p3 + a54 * p4)
            for u, p1, p2, p3, p4 in zip(y, k1, k2, k3, k4)
        ]
        k5 = _floats(f(s + c5 * h, z))
        z = [
            u + h * (0.0 + a61 * p1 + a62 * p2 + a63 * p3 + a64 * p4 + a65 * p5)
            for u, p1, p2, p3, p4, p5 in zip(y, k1, k2, k3, k4, k5)
        ]
        k6 = _floats(f(s + c6 * h, z))
        z = [
            u + h * (0.0 + a71 * p1 + a72 * p2 + a73 * p3 + a74 * p4 + a75 * p5 + a76 * p6)
            for u, p1, p2, p3, p4, p5, p6 in zip(y, k1, k2, k3, k4, k5, k6)
        ]
        k7 = _floats(f(s + c7 * h, z))
        stages = list(zip(y, k1, k2, k3, k4, k5, k6, k7))
        y5 = [
            u + h * (0.0 + b1 * p1 + b2 * p2 + b3 * p3 + b4 * p4 + b5 * p5 + b6 * p6 + b7 * p7)
            for u, p1, p2, p3, p4, p5, p6, p7 in stages
        ]
        if not all(map(math.isfinite, y5)):
            h *= 0.2
            continue
        y4 = [
            u + h * (0.0 + e1 * p1 + e2 * p2 + e3 * p3 + e4 * p4 + e5 * p5 + e6 * p6 + e7 * p7)
            for u, p1, p2, p3, p4, p5, p6, p7 in stages
        ]
        err = [abs(p - q) for p, q in zip(y5, y4)]
        ymag = max(max(map(abs, y)), max(map(abs, y5)), 1e-300)
        floor = 1e-3 * ymag
        # largest err/denom, where any NaN wins (as in np.max); a denominator
        # that underflows to zero gives inf or NaN, as array division does
        ratio = 0.0
        for e, u, v in zip(err, y, y5):
            denom = rtol * max(abs(u), abs(v), floor)
            r = e / denom if denom else (math.inf if e else math.nan)
            if r > ratio or r != r:
                ratio = r
        if ratio <= 1.0:
            s += h
            y = y5
            k1 = k7  # first-same-as-last
            accum += max(err) / ymag
            if callback is not None:
                callback(s, y)
        h *= min(5.0, max(0.2, 0.9 * (max(ratio, 1e-10)) ** -0.2))
    raise OdeDivergence(f"adaptive transport exceeded {max_steps} steps")


_EPS = 2.0**-52
# Taylor steps stop short of the step whose last terms reach rtol |y|; the
# factor puts them 0.8^n times below it at order n (35 times at order 16).
_SAFETY = 0.8


def reach(norm: float, tol: float, n: int) -> float:
    """The step t that `taylor` allows a coefficient row n of absolute sum
    `norm` > 0: `_SAFETY` times the t at which norm t^n is tol."""
    return _SAFETY * (tol / norm) ** (1.0 / n)


def reaches_end(last: np.ndarray, y: Sequence[float], rtol: float, s: float, H: float, N: int) -> bool:
    """Whether coefficient rows N-1 and N (`last`, one row each) of the
    series through (s, y), in t with scale H, let `taylor` step to the
    segment's end s = 1: the test by which a series builder may stop its
    rows at order N."""
    tol = rtol * max(map(abs, y))
    t_end = (1.0 - s) / H
    norms = np.abs(last).sum(1).tolist()
    return all(norm == 0.0 or reach(norm, tol, n) >= t_end for n, norm in zip((N - 1, N), norms))


def taylor(
    series: Callable[[float, list, float], np.ndarray],
    y0: Sequence[float],
    rtol: float,
    max_steps: int = 200_000,
    jacobian: bool = False,
) -> tuple:
    """Taylor-series stepping over [0, 1]; returns (y(1), error estimate),
    and with `jacobian` also the matrix Phi = dy(1)/dy0.

    ``series(s, y, H)`` returns an ndarray whose rows a_0 = y, a_1, ..., a_N
    are the Taylor coefficients of the solution through (s, y) in
    t = (s' - s) / H, so that y(s + t H) is the sum of a_n t^n.  H is the
    previous step (1 at first), which keeps the rows within range where the
    solution grows or decays by many orders of magnitude.  N may differ from
    step to step.  With `jacobian` each row is a matrix whose first column
    is that row and whose other columns are the same row's derivatives with
    respect to the step's start y (the variational equations, stepped with
    the solution); the system must be linear, so that those columns summed
    at the accepted t are the step's exact Jacobian.  The steps' Jacobians
    multiply into Phi.

    Each step is chosen after its coefficients are known, from the absolute
    sums of the last two rows (two, because a parity can zero every other
    one): t is `_SAFETY` times the largest step at which each of them
    contributes at most rtol |y|.  The step's error is the larger of those
    two terms (the truncation tail) plus the rows' own rounding: eps times
    (n+1) times the n-th term, summed, since row n is n matrix products from
    row 0 and each term's power rounds once more.  While it exceeds rtol
    times the new |y|, which caps the step wherever a term would dwarf the
    sum, t is halved.  Each entry of the new y is an exactly rounded sum
    (`math.fsum`) of its column's terms.  The estimate adds the steps'
    errors, each relative to the smaller of |y| after that step and at
    s = 1: an error is assumed to grow with the solution but not to decay
    with it.  Non-finite coefficients raise `OdeDivergence` (numpy's
    overflow and invalid-value warnings are off while the rows are built and
    summed, so an overflow shows only as that), as does a step budget
    exhausted before s = 1.
    """
    y = [float(v) for v in y0]
    phi = None
    if not y:
        return (y, 0.0, np.eye(0)) if jacobian else (y, 0.0)
    s = 0.0
    H = 1.0
    errors = []  # (error, |y| after the step)
    with np.errstate(over="ignore", invalid="ignore"):
        while s < 1.0:
            if len(errors) == max_steps:
                raise OdeDivergence(f"Taylor transport exceeded {max_steps} steps")
            rows = series(s, y, H)
            N = len(rows) - 1
            state = rows[:, :, 0] if jacobian else rows
            norms = np.abs(state).sum(1).tolist()
            if not math.isfinite(sum(norms)):
                raise OdeDivergence(f"non-finite Taylor coefficients at s = {s:.6g}")
            tol = rtol * max(map(abs, y))
            t_end = (1.0 - s) / H
            t = t_end
            for n in (N - 1, N):
                if norms[n] > 0.0:
                    t = min(t, reach(norms[n], tol, n))
            cols = state.T.tolist()
            weights = range(1, N + 2)
            while True:
                if t * H < 1e-14:
                    raise OdeDivergence("step size underflow in Taylor transport")
                powers = [t**n for n in range(N + 1)]
                y_new = [math.fsum(map(mul, col, powers)) for col in cols]
                terms = list(map(mul, norms, powers))
                err = max(terms[N - 1], terms[N]) + _EPS * sum(map(mul, weights, terms))
                ymag = max(max(map(abs, y_new)), 1e-300)
                if err <= rtol * ymag and math.isfinite(ymag):
                    break
                t *= 0.5
            if jacobian:
                step = np.dot(powers, rows.reshape(N + 1, -1)).reshape(rows.shape[1:])[:, 1:]
                phi = step if phi is None else step.dot(phi)
            errors.append((err, ymag))
            s = 1.0 if t == t_end else s + t * H
            H = t * H
            y = y_new
    est = sum(e / min(m, ymag) for e, m in errors)
    return (y, est, phi) if jacobian else (y, est)
