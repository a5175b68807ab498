"""Taylor-series stepping for transport along parameter segments.

Both transport engines, univariate and bivariate, step by Taylor series
from exactly computed coefficients (`taylor`), with the step chosen from the
last coefficients.  Each system supplies its own coefficient recursion,
which extends a step's rows on request through a given order; `taylor`
alone decides where they stop: at the first of the orders `_ORDERS` whose
last two rows let the step reach the segment's end (variable-order Taylor
stepping).  A step asks for its rows through the order its predecessor
stopped at, and for the rest only where none of those reaches the end.  A
linear system may step its variational equations in the same rows, and
`taylor` then multiplies the steps' Jacobians into the segment's.
"""

from __future__ import annotations

import math
from itertools import repeat
from operator import mul
from typing import Callable, Sequence

import numpy as np

from .errors import OdeDivergence


# No engine runs a Runge-Kutta integrator.  bench/tracing.py still wraps
# these two names (`Tracer.install` and `CALL_SITES`), so they stay as stubs.
def dopri45(*args, **kwargs):
    raise NotImplementedError("transport steps by Taylor series (_ode.taylor)")


def rk4_with_estimate(*args, **kwargs):
    raise NotImplementedError("transport steps by Taylor series (_ode.taylor)")


_EPS = 2.0**-52
# Taylor steps stop short of the step whose last terms reach rtol |y|; the
# factor puts them 0.8^n times below it at order n (35 times at order 16).
_SAFETY = 0.8
# The orders at which a step's rows may stop: the first whose last two rows
# already reach the segment's end.  A row is one product with a matrix formed
# once per step, cheap next to forming that matrix, so a short move takes one
# step of 16 rows and a long one fewer steps of 48.  A series builder sizes
# its buffers by the last.
_ORDERS = (16, 24, 32, 40, 48)
# The steps a segment may take before `taylor` gives up on it.
_MAX_STEPS = 200_000


def reach(norm: float, tol: float, n: int) -> float:
    """The step t that `taylor` allows a coefficient row n of absolute sum
    `norm` > 0: `_SAFETY` times the t at which norm t^n is tol."""
    return _SAFETY * (tol / norm) ** (1.0 / n)


def _stop(norms: list[float], tol: float, t_end: float) -> tuple[int, float] | None:
    """The order at which a step's rows stop, and its t, from the absolute
    sums of rows 0..len(norms)-1: the first member of `_ORDERS` whose last
    two rows reach t_end, else the last member.  None where the rows end
    before either is known."""
    last = len(norms) - 1
    for N in _ORDERS:
        if N > last:
            return None
        t = t_end
        for n in (N - 1, N):
            norm = norms[n]
            if norm > 0.0:
                t = min(t, reach(norm, tol, n))
        if t == t_end or N == _ORDERS[-1]:
            return N, t


def taylor(
    series: Callable[[float, list, float], Callable[[int], np.ndarray]],
    y0: Sequence[float],
    rtol: float,
    jacobian: bool = False,
) -> tuple:
    """Taylor-series stepping over [0, 1]; returns (y(1), error estimate),
    and with `jacobian` also the matrix Phi = dy(1)/dy0.

    ``series(s, y, H)`` returns a function ``rows(N)``: it extends the
    step's coefficient rows through order N, continuing from where an
    earlier call stopped, and returns rows a_0 = y, a_1, ..., a_N as one
    ndarray, valid until the next step's `series` call.  They are the Taylor
    coefficients of the solution through (s, y) in t = (s' - s) / H, so that
    y(s + t H) is the sum of a_n t^n.  H is the previous step (1 at first),
    which keeps the rows within range where the solution grows or decays by
    many orders of magnitude.  With `jacobian` each row is a matrix whose
    first column is that row and whose other columns are the same row's
    derivatives with respect to the step's start y (the variational
    equations, stepped with the solution); the system must be linear, so
    that those columns summed at the accepted t are the step's exact
    Jacobian.  The steps' Jacobians multiply into Phi.

    Each step's t comes from the absolute sums of its last two rows (two,
    because a parity can zero every other one): `_SAFETY` times the largest
    step at which each of them contributes at most rtol |y| (`reach`), and
    at most the rest of the segment.  The rows stop at the first order of
    `_ORDERS` whose t reaches the segment's end, else at the last one
    (`_stop`).  The step's error is the larger of those two terms (the
    truncation tail) plus the rows' own rounding: eps times (n+1) times the
    n-th term, summed, since row n is n matrix products from row 0 and each
    term's power rounds once more.  While it exceeds rtol times the new |y|,
    which caps the step wherever a term would dwarf the sum, t is halved.
    Each entry of the new y is an exactly rounded sum (`math.fsum`) of its
    column's terms; at t = 1 those are the coefficients themselves.  The
    estimate adds the steps' errors, each relative to the smaller of |y|
    after that step and at s = 1: an error is assumed to grow with the
    solution but not to decay with it.

    A step takes its rows in one pass: it asks for them through the order
    its predecessor stopped at (16 on a segment's first step), sums them
    with one numpy call and finds the stop among them on Python floats.
    Only where none of those orders reaches the end does it ask once more,
    for the rest through the last order, so a step makes at most two
    requests and stops where climbing the orders one by one would.  Rows
    past the stop take no part in the step.

    Non-finite coefficients through the stop raise `OdeDivergence` (numpy's
    overflow and invalid-value warnings are off while the rows are built
    and summed, so an overflow shows only as that), as do finite terms
    whose sum overflows (`math.fsum` raises `OverflowError` there) and a
    segment that needs more than `_MAX_STEPS` steps.
    """
    y = [float(v) for v in y0]
    phi = None
    if not y:
        return (y, 0.0, np.eye(0)) if jacobian else (y, 0.0)
    s = 0.0
    H = 1.0
    N = _ORDERS[0]  # the order a step first asks through: its predecessor's stop
    errors = []  # (error, |y| after the step)
    with np.errstate(over="ignore", invalid="ignore"):
        while s < 1.0:
            if len(errors) == _MAX_STEPS:
                raise OdeDivergence(f"Taylor transport exceeded {_MAX_STEPS} steps")
            rows_through = series(s, y, H)
            tol = rtol * max(map(abs, y))
            t_end = (1.0 - s) / H
            for asked in (N, _ORDERS[-1]):
                rows = rows_through(asked)
                state = rows[:, :, 0] if jacobian else rows
                norms = np.add.reduce(np.abs(state), 1).tolist()
                stop = _stop(norms, tol, t_end)
                if stop is not None:
                    break
            N, t = stop
            norms = norms[: N + 1]
            if not math.isfinite(sum(norms)):
                raise OdeDivergence(f"non-finite Taylor coefficients at s = {s:.6g}")
            cols = state[: N + 1].T.tolist()
            weights = range(1, N + 2)
            while True:
                if t * H < 1e-14:
                    raise OdeDivergence("step size underflow in Taylor transport")
                try:
                    if t == 1.0:
                        powers = [1.0] * (N + 1)
                        y_new = [math.fsum(col) for col in cols]
                    else:
                        powers = list(map(pow, repeat(t, N + 1), range(N + 1)))  # t**n
                        y_new = [math.fsum(map(mul, col, powers)) for col in cols]
                except OverflowError as exc:  # finite terms whose sum overflows
                    raise OdeDivergence(f"Taylor sum overflows at s = {s:.6g}") from exc
                terms = norms if t == 1.0 else list(map(mul, norms, powers))
                err = max(terms[N - 1], terms[N]) + _EPS * sum(map(mul, weights, terms))
                ymag = max(max(map(abs, y_new)), 1e-300)
                if err <= rtol * ymag and math.isfinite(ymag):
                    break
                t *= 0.5
            if jacobian:
                used = rows[: N + 1]
                step = np.dot(powers, used.reshape(N + 1, -1)).reshape(rows.shape[1:])[:, 1:]
                phi = step if phi is None else step.dot(phi)
            errors.append((err, ymag))
            s = 1.0 if t == t_end else s + t * H
            H = t * H
            y = y_new
    est = sum(e / min(m, ymag) for e, m in errors)
    return (y, est, phi) if jacobian else (y, est)
