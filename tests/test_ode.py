"""Taylor transport: pinned and mpmath accuracy, bad values, step budget, row
stops, and the one-pass steps against a stepper that climbs the orders."""

import math
from operator import mul

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from exppoly import _ode, holo_bi, holo_uni
from exppoly.domain import Support, ThetaUni
from exppoly.errors import ExpPolyError, OdeDivergence
from exppoly.verify import random_theta_bi_proper

# Transports of the full state from the gamma point (0, ..., 0, theta_d) to
# theta by an adaptive Dormand-Prince 5(4) pair at rel_tol 1e-10: F and the
# error accumulator.  The Taylor transport must be at least as accurate.
PINNED = [
    (Support.HALF_LINE, (0.5, -1.0), [1.2040654504472765, 0.8010163626118192], 2.458730280919972e-10),
    (Support.HALF_LINE, (-1.0, 3.0, -2.0), [1.344405058665804, 0.9398792572023397], 1.7392707390919355e-09),
    (
        Support.HALF_LINE,
        (1.0, -0.5, 0.3, -1.0),
        [1.4003944428103425, 0.8007606951466556, 0.6109412569091957],
        7.21858688897487e-10,
    ),
    (
        Support.HALF_LINE,
        (0.5, 1.0, -0.5, 0.2, -1.0),
        [1.6125000149212219, 0.9839072912989871, 0.7673378014739054, 0.6713895593067141],
        8.078671371878e-10,
    ),
    (
        Support.HALF_LINE,
        (-0.5, 0.8, 0.3, -0.4, 0.1, -1.5),
        [0.8787825068125884, 0.4165507101012629, 0.26949084776191257, 0.19977048437574185, 0.16064601249615001],
        3.232724438204108e-10,
    ),
    (Support.REAL_LINE, (1.0, -1.0), [2.2758757944630723, 1.1379378972315362], 2.479761755142454e-10),
    (
        Support.REAL_LINE,
        (1.0, 4.0, -2.0, -3.0),
        [7.323193419936472, -3.207903995548279, 5.594977000177437],
        1.6015320857749006e-09,
    ),
    (
        Support.REAL_LINE,
        (0.5, 1.0, -0.3, 0.2, 0.1, -1.0),
        [2.9831112655618344, 0.4713412898108212, 1.436385978682359, 0.35492480221904754, 1.1640105039732207],
        2.931075624414522e-10,
    ),
]


def mp_moments(coeffs, support, count):
    """Moments 0..count-1 of exp(g) to 50 digits by mpmath quadrature."""
    with mpmath.workdps(50):
        c = [mpmath.mpf(v) for v in coeffs]
        nodes = [0, 0.5, 1, 1.5, 2, 3, 4, 6, 8, mpmath.inf]

        def moment(m, sign):
            def f(x):
                acc = mpmath.mpf(0)
                for ck in reversed(c):
                    acc = (acc + ck) * sign * x
                return (sign * x) ** m * mpmath.exp(acc)

            return mpmath.quad(f, nodes)

        out = []
        for m in range(count):
            val = moment(m, 1)
            if support is Support.REAL_LINE:
                val += moment(m, -1)
            out.append(val)
        return out


def rel_error(F, ref):
    """Largest entry error relative to the largest reference entry."""
    scale = max(abs(r) for r in ref)
    return float(max(abs(mpmath.mpf(float(v)) - r) for v, r in zip(F, ref)) / scale)


@pytest.mark.parametrize("support, coeffs, F, est", PINNED, ids=lambda v: str(v))
def test_transport_beats_pinned_dopri(support, coeffs, F, est):
    theta = ThetaUni(coeffs, support)
    start = holo_uni.initial_state(theta.d, abs(coeffs[-1]), support)
    moved = holo_uni.transport(start, theta)
    ref = mp_moments(coeffs, support, len(F))
    err = rel_error(moved.F, ref)
    assert err <= rel_error(F, ref)
    assert err <= moved.last_transport_error


# Segments whose leading coefficient moves (h_d != 0), as a fit's provider
# moves do; the third heads toward theta_d = 0, where the series in s has
# its singularity.
MOVING_LEAD = [
    (Support.HALF_LINE, (-1.0, 3.0, -2.0), (-0.9, 2.8, -2.1)),
    (Support.HALF_LINE, (0.5, -0.2, 0.3, -1.0), (0.2, 0.4, -0.5, -2.5)),
    (Support.HALF_LINE, (0.0, 0.0, -2.0), (0.3, -0.2, -0.3)),
    (Support.REAL_LINE, (1.0, -0.5, 0.2, -1.5), (0.4, 0.3, -0.1, -0.6)),
]


@pytest.mark.parametrize("support, src, dst", MOVING_LEAD, ids=str)
def test_transport_moving_lead_matches_mpmath(support, src, dst):
    start = holo_uni.state_at(ThetaUni(src, support))
    moved = holo_uni.transport(start, ThetaUni(dst, support))
    ref = mp_moments(dst, support, len(moved.F))
    err = rel_error(moved.F, ref)
    assert err <= start.last_transport_error + moved.last_transport_error
    assert err < 1e-10  # the default rel_tol


@pytest.mark.parametrize(
    "coeffs",
    [
        (0.0, 1.0, 0.0, -1.0),  # zero odd coefficients: odd moments vanish
        (1.5, 0.0, 0.0, -1.0),  # only odd ones move: A(s) is even in s
        (0.0, -0.5, 0.0, 0.8, 0.0, -1.2),
    ],
)
def test_transport_whole_line_parity(coeffs):
    theta = ThetaUni(coeffs, Support.REAL_LINE)
    start = holo_uni.initial_state(theta.d, abs(coeffs[-1]), Support.REAL_LINE)
    moved = holo_uni.transport(start, theta)
    ref = mp_moments(coeffs, Support.REAL_LINE, len(moved.F))
    err = rel_error(moved.F, ref)
    assert err <= moved.last_transport_error and err < 1e-12
    if all(c == 0.0 for c in coeffs[::2]):
        assert all(v == 0.0 for v in moved.F[1::2])


def test_transport_step_budget_raises(monkeypatch):
    start = holo_uni.initial_state(4, 3.0, Support.REAL_LINE)
    target = ThetaUni((1.0, 4.0, -2.0, -3.0), Support.REAL_LINE)
    monkeypatch.setattr(_ode, "_MAX_STEPS", 50)
    holo_uni.transport(start, target)
    monkeypatch.setattr(_ode, "_MAX_STEPS", 1)
    with pytest.raises(OdeDivergence):
        holo_uni.transport(start, target)


def test_taylor_non_finite_coefficients_raise():
    with pytest.raises(OdeDivergence):
        _ode.taylor(lambda s, y, H: lambda N: np.array([y] + [[math.inf]] * N), [1.0], 1e-10)


def climbing_taylor(series, y0, rtol, jacobian=False):
    """The Taylor stepper as it was before steps took their rows in one
    pass: each step asks for rows through 16, 24, 32, ... in turn, checking
    the stop after each request.  `_ode.taylor` must return the same values
    bit for bit."""
    y = [float(v) for v in y0]
    phi = None
    if not y:
        return (y, 0.0, np.eye(0)) if jacobian else (y, 0.0)
    s, H, errors = 0.0, 1.0, []
    with np.errstate(over="ignore", invalid="ignore"):
        while s < 1.0:
            rows_through = series(s, y, H)
            tol = rtol * max(map(abs, y))
            t_end = (1.0 - s) / H
            for N in _ode._ORDERS:
                rows = rows_through(N)
                state = rows[:, :, 0] if jacobian else rows
                t = t_end
                for n, norm in zip((N - 1, N), np.abs(state[N - 1 :]).sum(1).tolist()):
                    if norm > 0.0:
                        t = min(t, _ode.reach(norm, tol, n))
                if t == t_end:
                    break
            norms = np.abs(state).sum(1).tolist()
            if not math.isfinite(sum(norms)):
                raise OdeDivergence("non-finite Taylor coefficients")
            cols = state.T.tolist()
            while True:
                if t * H < 1e-14:
                    raise OdeDivergence("step size underflow in Taylor transport")
                powers = [t**n for n in range(N + 1)]
                y_new = [math.fsum(map(mul, col, powers)) for col in cols]
                terms = list(map(mul, norms, powers))
                rounding = _ode._EPS * sum(map(mul, range(1, N + 2), terms))
                err = max(terms[N - 1], terms[N]) + rounding
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


def test_taylor_exponential():
    # y' = y: rows y H^n / n!.  Order 16 falls short of s = 1, so the step
    # asks for the rest through 48 at once; it stops at 24, where one step
    # covers [0, 1], as climbing the orders does.
    asked = []

    def series(s, y, H):
        def rows(N):
            asked.append(N)
            out = [list(y)]
            for n in range(1, N + 1):
                out.append([out[-1][0] * H / n])
            return np.array(out)

        return rows

    y, est = _ode.taylor(series, [1.0], 1e-12)
    assert y[0] == pytest.approx(math.e, rel=1e-15)
    assert est < 1e-14
    assert asked == [16, 48]
    assert (y, est) == climbing_taylor(series, [1.0], 1e-12)
    assert _ode.taylor(series, [], 1e-12) == ([], 0.0)


def rule_stop(rows, tol, t_end):
    """The first member of `_ode._ORDERS` through the rows' last order whose
    last two rows pass `_ode.reach(...) >= t_end`, or 48 where the rows run
    through 48 and none does; None where they end before either."""
    state = rows[:, :, 0] if rows.ndim == 3 else rows  # a Jacobian's rows
    norms = np.abs(state).sum(1).tolist()
    for N in _ode._ORDERS:
        if N >= len(norms):
            return None
        last_two = zip((N - 1, N), norms[N - 1 : N + 1])
        if all(norm == 0.0 or _ode.reach(norm, tol, n) >= t_end for n, norm in last_two):
            return N
    return _ode._ORDERS[-1]


def assert_rows_stop_by_the_rule(steps):
    """Each recorded step (the `taylor_steps` fixture) asked for rows at
    most twice: first through the order its predecessor stopped at (16 on a
    segment's first step, s = 0), then, only where no member of
    `_ode._ORDERS` through that order reached t_end, through 48.  A step's
    stop is the first member whose last two rows reach t_end, or 48."""
    previous = None
    for s, y, H, rtol, requests in steps:
        tol = rtol * max(map(abs, y))
        t_end = (1.0 - s) / H
        asked = [N for N, _ in requests]
        assert 1 <= len(asked) <= 2
        assert asked[0] == (_ode._ORDERS[0] if s == 0.0 else previous)
        first = rule_stop(requests[0][1], tol, t_end)
        if first is None:
            assert asked[1:] == [_ode._ORDERS[-1]]
        else:
            assert asked[1:] == []
        previous = rule_stop(requests[-1][1], tol, t_end)
        assert previous is not None


@st.composite
def uni_segment(draw):
    """A univariate segment's ends of order 3 to 6: both supports (even
    order on the whole line), lower coefficients in [-1.5, 1.5] and the
    lead in [-2.5, -0.4]."""
    support = draw(st.sampled_from(list(Support)))
    d = draw(st.sampled_from([3, 4, 5, 6] if support is Support.HALF_LINE else [4, 6]))

    def theta():
        coeffs = [draw(st.floats(-1.5, 1.5)) for _ in range(d - 1)]
        return ThetaUni((*coeffs, -draw(st.floats(0.4, 2.5))), support)

    return theta(), theta()


SEGMENTS = st.one_of(
    st.tuples(st.just("uni"), uni_segment(), st.booleans()),
    st.tuples(st.just("bi"), st.sampled_from([2, 3]), st.integers(0, 2**32 - 1)),
)


def run_segment(case, reset):
    """Transport one drawn case: a univariate segment from the gamma point
    or from a carried state (whose rows are matrices), or a bivariate table
    from the product point.  `reset` runs once the start is built."""
    kind, *args = case
    try:
        if kind == "uni":
            (src, target), carried = args
            start = holo_uni.initial_state(target.d, -target.coeffs[-1], target.support)
            if carried:
                start = holo_uni.state_at(src)
                assume(start.last_transport_error > 0.0)  # not a gamma point
            reset()
            holo_uni.transport(start, target)
        else:
            d, seed = args
            theta = random_theta_bi_proper(np.random.default_rng(seed), d)
            reset()
            holo_bi.table_at(theta)
    except ExpPolyError:
        assume(False)


@settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(SEGMENTS)
def test_rows_stop_at_the_first_order_that_reaches_the_end_property(taylor_steps, case):
    run_segment(case, taylor_steps.clear)
    assume(taylor_steps)  # a move to the start itself takes no step
    assert_rows_stop_by_the_rule(taylor_steps)


@settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(SEGMENTS)
def test_one_pass_steps_match_the_climbing_stepper_property(monkeypatch, case):
    # every segment's (y, est) and Phi, bit for bit, against the stepper
    # that climbs the orders one request at a time
    segments = []
    real = _ode.taylor

    def both(series, y0, rtol, jacobian=False):
        got = real(series, y0, rtol, jacobian)
        want = climbing_taylor(series, y0, rtol, jacobian)
        segments.append((got, want))
        return got

    monkeypatch.setattr(_ode, "taylor", both)
    run_segment(case, segments.clear)
    assume(segments)
    for got, want in segments:
        assert got[:2] == want[:2]
        if len(got) == 3:
            assert np.array_equal(got[2], want[2])


def test_transport_order_one():
    # no free entries: the state is a function of theta alone
    for support, c, target, F in (
        (Support.HALF_LINE, 1.0, (-2.0,), [0.5, 0.25]),
        (Support.HALF_LINE, 3.0, (-0.25,), [4.0, 16.0]),
    ):
        moved = holo_uni.transport(holo_uni.initial_state(1, c, support), ThetaUni(target, support))
        assert moved.F.tolist() == F
        assert moved.last_transport_error == 0.0
    st = holo_uni.state_at((-2.0, 0.0, 0.0))
    assert st.d == 1 and st.F.tolist() == [0.5, 0.25]
