"""Taylor transport: pinned and mpmath accuracy, bad values, step budget, row stops."""

import math

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
    start = holo_uni.state_at(src, support=support)
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


def test_taylor_exponential():
    # y' = y: rows y H^n / n!; order 16 falls short of s = 1, and one step
    # covers [0, 1] at order 24
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
    assert asked == [16, 24]
    assert _ode.taylor(series, [], 1e-12) == ([], 0.0)


def assert_rows_stop_by_the_rule(steps):
    """Each recorded step (the `taylor_steps` fixture) asked for rows
    through the members of `_ode._ORDERS` in turn and stopped at the first
    whose last two rows pass `_ode.reach(...) >= t_end`, or at the last."""
    for s, y, H, rtol, requests in steps:
        tol = rtol * max(map(abs, y))
        t_end = (1.0 - s) / H
        asked = [N for N, _ in requests]
        assert asked == list(_ode._ORDERS[: len(asked)])
        for N, last in requests:
            state = last[:, :, 0] if last.ndim == 3 else last  # a Jacobian's rows
            norms = np.abs(state).sum(1).tolist()
            reaches = all(
                norm == 0.0 or _ode.reach(norm, tol, n) >= t_end for n, norm in zip((N - 1, N), norms)
            )
            assert reaches == (N == asked[-1]) or N == _ode._ORDERS[-1]


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


@settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    st.one_of(
        st.tuples(st.just("uni"), uni_segment(), st.booleans()),
        st.tuples(st.just("bi"), st.sampled_from([2, 3]), st.integers(0, 2**32 - 1)),
    )
)
def test_rows_stop_at_the_first_order_that_reaches_the_end_property(taylor_steps, case):
    # univariate segments from the gamma point or from a carried state (whose
    # rows are matrices), and bivariate ones from the product point
    kind, *args = case
    try:
        if kind == "uni":
            (src, target), carried = args
            start = holo_uni.initial_state(target.d, -target.coeffs[-1], target.support)
            if carried:
                start = holo_uni.state_at(src)
                assume(start.last_transport_error > 0.0)  # not a gamma point
            taylor_steps.clear()
            holo_uni.transport(start, target)
        else:
            d, seed = args
            taylor_steps.clear()
            holo_bi.table_at(random_theta_bi_proper(np.random.default_rng(seed), d))
    except ExpPolyError:
        assume(False)
    assume(taylor_steps)  # a move to the start itself takes no step
    assert_rows_stop_by_the_rule(taylor_steps)


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
