"""Transport integrators: accuracy, bad values, call pattern, pinned transports."""

import math

import mpmath
import numpy as np
import pytest

from exppoly import _ode, holo_uni
from exppoly.domain import Support, ThetaUni
from exppoly.errors import OdeDivergence

OMEGA = 3.0


def damped_rotation(s, y):
    # y' = [[-1, w], [-w, -1]] y
    return [-y[0] + OMEGA * y[1], -OMEGA * y[0] - y[1]]


def damped_rotation_exact(s):
    return [math.exp(-s) * math.cos(OMEGA * s), -math.exp(-s) * math.sin(OMEGA * s)]


class Counted:
    """Counts RHS evaluations and accepted-step callbacks."""

    def __init__(self, f):
        self.f = f
        self.evals = 0
        self.accepted = 0

    def __call__(self, s, y):
        self.evals += 1
        return self.f(s, y)

    def callback(self, s, y):
        self.accepted += 1


def test_dopri45_linear_system():
    f = Counted(damped_rotation)
    y, est = _ode.dopri45(f, [1.0, 0.0], 1e-10, callback=f.callback)
    np.testing.assert_allclose(y, damped_rotation_exact(1.0), rtol=0, atol=1e-9)
    assert 0.0 < est < 1e-8
    # one evaluation up front, then six per attempted step (first-same-as-last)
    assert (f.evals - 1) % 6 == 0
    assert f.accepted == (f.evals - 1) // 6


def test_rk4_linear_system():
    y = _ode.rk4_fixed(damped_rotation, [1.0, 0.0], 200)
    np.testing.assert_allclose(y, damped_rotation_exact(1.0), rtol=0, atol=1e-9)
    y, est = _ode.rk4_with_estimate(damped_rotation, [1.0, 0.0], 100)
    err = max(abs(a - b) for a, b in zip(y, damped_rotation_exact(1.0)))
    # the Richardson estimate is relative to max|y| and within a small factor
    assert err < 1e-8
    assert 0.1 * err / max(map(abs, y)) < est < 10 * err / max(map(abs, y))


def test_dopri45_rejects_nan_stages_off_path():
    # y' = y, but the RHS refuses stage states that stray from e^s by more
    # than 1e-6 relative: long steps are rejected until they fit
    def f(s, y):
        if abs(y[0] - math.exp(s)) > 1e-6 * math.exp(s):
            return [math.nan]
        return [y[0]]

    counted = Counted(f)
    y, _ = _ode.dopri45(counted, [1.0], 1e-3, callback=counted.callback)
    attempted = (counted.evals - 1) // 6
    assert attempted > counted.accepted
    assert y[0] == pytest.approx(math.e, rel=1e-5)


def test_dopri45_step_underflow_raises():
    with pytest.raises(OdeDivergence):
        _ode.dopri45(lambda s, y: [math.nan], [1.0], 1e-10)


def test_dopri45_underflowing_error_scale_rejects_steps():
    # rtol * |y| underflows to zero: every step is rejected as with an
    # infinite error ratio, until the step size underflows
    with pytest.raises(OdeDivergence):
        _ode.dopri45(lambda s, y: [-y[0]], [1e-30], 1e-300)


@pytest.mark.parametrize("wrap", [list, np.array, tuple])
def test_dopri45_accepts_any_float_sequence(wrap):
    y_list, est_list = _ode.dopri45(damped_rotation, np.array([1.0, 0.0]), 1e-10)
    y, est = _ode.dopri45(lambda s, y: wrap(damped_rotation(s, y)), [1.0, 0.0], 1e-10)
    assert y == y_list and est == est_list
    assert all(type(v) is float for v in y)
    y4 = _ode.rk4_fixed(lambda s, y: wrap(damped_rotation(s, y)), [1.0, 0.0], 20)
    assert y4 == _ode.rk4_fixed(damped_rotation, [1.0, 0.0], 20)


def _dopri45_arrays(f, y0, rtol):
    """The integrator as written on numpy arrays, the reference for the
    float stages: same tableau, same controller, same operation order."""
    y = np.array(y0, dtype=float)
    s, h, accum = 0.0, 0.01, 0.0
    k1 = np.asarray(f(s, y))
    while s < 1.0:
        h = min(h, 1.0 - s)
        ks = [k1]
        for i in range(1, 7):
            yi = y + h * sum(a * k for a, k in zip(_ode._A[i], ks))
            ks.append(np.asarray(f(s + _ode._C[i] * h, yi)))
        y5 = y + h * sum(b * k for b, k in zip(_ode._B5, ks))
        y4 = y + h * sum(b * k for b, k in zip(_ode._B4, ks))
        if not np.all(np.isfinite(y5)):
            h *= 0.2
            continue
        err = np.abs(y5 - y4)
        ymag = max(float(np.max(np.abs(y))), float(np.max(np.abs(y5))), 1e-300)
        denom = rtol * np.maximum(np.maximum(np.abs(y), np.abs(y5)), 1e-3 * ymag)
        ratio = float(np.max(err / denom))
        if ratio <= 1.0:
            s, y, k1 = s + h, y5, ks[6]
            accum += float(np.max(err)) / ymag
        h *= min(5.0, max(0.2, 0.9 * (max(ratio, 1e-10)) ** -0.2))
    return y.tolist(), accum


def _segment_rhs(support, coeffs):
    """Gamma point, target and the order-1 recurrence right-hand side of the
    segment between them, over the full state (the DOPRI transport's system)."""
    theta = ThetaUni(coeffs, support)
    start = holo_uni.initial_state(theta.d, abs(coeffs[-1]), support)
    h = np.subtract(theta.coeffs, start.theta.coeffs)
    step_map = holo_uni._StepMap(start.theta.coeffs, h, holo_uni._inhom(support), len(start.F), 1)
    return start, theta, lambda s, y: step_map.series(s, y[: theta.d - 1])[1]


def test_dopri45_matches_array_arithmetic_bitwise():
    start, _, f = _segment_rhs(Support.HALF_LINE, (-0.5, 0.8, 0.3, -0.4, 0.1, -1.5))
    y0 = start.F.tolist()
    assert _ode.dopri45(f, y0, 1e-10) == _dopri45_arrays(f, y0, 1e-10)
    for rhs in (damped_rotation, lambda s, y: [y[0], math.sin(s) * y[0] - y[1]]):
        assert _ode.dopri45(rhs, [1.0, 0.5], 1e-9) == _dopri45_arrays(rhs, [1.0, 0.5], 1e-9)


# DOPRI transports (F and the error accumulator) of the full state from the
# gamma point (0, ..., 0, theta_d) to theta, recorded before the stages ran
# on floats; `holo_uni.transport` now steps by Taylor series instead.
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


@pytest.mark.parametrize("support, coeffs, F, est", PINNED, ids=lambda v: str(v))
def test_transport_pinned(support, coeffs, F, est):
    start, theta, f = _segment_rhs(support, coeffs)
    y, accum = _ode.dopri45(f, start.F.tolist(), 1e-10)
    F_moved = holo_uni._extend(theta.coeffs, support, y, holo_uni.state_length(theta.d) - 1)
    np.testing.assert_allclose(F_moved, F, rtol=1e-14, atol=0)
    assert accum == pytest.approx(est, rel=1e-14)


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


def test_transport_step_budget_raises():
    start = holo_uni.initial_state(4, 3.0, Support.REAL_LINE)
    target = ThetaUni((1.0, 4.0, -2.0, -3.0), Support.REAL_LINE)
    holo_uni.transport(start, target, holo_uni.OdeOptions(max_steps=50))
    with pytest.raises(OdeDivergence):
        holo_uni.transport(start, target, holo_uni.OdeOptions(max_steps=1))


def test_taylor_non_finite_coefficients_raise():
    with pytest.raises(OdeDivergence):
        _ode.taylor(lambda s, y, H: np.array([y, [math.inf]]), [1.0], 1e-10)


def test_taylor_exponential():
    # y' = y: rows y H^n / n!; one step covers [0, 1] at order 24
    def series(s, y, H):
        rows = [list(y)]
        for n in range(1, 25):
            rows.append([rows[-1][0] * H / n])
        return np.array(rows)

    y, est = _ode.taylor(series, [1.0], 1e-12)
    assert y[0] == pytest.approx(math.e, rel=1e-15)
    assert est < 1e-14
    assert _ode.taylor(series, [], 1e-12) == ([], 0.0)


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
