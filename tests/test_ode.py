"""Transport integrators: accuracy, bad values, call pattern, pinned transports."""

import math

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


def test_dopri45_matches_array_arithmetic_bitwise():
    theta = ThetaUni((-0.5, 0.8, 0.3, -0.4, 0.1, -1.5))
    start = holo_uni.initial_state(6, 1.5)
    calls = []
    original = _ode.dopri45

    def capture(f, y0, rtol, max_steps=200_000, callback=None):
        calls.append((f, y0, rtol))
        return original(f, y0, rtol, max_steps, callback)

    _ode.dopri45 = capture
    try:
        holo_uni.transport(start, theta)
    finally:
        _ode.dopri45 = original
    (f, y0, rtol), = calls
    assert _ode.dopri45(f, y0, rtol) == _dopri45_arrays(f, y0, rtol)
    for rhs in (damped_rotation, lambda s, y: [y[0], math.sin(s) * y[0] - y[1]]):
        assert _ode.dopri45(rhs, [1.0, 0.5], 1e-9) == _dopri45_arrays(rhs, [1.0, 0.5], 1e-9)


# Transported states (F and the error accumulator) from the gamma point
# (0, ..., 0, theta_d) to theta, recorded before the stages ran on floats.
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
    theta = ThetaUni(coeffs, support)
    start = holo_uni.initial_state(theta.d, abs(coeffs[-1]), support)
    moved = holo_uni.transport(start, theta)
    np.testing.assert_allclose(moved.F, F, rtol=1e-14, atol=0)
    assert moved.last_transport_error == pytest.approx(est, rel=1e-14)
