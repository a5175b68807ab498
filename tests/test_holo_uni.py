"""Univariate engine: initial states, derivative extension, transport."""

import math
import warnings
from operator import mul

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from exppoly.domain import Support, ThetaUni
from exppoly.errors import (
    DivergentIntegral,
    ExpPolyError,
    InputError,
    NonPositiveScale,
    OdeDivergence,
    PathSingularity,
    ToleranceNotMet,
)
from exppoly.holo_uni import (
    _EPS,
    _RETRY_TOL,
    _accept,
    _close,
    _condition,
    _extend,
    _inhom,
    _lead,
    _StepMap,
    _weights,
    derivative_bounds,
    extend_derivatives,
    initial_state,
    norm_const_and_derivs,
    state_at,
    state_length,
    transport,
    transport_condition,
)
from exppoly.oracle import quad_moment_uni
from exppoly.verify import random_theta_uni

SQRT_PI = math.sqrt(math.pi)


def test_state_length_floor():
    assert [state_length(d) for d in (1, 2, 3, 4, 5)] == [2, 2, 2, 3, 4]


def test_initial_state_half_gaussian():
    st = initial_state(2, 1.0)
    assert st.norm_const == pytest.approx(SQRT_PI / 2, rel=1e-14)
    assert st.F[1] == pytest.approx(0.5, rel=1e-14)
    assert st.last_transport_error == 0.0


def test_initial_state_realline_gaussian():
    st = initial_state(2, 1.0, Support.REAL_LINE)
    assert st.F[0] == pytest.approx(SQRT_PI, rel=1e-14)
    assert st.F[1] == 0.0


def test_initial_state_cubic():
    st = initial_state(3, 1.0)
    assert st.F[0] == pytest.approx(0.892979511569249, rel=1e-14)
    assert st.F[1] == pytest.approx(0.4513726464754668, rel=1e-14)


def test_initial_state_rejects_bad_scale():
    with pytest.raises(NonPositiveScale):
        initial_state(2, 0.0)
    with pytest.raises(NonPositiveScale):
        initial_state(2, -1.0)
    with pytest.raises(NonPositiveScale):
        initial_state(2, float("nan"))


def test_extend_half_gaussian():
    st = initial_state(2, 1.0)
    F = extend_derivatives(st, 3)
    np.testing.assert_allclose(
        F, [SQRT_PI / 2, 0.5, SQRT_PI / 4, 0.5], rtol=1e-14
    )


def test_extend_exponential_moments():
    st = initial_state(1, 1.0)
    F = extend_derivatives(st, 4)
    np.testing.assert_allclose(F, [1.0, 1.0, 2.0, 6.0, 24.0], rtol=1e-12)


def test_extend_matches_quadrature_after_transport():
    target = ThetaUni((-1.0, 3.0, -2.0))
    st = transport(initial_state(3, 2.0), target)
    F = extend_derivatives(st, 4)
    for m, val in enumerate(F):
        assert val == pytest.approx(quad_moment_uni(target, m), rel=1e-8)


def test_transport_truncated_normal():
    st = transport(initial_state(2, 1.0), ThetaUni((-1.0, -1.0)))
    assert st.norm_const == pytest.approx(0.5456413607650469, rel=1e-9)
    assert st.last_transport_error < 1e-9


def test_transport_exponential_rescale():
    st = transport(initial_state(1, 1.0), ThetaUni((-2.0,)))
    assert st.norm_const == pytest.approx(0.5, rel=1e-10)
    assert st.F[1] == pytest.approx(0.25, rel=1e-10)


def test_transport_realline():
    target = ThetaUni((1.0, -1.0), Support.REAL_LINE)
    st = transport(initial_state(2, 1.0, Support.REAL_LINE), target)
    assert st.norm_const == pytest.approx(SQRT_PI * math.exp(0.25), rel=1e-9)


def test_transport_rejects_non_interior_target():
    start = initial_state(2, 1.0)
    with pytest.raises(PathSingularity):
        transport(start, ThetaUni((-1.0, 0.0)))
    with pytest.raises(PathSingularity):
        transport(start, ThetaUni((1.0, 1.0)))


def test_transport_rejects_mismatched_endpoints():
    with pytest.raises(InputError):
        transport(initial_state(2, 1.0), ThetaUni((-1.0,)))
    with pytest.raises(InputError):
        transport(initial_state(2, 1.0), ThetaUni((0.0, -1.0), Support.REAL_LINE))


def test_transport_path_independent():
    # direct move vs a dog-leg through a different interior point
    target = ThetaUni((2.0, -1.0, -0.5))
    direct = transport(initial_state(3, 1.0), target)
    dog_leg = transport(
        transport(initial_state(3, 1.0), ThetaUni((-2.0, -3.0, -4.0))), target
    )
    np.testing.assert_allclose(direct.F, dog_leg.F, rtol=1e-7)


def test_norm_const_and_derivs_fixtures():
    np.testing.assert_allclose(
        norm_const_and_derivs((0.0, -1.0), M=2),
        [SQRT_PI / 2, 0.5, SQRT_PI / 4],
        rtol=1e-9,
    )
    np.testing.assert_allclose(
        norm_const_and_derivs((-2.0,), M=1), [0.5, 0.25], rtol=1e-10
    )


def test_norm_const_reduces_boundary_theta():
    # trailing zero reduces to the effective exponential model
    got = norm_const_and_derivs((-1.0, 0.0), M=1)
    np.testing.assert_allclose(got, [1.0, 1.0], rtol=1e-10)


def test_norm_const_rejects_divergent():
    with pytest.raises(DivergentIntegral):
        norm_const_and_derivs((1.0,))


def test_ode_residual_invariant():
    # the defining relation (sum_k k theta_k d^{k-1}) A = -1 on the half line
    rng = np.random.default_rng(11)
    for _ in range(10):
        d = int(rng.integers(2, 5))
        coeffs = rng.uniform(-2, 2, d)
        coeffs[-1] = -rng.uniform(0.4, 2.0)
        th = ThetaUni(tuple(coeffs))
        F = norm_const_and_derivs(th, M=d - 1)
        resid = sum((k + 1) * th.coeffs[k] * F[k] for k in range(d)) + 1.0
        assert abs(resid) <= 1e-9 * max(1.0, abs(F[0]))


def test_ode_residual_invariant_realline():
    rng = np.random.default_rng(12)
    for _ in range(10):
        d = int(rng.choice([2, 4]))
        coeffs = rng.uniform(-2, 2, d)
        coeffs[-1] = -rng.uniform(0.4, 2.0)
        th = ThetaUni(tuple(coeffs), Support.REAL_LINE)
        F = norm_const_and_derivs(th, M=d - 1)
        resid = sum((k + 1) * th.coeffs[k] * F[k] for k in range(d))
        assert abs(resid) <= 1e-9 * max(1.0, abs(F[0]))


def test_derivatives_positive_on_half_line():
    # every derivative is a moment integral of a positive density
    F = norm_const_and_derivs((-1.0, 3.0, -2.0), M=6)
    assert np.all(F > 0)


def test_transport_condition_benign():
    # exponential: g' is constant, no stationary points
    assert transport_condition((-1.0,), 1.0) == 1.0
    # half normal: the only stationary point of -x^2 is at 0 with value 0
    assert transport_condition((0.0, -1.0), SQRT_PI / 2) == pytest.approx(
        2 / SQRT_PI, rel=1e-12
    )
    assert math.isinf(transport_condition((0.0, -1.0), -1.0))
    assert math.isinf(transport_condition((0.0, -1.0), math.nan))


# Quartic whose exponent has a stationary point off the half line with a
# value large enough that default-tolerance transport only reaches ~1e-6;
# state_at must notice and retry at tight tolerance.
HARD_QUARTIC = (
    -0.6249671643230119,
    1.973874811555722,
    -1.7825230534590721,
    -0.6749290667260174,
)
HARD_QUARTIC_A = 0.8651501487345912  # adaptive quadrature

# Sextic whose homogeneous solutions exceed A by ~1e12 even at tight
# tolerance: no double-precision path can cancel them, so the engine must
# refuse rather than return noise (a raw transport lands many orders off).
HOPELESS_SEXTIC = (
    1.4434331851757087,
    -0.3798710314064899,
    -1.4700716549096162,
    0.9756049101446616,
    -0.9751711903114564,
    -0.4006502337667856,
)


def test_state_at_retries_ill_conditioned_point():
    st = state_at(HARD_QUARTIC)
    assert abs(st.norm_const / HARD_QUARTIC_A - 1) <= 1e-7
    # the estimate carries the amplification factor, so it is conservative
    assert st.last_transport_error >= abs(st.norm_const / HARD_QUARTIC_A - 1)


def test_state_at_refuses_hopeless_point():
    with pytest.raises(ToleranceNotMet):
        state_at(HOPELESS_SEXTIC)
    with pytest.raises(ToleranceNotMet):
        norm_const_and_derivs(HOPELESS_SEXTIC)


def test_state_at_matches_plain_transport_when_well_conditioned():
    theta = ThetaUni((-1.0, 3.0, -2.0))
    st = state_at(theta)
    moved = transport(initial_state(3, 2.0), theta)
    np.testing.assert_allclose(st.F, moved.F, rtol=1e-12)


def test_state_at_moves_from_start():
    near = state_at((-1.0, 3.0, -2.0))
    assert state_at((-1.0, 3.0, -2.0), start=near) is near
    # boundary requests reduce to the effective order before the comparison
    assert state_at((-1.0, 3.0, -2.0, 0.0), start=near) is near
    target = ThetaUni((-0.9, 2.8, -2.1))
    np.testing.assert_allclose(state_at(target, start=near).F, state_at(target).F, rtol=1e-9)
    # a start of another order or support is ignored
    other = state_at(ThetaUni((0.0, -1.0), Support.REAL_LINE))
    np.testing.assert_array_equal(state_at(target, start=other).F, state_at(target).F)


def test_state_at_retries_state_that_is_not_moment_like():
    # the segment from this start back to the gamma point turns the start's
    # rounding (6e-14 relative) into an error of 5e3 relative although
    # transport_condition is ~1 at both ends; the transported state has
    # A > 0 but negative odd moments, so it is retried from the gamma point
    # instead of being returned (`state_at` itself answers a gamma point in
    # closed form, so the verdict is asked of `_accept` directly)
    via = state_at((0.0, 0.0, 0.0, -2.0, -0.5))
    target = ThetaUni((0.0, 0.0, 0.0, 0.0, -1.0))
    st = _accept(transport(via, target))
    want = [quad_moment_uni(st.theta, m) for m in range(4)]
    np.testing.assert_allclose(st.F, want, rtol=1e-10)


@pytest.mark.parametrize("support", list(Support))
@pytest.mark.parametrize("c", [1e36, 1e60])
def test_state_at_answers_gamma_point_in_closed_form(c, support):
    # transport_condition compares exp(g(0)) = 1 with A ~ c^(-1/4) here, which
    # refused the zero-length transport; a boundary request reduces to the
    # same point, and a carried start does not change the answer
    want = initial_state(4, c, support)
    for theta in ((0.0, 0.0, 0.0, -c), (0.0, 0.0, 0.0, -c, 0.0, 0.0)):
        st = state_at(ThetaUni(theta, support))
        np.testing.assert_array_equal(st.F, want.F)
        assert st.last_transport_error == 0.0
    near = initial_state(4, 1.0, support)
    assert state_at(want.theta, start=near).F.tolist() == want.F.tolist()


def test_state_at_retries_from_gamma_point_when_start_given():
    near = state_at((-0.6, 1.9, -1.7, -0.7))
    st = state_at(HARD_QUARTIC, start=near)
    np.testing.assert_array_equal(st.F, state_at(HARD_QUARTIC).F)
    assert abs(st.norm_const / HARD_QUARTIC_A - 1) <= 1e-7


def test_retry_after_a_transport_of_the_same_shape_is_unaffected():
    # state_at's retry at _RETRY_TOL steps in the workspace that its first
    # transport of HARD_QUARTIC, of the same order and support, has just
    # filled; it must give what a transport from the gamma point gives after
    # one to another point
    st = state_at(HARD_QUARTIC)
    gamma = initial_state(4, -HARD_QUARTIC[-1])
    transport(gamma, ThetaUni((0.3, -0.2, 0.1, -1.5)))
    moved = transport(gamma, ThetaUni(HARD_QUARTIC), rel_tol=_RETRY_TOL)
    assert st.F.tolist() == moved.F.tolist()
    assert st.last_transport_error == (moved.last_transport_error + _EPS) * _condition(moved)


def _constants_and_moves(points):
    """`norm_const_and_derivs` at each point, then a carried `state_at`
    move to it from a transported state nearby (its rows are matrices):
    values and estimates, or the refusal, point by point."""
    out = []
    for theta in points:
        try:
            A = norm_const_and_derivs(theta, 2 * theta.d).tolist()
            near = state_at(ThetaUni([0.95 * c for c in theta.coeffs], theta.support))
            moved = state_at(theta, start=near)
            out.append((A, moved.F.tolist(), moved.last_transport_error))
        except ExpPolyError as exc:
            out.append(type(exc).__name__)
    return out


def test_threads_transport_as_one_thread_does(in_threads):
    # each thread steps in its own buffers: four threads on two cores, each
    # starting at another point, so that transports of every shape overlap,
    # give the serial results
    rng = np.random.default_rng(7)
    kinds = [(d, Support.HALF_LINE) for d in (3, 4, 5, 6)]
    kinds += [(d, Support.REAL_LINE) for d in (4, 6)]
    points = [random_theta_uni(rng, d, support) for d, support in kinds for _ in range(6)]
    serial = _constants_and_moves(points)
    results = in_threads(lambda k: _constants_and_moves(points[k:] + points[:k]), [0, 7, 14, 21])
    for k, got in results.items():
        assert got == serial[k:] + serial[:k]


def _mp_error(state):
    """Largest error of a half-line state's entries against 50-digit
    `mpmath` quadrature, relative to the largest entry."""
    import mpmath

    with mpmath.workdps(50):
        coeffs = [mpmath.mpf(c) for c in state.theta.coeffs]

        def moment(m):
            return mpmath.quad(
                lambda x: x**m * mpmath.exp(sum(c * x ** (k + 1) for k, c in enumerate(coeffs))),
                [0, 0.5, 1, 2, 3, 4, 6, 8, mpmath.inf],
            )

        ref = [moment(m) for m in range(len(state.F))]
        scale = max(abs(r) for r in ref)
        return float(max(abs(mpmath.mpf(float(f)) - r) for f, r in zip(state.F, ref)) / scale)


@pytest.mark.parametrize(
    "target, start",
    [
        # moves from a carried start through points with many zero
        # coefficients, sensitive to that start's error
        ((0.0, 0.0, 0.0, 1e-3, -1.0), (0.0, 0.0, 1.0, -2.0, -0.75)),
        ((0.1, 0.0, 0.0, 0.0, -1.0), (0.0, 0.0, 1.0, -2.0, -0.75)),
        # a gamma transport whose rows round above eps times their largest term
        ((0.0, 0.0, 0.0, 1.9325848639445198, -0.4), None),
    ],
    ids=["carried-theta4", "carried-theta1", "gamma"],
)
def test_estimate_covers_mpmath_error(target, start):
    st_ = state_at(ThetaUni(target), start=None if start is None else state_at(start))
    assert _mp_error(st_) <= st_.last_transport_error


def _roots_condition(coeffs, A):
    """`transport_condition` as first written, on `np.roots` and `np.polyval`."""
    if not (math.isfinite(A) and A > 0.0):
        return math.inf
    dg = [(k + 1) * float(c) for k, c in enumerate(coeffs)]
    roots = np.roots(dg[::-1])
    if roots.size == 0:
        return 1.0
    g_desc = np.concatenate((np.asarray(coeffs, dtype=float)[::-1], [0.0]))
    kappa = float(np.max(np.polyval(g_desc, roots).real))
    return math.exp(min(max(kappa - math.log(A), 0.0), 700.0))


def test_transport_condition_matches_roots_form():
    rng = np.random.default_rng(20261018)
    complex_seen = 0
    for d in range(1, 8):
        for i in range(300):
            coeffs = rng.uniform(-2.0, 2.0, size=d) * rng.choice([0.2, 1.0, 4.0])
            if i % 5 == 0:
                coeffs[0] = 0.0  # a stationary point at the origin
            if d == 3 and i % 7 == 0:
                coeffs[-1] = 0.0  # g' of lower degree than d - 1
            A = math.exp(rng.normal(0.0, 3.0))
            dg = [(k + 1) * c for k, c in enumerate(coeffs)]
            complex_seen += bool(np.any(np.abs(np.roots(dg[::-1]).imag) > 0))
            want = _roots_condition(coeffs, A)
            assert transport_condition(tuple(coeffs), A) == pytest.approx(want, rel=1e-12)
    assert complex_seen > 500
    assert transport_condition((-3.0,), 0.1) == 1.0
    # cubic g' whose depressed form underflows
    for coeffs in ((0.0, -1.2490029314546113e-137, 0.0, -1.0), (0.0, 0.0, 1.2490029314546113e-137, -1.0)):
        assert transport_condition(coeffs, 0.5) == pytest.approx(_roots_condition(coeffs, 0.5), rel=1e-12)


@st.composite
def interior_theta(draw, d_max=6):
    """Half-line parameters drawn like `random_theta_uni`: lower coefficients
    in [-2, 2], lead in [-2.5, -0.4]."""
    d = draw(st.integers(2, d_max))
    coeffs = [draw(st.floats(-2.0, 2.0)) for _ in range(d - 1)]
    return ThetaUni((*coeffs, -draw(st.floats(0.4, 2.5))))


def _accepted(theta, start=None):
    try:
        return state_at(theta, start=start)
    except (ToleranceNotMet, OdeDivergence):
        assume(False)


@settings(max_examples=40)
@given(interior_theta(5), st.data())
def test_path_independence_property(theta_2, data):
    # theta_0 (the gamma point) -> theta_1 -> theta_2 against theta_0 -> theta_2
    theta_1 = data.draw(interior_theta(5).filter(lambda th: th.d == theta_2.d))
    via = _accepted(theta_1)
    dog_leg = _accepted(theta_2, start=via)
    direct = _accepted(theta_2)
    budget = via.last_transport_error + dog_leg.last_transport_error + direct.last_transport_error
    scale = np.max(np.abs(direct.F))
    assert np.max(np.abs(dog_leg.F - direct.F)) <= budget * scale


@settings(max_examples=40)
@given(interior_theta(), st.floats(0.5, 2.0))
def test_scaling_identity_property(theta, t):
    # substituting x = t u: A(theta) = t * A(theta_1 t, theta_2 t^2, ..., theta_d t^d)
    scaled = ThetaUni(tuple(c * t ** (k + 1) for k, c in enumerate(theta.coeffs)))
    a = _accepted(theta)
    b = _accepted(scaled)
    budget = a.last_transport_error + b.last_transport_error
    assert abs(a.norm_const - t * b.norm_const) <= budget * a.norm_const


def test_derivative_bounds_cover_extension():
    # near theta_d = 0 the recursion divides by d*theta_d at every order, so
    # the bounds grow with the order; they must cover the actual errors
    theta = ThetaUni((-0.8, -0.05))
    st_ = state_at(theta)
    got = extend_derivatives(st_, 4)
    bounds = derivative_bounds(st_, 4)
    for m in range(5):
        assert abs(got[m] - quad_moment_uni(theta, m)) <= bounds[m] + 1e-9 * abs(got[m])
    assert bounds[4] / abs(got[4]) > 1e2 * bounds[0] / got[0]
    assert derivative_bounds(state_at((-2.0, 0.0)), 3).tolist() == [0.0] * 4


@st.composite
def realline_theta(draw):
    """Whole-line parameters of even order d = 2, 4, 6, drawn like
    `random_theta_uni`: lower coefficients in [-2, 2], lead in [-2.5, -0.4]."""
    d = draw(st.sampled_from([2, 4, 6]))
    coeffs = [draw(st.floats(-2.0, 2.0)) for _ in range(d - 1)]
    return ThetaUni((*coeffs, -draw(st.floats(0.4, 2.5))), Support.REAL_LINE)


@settings(max_examples=40)
@given(realline_theta())
def test_whole_line_is_two_half_lines_property(theta):
    # the integral over x < 0 is the half-line integral of g(-u), whose odd
    # powers change sign: A_R(theta) = A_+(theta) + A_+(-theta_1, theta_2, ...)
    mirrored = tuple(-c if k % 2 == 0 else c for k, c in enumerate(theta.coeffs))
    whole = _accepted(theta)
    right = _accepted(ThetaUni(theta.coeffs))
    left = _accepted(ThetaUni(mirrored))
    budget = sum(s.last_transport_error * s.norm_const for s in (whole, right, left))
    assert abs(whole.norm_const - right.norm_const - left.norm_const) <= budget


@settings(max_examples=60)
@given(st.one_of(interior_theta(), realline_theta()), st.data())
def test_extend_derivatives_recursion_property(theta, data):
    state = _accepted(theta)
    d, coeffs = theta.d, theta.coeffs
    M = data.draw(st.integers(1, 4 * d))
    K = data.draw(st.integers(0, M - 1))
    F = extend_derivatives(state, M)
    np.testing.assert_array_equal(F[: K + 1], extend_derivatives(state, K))
    inhom = 1.0 if theta.support is Support.HALF_LINE else 0.0
    for m in range(M - d + 2):
        terms = [inhom if m == 0 else 0.0, m * F[m - 1] if m else 0.0]
        terms += [k * coeffs[k - 1] * F[k - 1 + m] for k in range(1, d)]
        lhs = d * coeffs[-1] * F[d - 1 + m]
        # each of the at most d+1 additions and the division rounds once,
        # by a subnormal step at worst where the terms underflow
        largest = max(abs(lhs), *map(abs, terms))
        ulp = np.finfo(float).eps * largest + np.finfo(float).smallest_subnormal
        assert abs(lhs + math.fsum(terms)) <= (d + 2) * ulp


# The order through which the step maps' rows are compared with the scalar
# references below (`rows(TAYLOR_ORDER)`).
TAYLOR_ORDER = 24


def _series_reference(coeffs, h, inhom, y, order):
    """The step map's rows one coefficient row at a time in Python floats:
    each order closes the row with `_close`, then forms the next row and the
    carry from its shifted products.  This is the kernel's earliest form."""
    d = len(coeffs)
    lead = _lead(coeffs)
    terms = _weights(coeffs)
    kh = [k * hk for k, hk in enumerate(h, 1)]
    n_y = len(y)
    n_eq = n_y + 1
    fill = [0.0] * n_eq
    rows = [list(y)]
    row = [*y[: d - 1], *fill]
    carry = [inhom, *fill[1:]]
    for n in range(1, order + 1):
        _close(row, d, lead, terms, carry)
        nxt = [sum(map(mul, h, row[m + 1 : m + 1 + d])) / n for m in range(n_y)]
        rows.append(nxt)
        if n < order:
            carry = [sum(map(mul, kh, row[m : m + d])) for m in range(n_eq)]
            row = [*nxt[: d - 1], *fill]
    return np.array(rows)


def _unit_closure_series(coeffs, h, inhom, y, order):
    """The step map's rows as the kernel built them before its tensors were
    cached: per call, `_close` closes each unit input of x = (a, c) to a
    row, whose shifted products are that input's column of the map from one
    coefficient row to the next; row 0 is y as given."""
    d = len(coeffs)
    lead = _lead(coeffs)
    terms = _weights(coeffs)
    n_y = len(y)
    n_eq = n_y + 1
    n_x = n_y + n_eq
    width = n_y + d
    zero = [0.0] * width
    closed = [zero] * n_x
    for j in (*range(d - 1), *range(n_y, n_x)):
        row = zero.copy()
        carry = [0.0] * n_eq
        if j < n_y:
            row[j] = 1.0
        else:
            carry[j - n_y] = 1.0
        _close(row, d, lead, terms, carry)
        closed[j] = row
    h = list(h)
    kh = [k * hk for k, hk in enumerate(h, 1)]
    shifts = np.array(
        [[0.0] * (m + 1) + h + [0.0] * (width - m - 1 - d) for m in range(n_y)]
        + [[0.0] * m + kh + [0.0] * (width - m - d) for m in range(n_eq)]
    )
    maps = np.repeat(np.dot(shifts, np.array(closed).T)[None], order, 0)
    maps[:, :n_y] *= (1.0 / np.arange(1.0, order + 1))[:, None, None]
    x = np.zeros((order + 1, n_x))
    x[0, :n_y] = y
    x[0, n_y] = inhom
    for n in range(order):
        np.dot(maps[n], x[n], out=x[n + 1])
    return x[:, :n_y]


def assert_series_matches_reference(coeffs, h, inhom, y):
    """The step map against `_series_reference`.

    Where the recursion cancels, both round intermediates far larger than the
    row, so the bound comes from `sizes`, the reference run on absolute values
    (every weight, direction and start entry by its size, the leading factor
    negative), in which nothing cancels: row n agrees within (n+1)(d+2) ulps
    of the absolute sum of that run's row n.  Row 0 closes the free entries
    y[:d-1] itself, so beyond them it holds y only to that bound."""
    d, order = len(coeffs), TAYLOR_ORDER
    rows = _StepMap(coeffs, h, inhom, len(y)).series(0.0, y[: d - 1])(order)
    assert isinstance(rows, np.ndarray) and rows.shape == (order + 1, len(y))
    assert rows[0, : d - 1].tolist() == [float(v) for v in y[: d - 1]]
    ref = _series_reference(coeffs, h, inhom, y, order)
    sizes = _series_reference(
        [*map(abs, coeffs[:-1]), -abs(coeffs[-1])], [*map(abs, h)], abs(inhom), [*map(abs, y)], order
    )
    steps = (np.arange(order + 1) + 1.0) * (d + 2)
    tiny = np.finfo(float).smallest_subnormal
    bound = steps * (np.finfo(float).eps * sizes.sum(1) + tiny)
    assert np.all(np.abs(rows - ref).max(1) <= bound)


# The univariate state carries d-1 entries; `holo_bi.transport_bi` asks
# for each axis state's rows at width 2d-2.
@pytest.mark.parametrize("axis", [False, True], ids=["state", "axis"])
@pytest.mark.parametrize("H", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("support", [Support.HALF_LINE, Support.REAL_LINE], ids=str)
@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_series_matches_scalar_reference(d, support, H, axis):
    rng = np.random.default_rng(100 * d + 10 * axis + (support is Support.REAL_LINE))
    for _ in range(5):
        coeffs = [*rng.uniform(-2.0, 2.0, d - 1).tolist(), -rng.uniform(0.2, 2.5)]
        h = (H * rng.uniform(-1.0, 1.0, d)).tolist()
        base = rng.uniform(0.1, 2.0, d - 1).tolist()
        y = _extend(coeffs, support, base, 2 * d - 3) if axis else base
        assert_series_matches_reference(coeffs, h, _inhom(support), y)


@settings(max_examples=80)
@given(
    st.integers(2, 6).flatmap(
        lambda d: st.tuples(
            st.lists(st.floats(-2.0, 2.0), min_size=d - 1, max_size=d - 1),
            st.floats(0.05, 2.5),
            st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d),
            st.lists(st.floats(0.0, 2.0), min_size=2 * d - 2, max_size=2 * d - 2),
        )
    ),
    st.sampled_from([Support.HALF_LINE, Support.REAL_LINE]),
    st.sampled_from([1e-3, 1.0, 1e3]),
    st.booleans(),
)
def test_series_matches_scalar_reference_property(draw, support, H, axis):
    lower, lead, h, base = draw
    coeffs = [*lower, -lead]
    d = len(coeffs)
    y = _extend(coeffs, support, base, 2 * d - 3) if axis else base[: d - 1]
    assert_series_matches_reference(coeffs, [H * v for v in h], _inhom(support), y)


@settings(max_examples=120)
@given(
    st.integers(1, 6).flatmap(
        lambda d: st.tuples(
            st.lists(st.floats(-2.0, 2.0), min_size=d - 1, max_size=d - 1),
            st.floats(0.05, 2.5),
            st.lists(st.floats(-1.0, 1.0), min_size=d - 1, max_size=d - 1),
            st.floats(0.05, 1.0),
            st.lists(st.floats(0.0, 2.0), min_size=d - 1, max_size=d - 1),
        )
    ),
    st.sampled_from([Support.HALF_LINE, Support.REAL_LINE]),
    st.sampled_from([1e-3, 1.0, 1e3]),
    st.booleans(),
    st.booleans(),
)
def test_step_map_matches_unit_closure_property(draw, support, H, axis, even):
    """The step map's rows against `_unit_closure_series` on the same segment,
    within 1e-13 of each reference row's largest entry: the state's d-1
    entries and the axis rows' 2d-2 (one entry at least), the leading
    direction h_d never zero.  A whole-line segment with even g and even
    direction keeps every odd entry of every row exactly zero."""
    lower, lead, h_lower, h_lead, base = draw
    d = len(lower) + 1
    coeffs = [*lower, -lead]
    h = [*h_lower, -h_lead]
    even = even and support is Support.REAL_LINE and d % 2 == 0
    if even:  # no odd powers x^1, x^3, ... (index 0, 2, ...) and no odd moments
        coeffs[::2] = [0.0] * len(coeffs[::2])
        h[::2] = [0.0] * len(h[::2])
        base[1::2] = [0.0] * len(base[1::2])
    h = [H * v for v in h]
    width = max(2 * d - 2 if axis else d - 1, 1)
    y = _extend(coeffs, support, base, width - 1)
    rows = _StepMap(coeffs, h, _inhom(support), width).series(0.0, base)(TAYLOR_ORDER)
    ref = _unit_closure_series(coeffs, h, _inhom(support), y, TAYLOR_ORDER)
    assert rows.shape == ref.shape == (TAYLOR_ORDER + 1, width)
    norms = np.abs(ref).max(1)
    assert np.all(np.abs(rows - ref).max(1) <= 1e-13 * norms)
    if even:
        assert not np.any(rows[:, 1::2])


def test_short_move_takes_one_step_of_order_16(taylor_steps):
    # a move of length 1e-3 from a carried order-4 state: the rows stop at
    # the first of the orders, 16, and one step reaches the end; a
    # gamma-point transport of a half-line sextic asks for more rows
    start = state_at((0.5, -0.2, 0.3, -1.0))
    assert start.last_transport_error > 0.0
    taylor_steps.clear()
    transport(start, ThetaUni((0.5, -0.2, 0.301, -1.0)))
    assert [[N for N, _ in step[-1]] for step in taylor_steps] == [[16]]
    taylor_steps.clear()
    transport(initial_state(6, 1.0), ThetaUni((1.0, -0.5, 0.5, 0.3, 0.2, -1.0)))
    assert max(N for step in taylor_steps for N, _ in step[-1]) > 16


@pytest.mark.parametrize(
    "target",
    [
        (1e300, -1.0),  # the rows grow by about 1e300 per order
        (1e200, -1.0, 0.5, -1e-200),
        (1.0, -1e-300),  # the leading factor runs to 1e-300 at the end
    ],
)
def test_series_overflow_is_ode_divergence(target):
    theta = ThetaUni(target)
    start = initial_state(theta.d, 1.0)
    with warnings.catch_warnings(), np.errstate(over="raise", invalid="raise", divide="raise"):
        warnings.simplefilter("error")
        with pytest.raises(OdeDivergence, match="non-finite Taylor coefficients"):
            transport(start, theta)


def test_zero_length_transport_returns_its_state():
    # a move to the state's own parameter keeps the state, estimate
    # included, so that a later move from it still carries that estimate
    start = state_at((0.5, -1.0, -1.0))
    assert start.last_transport_error > 0.0
    assert transport(start, ThetaUni((0.5, -1.0, -1.0))) is start


def test_carried_move_with_overflowing_sum_is_ode_divergence():
    # every Taylor term of the move is finite, but a column's exact sum
    # overflows: `math.fsum` raises OverflowError, which must surface typed
    S = ThetaUni((-0.30476117990172724, 0.875039302255448, -0.6933951248699426, -0.15822930415157682))
    T = ThetaUni((-0.525872966680245, 1.5744407256119342, -1.2006536301345634, -0.0643677107941049))
    with pytest.raises(OdeDivergence, match="overflows"):
        state_at(T, start=state_at(S))


# ------------------------------------------------------ order-2 closed forms

EPS = float(np.finfo(float).eps)
NORMAL = (np.finfo(float).tiny, np.finfo(float).max)


def _gaussian_exact(t1, c, support, M=4):
    """A and its theta_1-derivatives through M at (t1, -c), to 50 digits:
    A in closed form, the rest by the recursion in 50-digit arithmetic."""
    import mpmath

    with mpmath.workdps(50):
        t1, c = mpmath.mpf(t1), mpmath.mpf(c)
        z = -t1 / (2 * mpmath.sqrt(c))
        if support is Support.HALF_LINE:
            F = [mpmath.sqrt(mpmath.pi / c) / 2 * mpmath.erfc(z) * mpmath.exp(z * z)]
        else:
            F = [mpmath.sqrt(mpmath.pi / c) * mpmath.exp(z * z)]
        for m in range(M):
            acc = t1 * F[m] + (m * F[m - 1] if m else int(support is Support.HALF_LINE))
            F.append(acc / (2 * c))
        return F


def _check_gaussian_state(t1, c, support):
    """state_at at (t1, -c) against `_gaussian_exact`: A within the state's
    estimate, F[1..4] within `derivative_bounds` plus the rounding of the
    recursion that extends them (about an ulp per order, which the bounds
    leave out), and `OdeDivergence` exactly where A or F[1] overflows."""
    exact = _gaussian_exact(t1, c, support)
    theta = ThetaUni((t1, -c), support)
    if max(abs(exact[0]), abs(exact[1])) > NORMAL[1]:
        with pytest.raises(OdeDivergence):
            state_at(theta)
        return
    st_ = state_at(theta)
    assert abs(st_.norm_const - exact[0]) <= st_.last_transport_error * exact[0]
    got, bounds = extend_derivatives(st_, 4), derivative_bounds(st_, 4)
    for m in range(1, 5):
        if NORMAL[0] <= abs(exact[m]) <= NORMAL[1]:
            assert abs(got[m] - exact[m]) <= bounds[m] + 2 * m * EPS * abs(exact[m]), m


@settings(max_examples=300)
@given(
    st.floats(-60.0, 60.0).filter(lambda t1: t1 != 0.0),  # theta_1 = 0 is a gamma point
    st.floats(-3.0, 3.0).map(lambda e: 10.0**e),  # c = -theta_2, log-uniform
    st.sampled_from(list(Support)),
)
def test_gaussian_state_within_its_estimate_property(t1, c, support):
    _check_gaussian_state(t1, c, support)


@pytest.mark.parametrize("theta", [(-8.0, -0.5), (-30.0, -0.4), (-200.0, -0.5), (-3.0, -0.001)])
def test_state_at_answers_truncated_normals_transport_refused(theta):
    # transport refused these half-line points: the first two by their
    # condition (ToleranceNotMet), the last two by OdeDivergence
    _check_gaussian_state(theta[0], -theta[1], Support.HALF_LINE)


@pytest.mark.parametrize("support", list(Support))
def test_order_two_state_at_builds_no_step_map(monkeypatch, support):
    theta = ThetaUni((-3.0, -0.5), support)
    want = state_at(theta)

    def refuse(*args, **kwargs):
        raise AssertionError("order 2 transported")

    monkeypatch.setattr("exppoly.holo_uni._StepMap", refuse)
    start = state_at(ThetaUni((1.0, -2.0), support))
    # a carried start is ignored, a start at the requested point returned
    assert state_at(theta, start=start).F.tolist() == want.F.tolist()
    assert state_at(theta, start=want) is want
    norm_const_and_derivs(ThetaUni((0.5, -1.0, 0.0, 0.0), support), 4)  # a boundary point


@pytest.mark.parametrize("support", list(Support))
def test_overflowing_order_two_constant_is_ode_divergence(support):
    from exppoly.oracle import closed_form_A

    theta = ThetaUni((60.0, -0.5), support)
    with pytest.raises(OdeDivergence):
        state_at(theta)
    with pytest.raises(OdeDivergence):
        closed_form_A(theta)
