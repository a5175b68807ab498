"""Univariate engine: initial states, derivative extension, transport."""

import math

import numpy as np
import pytest

from exppoly.domain import Support, ThetaUni
from exppoly.errors import (
    DivergentIntegral,
    InputError,
    NonPositiveScale,
    PathSingularity,
    ToleranceNotMet,
)
from exppoly.holo_uni import (
    OdeOptions,
    extend_derivatives,
    initial_state,
    mixed_partial_index,
    norm_const_and_derivs,
    prefactor_norm_const,
    state_at,
    state_length,
    transport,
    transport_condition,
)
from exppoly.oracle import quad_moment_uni

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


def test_prefactor_norm_const():
    # (1 + 2x + x^2) e^{-x}: 1 + 2*1 + 2 = 5
    assert prefactor_norm_const((1.0, 2.0, 1.0), (-1.0,)) == pytest.approx(
        5.0, rel=1e-10
    )
    # x e^{-x^2} on (0, inf) = 1/2
    assert prefactor_norm_const((0.0, 1.0), (0.0, -1.0)) == pytest.approx(
        0.5, rel=1e-9
    )
    # degenerate prefactor (1) is just A
    assert prefactor_norm_const((1.0,), (-1.0,)) == pytest.approx(1.0, rel=1e-10)


def test_prefactor_validation():
    with pytest.raises(InputError):
        prefactor_norm_const((), (-1.0,))
    with pytest.raises(InputError):
        prefactor_norm_const((1.0, float("inf")), (-1.0,))


def test_mixed_partial_index():
    assert mixed_partial_index([3]) == 3
    assert mixed_partial_index([1, 2]) == 5
    assert mixed_partial_index([0, 0, 2]) == 6
    with pytest.raises(InputError):
        mixed_partial_index([])


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


def test_rk4_agrees_with_adaptive():
    target = ThetaUni((-1.0, 3.0, -2.0))
    adaptive = transport(initial_state(3, 2.0), target)
    fixed = transport(
        initial_state(3, 2.0), target, OdeOptions(method="rk4", step_density=400)
    )
    np.testing.assert_allclose(fixed.F, adaptive.F, rtol=1e-8)


def test_ode_options_validation():
    with pytest.raises(InputError):
        OdeOptions(method="euler")
    with pytest.raises(InputError):
        OdeOptions(rel_tol=0.0)
    with pytest.raises(InputError):
        OdeOptions(step_density=-1)


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
    other = state_at((0.0, -1.0), support=Support.REAL_LINE)
    np.testing.assert_array_equal(state_at(target, start=other).F, state_at(target).F)


def test_state_at_retries_from_gamma_point_when_start_given():
    near = state_at((-0.6, 1.9, -1.7, -0.7))
    st = state_at(HARD_QUARTIC, start=near)
    np.testing.assert_array_equal(st.F, state_at(HARD_QUARTIC).F)
    assert abs(st.norm_const / HARD_QUARTIC_A - 1) <= 1e-7
