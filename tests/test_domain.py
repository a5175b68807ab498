"""Parameter types, region classification, and sufficient statistics."""

import math

import numpy as np
import pytest

from exppoly.domain import (
    Membership,
    Support,
    ThetaBi,
    ThetaUni,
    classify_theta_uni,
    effective_theta,
    in_proper_bivariate_space,
    monomials_bi,
    suff_stats,
)
from exppoly.errors import (
    EmptySample,
    InputError,
    NegativeDatum,
    UnsupportedOrder,
)
from exppoly.holo_uni import norm_const_and_derivs
from exppoly.oracle import quad_moment_uni
from exppoly.polyalg import exponent


def test_theta_uni_basic():
    th = ThetaUni((0.5, -1.0))
    assert th.d == 2
    assert th.support is Support.HALF_LINE
    assert th.coeffs == (0.5, -1.0)
    np.testing.assert_allclose(th.as_array(), [0.5, -1.0])
    # exponent is theta_1 x + theta_2 x^2
    assert exponent(th.coeffs, 2.0) == pytest.approx(0.5 * 2 - 1.0 * 4)


def test_theta_uni_realline_needs_even_order():
    ThetaUni((0.0, -1.0), Support.REAL_LINE)
    with pytest.raises(UnsupportedOrder):
        ThetaUni((1.0, 2.0, -1.0), Support.REAL_LINE)


@pytest.mark.parametrize(
    "support, want",
    [
        (Support.HALF_LINE, Support.HALF_LINE),
        ("halfline", Support.HALF_LINE),
        ("realline", Support.REAL_LINE),
        (None, None),
        ("x", None),
    ],
)
def test_theta_uni_support_is_a_support_member(support, want):
    # a support given by its value is stored as the member, so the engine,
    # which compares members by identity, reads the support asked for
    coeffs = (-1.0, 3.0, -2.0, -1.0)
    if want is None:
        with pytest.raises(InputError):
            ThetaUni(coeffs, support)
        with pytest.raises(InputError):
            norm_const_and_derivs(coeffs, 2, support=support)
        return
    assert ThetaUni(coeffs, support).support is want
    A = norm_const_and_derivs(coeffs, 2, support=support)[0]
    assert A == pytest.approx(quad_moment_uni(ThetaUni(coeffs, want)), rel=1e-9)


def test_theta_uni_rejects_empty_and_nonfinite():
    with pytest.raises(UnsupportedOrder):
        ThetaUni(())
    with pytest.raises(InputError):
        ThetaUni((math.nan, -1.0))


def test_classify_interior_boundary_outside():
    assert classify_theta_uni(ThetaUni((0.0, -1.0))).membership is Membership.INTERIOR
    cls = classify_theta_uni(ThetaUni((-1.0, 0.0)))
    assert cls.membership is Membership.BOUNDARY
    assert cls.effective_order == 1
    assert classify_theta_uni(ThetaUni((0.0, 1.0))).membership is Membership.OUTSIDE
    assert classify_theta_uni(ThetaUni((0.0, 0.0))).membership is Membership.OUTSIDE


def test_classify_is_exact_on_zero():
    # strata are defined by literal zeros, not a tolerance
    tiny = 1e-300
    assert classify_theta_uni(ThetaUni((0.0, -tiny))).membership is Membership.INTERIOR


def test_classify_realline_odd_effective_order_diverges():
    # stored order is even, but a trailing zero exposes an odd leading term
    cls = classify_theta_uni(ThetaUni((-1.0, 0.0), Support.REAL_LINE))
    assert cls.membership is Membership.OUTSIDE


def test_effective_theta_drops_trailing_zeros():
    eff = effective_theta(ThetaUni((-1.0, -2.0, 0.0, 0.0)))
    assert eff.coeffs == (-1.0, -2.0)
    with pytest.raises(InputError):
        effective_theta(ThetaUni((0.0, 1.0)))


def test_effective_theta_keeps_a_theta_at_its_order():
    theta = ThetaUni((0.0, 3.0, -1.0))
    assert effective_theta(theta) is theta


def test_monomials_bi_canonical_order():
    assert monomials_bi(2) == [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    assert monomials_bi(1) == [(1, 0), (0, 1)]
    assert len(monomials_bi(3)) == 9
    with pytest.raises(UnsupportedOrder):
        monomials_bi(0)


def test_theta_bi_zero_fill_and_string_keys():
    th = ThetaBi(2, {(2, 0): -1.0, (0, 2): -2.0})
    assert th[(1, 1)] == 0.0
    assert th[(1, 0)] == 0.0
    # JSON-style string keys parse digit-wise
    th2 = ThetaBi(2, {"20": -1.0, "02": -2.0, "11": 0.5})
    assert th2[(1, 1)] == 0.5
    with pytest.raises(InputError):
        ThetaBi(2, {(3, 0): -1.0})
    with pytest.raises(InputError):
        ThetaBi(2, {(2, 0): math.inf})


def test_theta_bi_accessors():
    th = ThetaBi(2, {(1, 0): 0.3, (0, 1): -0.2, (2, 0): -1.0, (1, 1): 0.4, (0, 2): -0.8})
    assert th.top_coeffs() == (-1.0, 0.4, -0.8)
    assert th.x_axis_coeffs() == (0.3, -1.0)
    assert th.y_axis_coeffs() == (-0.2, -0.8)
    tt = th.transpose()
    assert tt[(1, 0)] == -0.2
    assert tt[(1, 1)] == 0.4
    assert tt.top_coeffs() == (-0.8, 0.4, -1.0)
    vec = th.as_vector()
    np.testing.assert_allclose(vec, [0.3, -0.2, -1.0, 0.4, -0.8])
    back = ThetaBi.from_vector(2, vec)
    assert back.coeffs == th.coeffs
    with pytest.raises(InputError):
        ThetaBi.from_vector(2, [1.0, 2.0])


def test_proper_bivariate_space_quadratic():
    def theta2(c11):
        return ThetaBi(2, {(2, 0): -1.0, (1, 1): c11, (0, 2): -1.0})

    assert in_proper_bivariate_space(theta2(0.0))
    assert in_proper_bivariate_space(theta2(1.9))
    # tangency: p(a) = -(a-1)^2 touches zero at a=1
    assert not in_proper_bivariate_space(theta2(2.0))
    assert not in_proper_bivariate_space(theta2(2.5))
    # negative cross terms never create positive roots
    assert in_proper_bivariate_space(theta2(-5.0))
    assert not in_proper_bivariate_space(
        ThetaBi(2, {(2, 0): 1.0, (1, 1): -1.0, (0, 2): -1.0})
    )


def test_proper_bivariate_space_cubic_fixtures():
    def theta3(t12, t21):
        return ThetaBi(3, {(3, 0): -1.0, (2, 1): t21, (1, 2): t12, (0, 3): -1.0})

    assert in_proper_bivariate_space(theta3(0.0, 0.0))
    assert in_proper_bivariate_space(theta3(-3.5, -3.5))
    assert not in_proper_bivariate_space(theta3(-0.5, 2.5))


def test_suff_stats_univariate():
    st = suff_stats([1.0, 2.0, 3.0], 3)
    assert st.n == 3
    assert st.order == 3
    assert st.support is Support.HALF_LINE
    assert st.moment(1) == pytest.approx(2.0)
    assert st.moment(2) == pytest.approx((1 + 4 + 9) / 3)
    assert st.moment(3) == pytest.approx((1 + 8 + 27) / 3)
    with pytest.raises(InputError):
        st.moment(4)
    assert not st.is_bivariate


def test_suff_stats_validation():
    with pytest.raises(EmptySample):
        suff_stats([], 2)
    with pytest.raises(NegativeDatum):
        suff_stats([1.0, -0.5], 2)
    with pytest.raises(InputError):
        suff_stats([1.0, math.nan], 2)
    # negative data are fine on the whole line
    st = suff_stats([1.0, -0.5], 2, Support.REAL_LINE)
    assert st.moment(1) == pytest.approx(0.25)


def test_suff_stats_bivariate():
    xy = np.array([[1.0, 2.0], [3.0, 1.0]])
    st = suff_stats(xy, 2, "bivariate")
    assert st.is_bivariate
    assert st.support is None
    assert st.moment_bi(1, 0) == pytest.approx(2.0)
    assert st.moment_bi(1, 1) == pytest.approx((2.0 + 3.0) / 2)
    assert st.moment_bi(0, 2) == pytest.approx((4.0 + 1.0) / 2)
    with pytest.raises(NegativeDatum):
        suff_stats(np.array([[1.0, -2.0]]), 2, "bivariate")
    with pytest.raises(InputError):
        suff_stats(np.array([1.0, 2.0]), 2, "bivariate")
