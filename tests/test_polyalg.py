"""Resultants, discriminants, Sturm root counting, chamber classification."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exppoly.errors import (
    LeadingCoefficientZero,
    OnDiscriminant,
    UnsupportedOrder,
    ZeroPolynomial,
)
from exppoly.polyalg import (
    ChamberLabel,
    classify_chamber,
    count_real_roots,
    discriminant,
    squarefree_part,
    sylvester_matrix,
    sylvester_resultant,
)


def test_sylvester_matrix_layout():
    s = sylvester_matrix([1.0, -3.0, 2.0], [1.0, -3.0])
    assert s.shape == (3, 3)
    np.testing.assert_allclose(s[0], [1.0, -3.0, 2.0])
    np.testing.assert_allclose(s[1], [1.0, -3.0, 0.0])
    np.testing.assert_allclose(s[2], [0.0, 1.0, -3.0])


def test_resultant_common_root_detection():
    # f = (x-1)(x-2), g = x-3: no common root
    assert sylvester_resultant([1, -3, 2], [1, -3]) == pytest.approx(2.0)
    # g = x-1 shares a root with f
    assert sylvester_resultant([1, -3, 2], [1, -1]) == pytest.approx(0.0, abs=1e-12)


def test_resultant_product_formula():
    rng = np.random.default_rng(11)
    for _ in range(25):
        f = rng.uniform(-2, 2, size=4)
        g = rng.uniform(-2, 2, size=3)
        f[0], g[0] = 1.0, 1.0
        expected = np.prod([np.polyval(g, r) for r in np.roots(f)])
        got = sylvester_resultant(f, g)
        assert got == pytest.approx(float(np.real(expected)), rel=1e-8, abs=1e-10)


def test_resultant_rejects_degenerate_inputs():
    with pytest.raises(ZeroPolynomial):
        sylvester_resultant([0.0, 0.0], [1.0, 2.0])
    with pytest.raises(UnsupportedOrder):
        sylvester_resultant([2.0], [1.0, 1.0])


def test_discriminant_quadratic():
    # descending top coefficients (theta_20, theta_11, theta_02):
    # D = 4 theta_20 theta_02 - theta_11^2
    assert discriminant((1.0, 0.0, -4.0)) == pytest.approx(-16.0)
    assert discriminant((-1.0, 0.5, -1.0)) == pytest.approx(4.0 - 0.25)
    with pytest.raises(LeadingCoefficientZero):
        discriminant((0.0, 1.0, 1.0))
    with pytest.raises(UnsupportedOrder):
        discriminant((1.0, 1.0))


def test_discriminant_cubic_slice_formula():
    # on the theta_30 = theta_03 = -1 slice the classical discriminant has the
    # closed form t12^2 t21^2 + 4 t12^3 + 4 t21^3 + 18 t12 t21 - 27; the
    # resultant-over-lead convention used throughout is its negative
    rng = np.random.default_rng(3)
    for _ in range(40):
        a, b = rng.uniform(-5, 5, size=2)
        classical = a * a * b * b + 4 * a**3 + 4 * b**3 + 18 * a * b - 27
        got = discriminant((-1.0, b, a, -1.0))
        assert got == pytest.approx(-classical, rel=1e-10, abs=1e-9)
    assert discriminant((-1.0, 0.0, 0.0, -1.0)) == pytest.approx(27.0)


def test_count_real_roots():
    assert count_real_roots([1.0, 0.0, 1.0]) == 0
    assert count_real_roots([1.0, 0.0, -4.0]) == 2
    assert count_real_roots([1.0, 0.0, -4.0], 0.0, math.inf) == 1
    p = np.poly([-2.0, -1.0, 1.0, 3.0])
    assert count_real_roots(p) == 4
    assert count_real_roots(p, 0.0, math.inf) == 2
    assert count_real_roots(p, -math.inf, 0.0) == 2


def test_squarefree_part():
    # (x-1)^2 (x+2) -> roots {1, -2}
    p = np.polymul(np.polymul([1.0, -1.0], [1.0, -1.0]), [1.0, 2.0])
    sf = squarefree_part(p)
    assert len(sf) == 3
    assert count_real_roots(sf) == 2


def test_classify_chamber_cubic_fixtures():
    # (theta_12, theta_21) points on the theta_30 = theta_03 = -1 slice
    def top(t12, t21):
        return (-1.0, t21, t12, -1.0)

    b = classify_chamber(top(0.0, 0.0))
    assert (b.n_positive, b.n_negative, b.n_complex_pairs) == (0, 1, 1)
    assert b.letter == "B"
    assert b.proper

    a = classify_chamber(top(-0.5, 2.5))
    assert (a.n_positive, a.n_negative, a.n_complex_pairs) == (2, 1, 0)
    assert a.letter == "A"
    assert not a.proper

    c = classify_chamber(top(-3.5, -3.5))
    assert (c.n_positive, c.n_negative, c.n_complex_pairs) == (0, 3, 0)
    assert c.letter == "C"
    assert c.proper


def test_classify_chamber_on_discriminant():
    # p(t) = -(t-1)^2 (t+1): a repeated root sits on the wall
    with pytest.raises(OnDiscriminant):
        classify_chamber((-1.0, 1.0, 1.0, -1.0))


def test_classify_chamber_rejects_degenerate():
    with pytest.raises(LeadingCoefficientZero):
        classify_chamber((0.0, 1.0, 1.0, -1.0))
    with pytest.raises(UnsupportedOrder):
        classify_chamber((-1.0, -1.0))


def test_root_counting_rejects_lead_below_double_range():
    # a lead that vanishes once the coefficients are scaled to unit size puts
    # a root beyond double range, and the Sturm chain would divide by it
    for top in ([5e-324, 2.0, 0.0], [1e-310, -3.0, 1.0, 2.0]):
        with pytest.raises(LeadingCoefficientZero):
            count_real_roots(top)
        with pytest.raises(LeadingCoefficientZero):
            classify_chamber(top)
    assert count_real_roots([1e-300, 2.0, 0.0]) == 2


def test_chamber_label_letter_only_for_cubics():
    lab = ChamberLabel(0, 2, 0, proper=True)
    assert lab.degree == 2
    assert lab.letter is None


def test_chamber_label_counts_root_at_origin():
    # -a^3 + 3a^2 - 2.5a = -a (a^2 - 3a + 2.5): the origin and a complex pair
    lab = classify_chamber([-1.0, 3.0, -2.5, 0.0])
    assert lab == ChamberLabel(0, 0, 1, proper=False, n_zero=1)
    assert lab.degree == 3
    assert lab.letter is None
    assert classify_chamber([-1.0, 3.0, -2.5, -0.1]).letter == "B"


_coefficient = st.one_of(st.integers(-3, 3).map(float), st.floats(-3.0, 3.0))


@st.composite
def top_form(draw):
    """Descending coefficients of a degree-d top form, d = 2..6, with a
    non-zero lead; small integers make exact repeated roots likely, and the
    last coefficient is sometimes exactly zero (a root at the origin)."""
    d = draw(st.integers(2, 6))
    lead = draw(_coefficient.filter(lambda v: v != 0.0))
    middle = [draw(_coefficient) for _ in range(d - 1)]
    last = draw(st.one_of(st.just(0.0), _coefficient))
    return [lead, *middle, last]


@settings(max_examples=400)
@given(top_form())
def test_classify_chamber_raises_only_on_discriminant_property(top):
    try:
        label = classify_chamber(top)
    except OnDiscriminant:
        return
    except LeadingCoefficientZero:
        # only a lead below the normal range once scaled to the others
        assert abs(top[0] / max(map(abs, top))) < sys.float_info.min
        return
    assert label.degree == len(top) - 1
    assert label.n_zero == (top[-1] == 0.0)
