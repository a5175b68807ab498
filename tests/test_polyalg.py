"""Resultants, discriminants, Sturm root counting, chamber classification."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exppoly.errors import (
    InputError,
    LeadingCoefficientZero,
    NonSquarefree,
    OnDiscriminant,
    UnsupportedOrder,
    ZeroPolynomial,
)
from exppoly.polyalg import (
    ChamberLabel,
    _sturm_chain,
    _variation_counts,
    _variations,
    classify_chamber,
    count_positive_roots_squarefree,
    count_real_roots,
    discriminant,
    exponent,
    poly_derivative,
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


def _classify_two_intervals(top, tol=1e-12):
    """Reference counts: one `count_real_roots` call per half line, each on
    its own Sturm chain, behind the same discriminant test."""
    d = len(top) - 1
    disc = discriminant(top)
    if abs(disc) <= tol * max(1.0, max(abs(v) for v in top)) ** (2 * d - 2):
        raise OnDiscriminant("reference: on the discriminant")
    try:
        n_pos = count_real_roots(top, 0.0, math.inf)
        n_neg = count_real_roots(top, -math.inf, 0.0)
    except NonSquarefree as exc:
        raise OnDiscriminant("reference: repeated root") from exc
    return n_pos, n_neg - (top[-1] == 0.0)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (OnDiscriminant, LeadingCoefficientZero, NonSquarefree) as exc:
        return type(exc)


@settings(max_examples=400)
@given(top_form())
def test_classify_chamber_counts_match_two_interval_reference(top):
    label = _outcome(classify_chamber, top)
    if isinstance(label, ChamberLabel):
        label = (label.n_positive, label.n_negative)
    assert label == _outcome(_classify_two_intervals, top)


@st.composite
def sign_chain(draw):
    """A chain of degree d = 2..6: members of degree d, d-1, ..., 0 whose
    coefficients, leads and constant terms included, are sometimes exactly
    zero."""
    d = draw(st.integers(2, 6))
    return [[draw(_coefficient) for _ in range(k + 1)] for k in range(d, -1, -1)]


@settings(max_examples=400)
@given(sign_chain())
def test_variation_counts_equal_variations_at_zero_and_infinities(chain):
    want = tuple(_variations(chain, x) for x in (0.0, math.inf, -math.inf))
    assert _variation_counts(chain) == want


def _variations_horner(chain, x):
    """Sign changes along the chain with every value by Horner's rule."""
    signs = [v > 0 for v in (exponent(c[-2::-1], x) + c[-1] for c in chain) if v != 0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


@settings(max_examples=200)
@given(top_form())
def test_variations_at_zero_read_the_constant_terms(top):
    try:
        chain = _sturm_chain(top)
    except (NonSquarefree, LeadingCoefficientZero):
        return
    for x in (0.0, -0.0):
        assert _variations(chain, x) == _variations_horner(chain, x)


def _horner_descending(c, x):
    acc = 0.0
    for v in c:
        acc = acc * x + v
    return acc


def test_chain_values_by_exponent_equal_descending_horner():
    # `_variations` evaluates a chain member c at finite non-zero x as
    # exponent(c[-2::-1], x) + c[-1]: the same roundings as Horner's rule on
    # the descending coefficients, zero leads included
    rng = np.random.default_rng(23)
    for _ in range(2000):
        c = rng.uniform(-3.0, 3.0, int(rng.integers(1, 9))).tolist()
        if rng.random() < 0.2:
            c[0] = 0.0
        x = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.0, 3.0))
        assert exponent(c[-2::-1], x) + c[-1] == _horner_descending(c, x)


def _sylvester_loop(f, g):
    """The Sylvester matrix row by row, as the layout defines it."""
    m, n = len(f) - 1, len(g) - 1
    s = np.zeros((m + n, m + n))
    for r in range(n):
        s[r, r : r + m + 1] = f
    for r in range(m):
        s[n + r, r : r + n + 1] = g
    return s


@pytest.mark.parametrize("m, n", [(1, 1), (2, 1), (1, 3), (3, 2), (4, 4), (6, 5)])
def test_sylvester_matrix_and_resultant_match_row_by_row_layout(m, n):
    rng = np.random.default_rng(40 + 7 * m + n)
    for _ in range(20):
        f, g = rng.uniform(-3, 3, size=m + 1), rng.uniform(-3, 3, size=n + 1)
        ref = _sylvester_loop(f.tolist(), g.tolist())
        assert np.array_equal(sylvester_matrix(f, g), ref)
        assert sylvester_resultant(f, g) == float(np.linalg.det(ref))


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_batched_discriminants_equal_single_calls(d):
    # uniform forms, and integer ones whose discriminant is often exactly zero
    rng = np.random.default_rng(70 + d)
    tops = rng.uniform(-3, 3, size=(300, d + 1))
    tops[::3] = rng.integers(-3, 4, size=tops[::3].shape)
    tops[tops[:, 0] == 0.0, 0] = -1.0
    singles = [discriminant(top) for top in tops.tolist()]
    # the row-by-row matrices of p and p', with one det per form and with
    # one det of their stack
    mats = [_sylvester_loop(top, poly_derivative(top)) for top in tops.tolist()]
    loop = [float(np.linalg.det(s)) / top[0] for s, top in zip(mats, tops.tolist())]
    batched = (np.linalg.det(np.array(mats)) / tops[:, 0]).tolist()
    assert batched == singles == loop
    assert any(v == 0.0 for v in batched)


_ENTRY_POINTS = {
    "discriminant": lambda v: discriminant([-1.0, v, 0.0, -1.0]),
    "classify_chamber": lambda v: classify_chamber([-1.0, v, 0.0, -1.0]),
    "count_real_roots": lambda v: count_real_roots([1.0, v, -1.0]),
    "count_real_roots_half_line": lambda v: count_real_roots([1.0, v, -1.0], 0.0, math.inf),
    "count_positive_roots_squarefree": lambda v: count_positive_roots_squarefree([1.0, v, -1.0]),
    "squarefree_part": lambda v: squarefree_part([1.0, v, 1.0]),
    "sylvester_matrix": lambda v: sylvester_matrix([1.0, v], [1.0, 1.0]),
    "sylvester_resultant": lambda v: sylvester_resultant([1.0, v], [1.0, 1.0]),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, "a"], ids=["nan", "inf", "text"])
@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
def test_entry_points_reject_coefficients_that_are_not_finite_numbers(entry, bad):
    with pytest.raises(InputError):
        _ENTRY_POINTS[entry](bad)


@pytest.mark.parametrize(
    "top, on_wall",
    [
        ([-1.0, 1e80, 0.0, -1.0], True),
        ([-1.0, -1.0, 1e80, -1.0], True),
        ([-1.0, 1e31, 0.0, 0.0, 0.0, 0.0, -1.0], True),
        # off the wall: D and det are finite although max|c|^(2d-2) is not
        ([math.ldexp(-1.0, 12), math.ldexp(1e-3, 512), math.ldexp(-1.0, 512)], False),
        # |D| / max|c|^2 = 1.96e-12, just off the wall, but 2^-e max|c| = 0.5
        # and a test at scale 1 would put the form on it
        ([math.ldexp(-1.0, 12), math.ldexp(1.4e-6, 512), math.ldexp(-1.0, 512)], False),
    ],
)
def test_large_forms_take_the_label_of_the_scaled_down_form(top, on_wall):
    # the wall test's scale max(1, max|c|)^(2d-2) is beyond double range;
    # scaled by 2^(1-e), e the binary exponent of max|c|, the form has
    # 1 <= max|c| < 2 and its scale is in range
    e = math.frexp(max(map(abs, top)))[1]
    small = [math.ldexp(c, 1 - e) for c in top]
    label = _outcome(classify_chamber, top)
    assert label == _outcome(classify_chamber, small)
    assert (label is OnDiscriminant) == on_wall
