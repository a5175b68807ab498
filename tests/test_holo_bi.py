"""Bivariate engine: tables, square systems, extension, transport."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from exppoly import _ode, holo_uni
from exppoly.domain import (
    Support,
    ThetaBi,
    ThetaUni,
    in_proper_bivariate_space,
    monomials_bi,
    suff_stats,
)
from exppoly.errors import (
    AxisOutsideDomain,
    InconsistentExtension,
    InputError,
    NonPositiveScale,
    OdeDivergence,
    OnDiscriminant,
    PathCrossesSingularity,
    PathSingularity,
    SingularSystem,
    ToleranceNotMet,
    UnsupportedOrder,
)
from exppoly.holo_bi import (
    DerivTableBi,
    _LevelPlan,
    _factor,
    _flat,
    _level_shape,
    _p_matrix,
    _refuse_walls,
    _transport_series,
    _transport_shape,
    base_indices,
    boundary_consts,
    extend_table,
    initial_state_bi,
    pfaffian_det,
    table_at,
    transport_bi,
)
from exppoly.holo_uni import _extend, state_length
from exppoly.inference import fit_mle
from exppoly.oracle import quad_A_bi, sample_uni
from exppoly.polyalg import _sylvester_layout, classify_chamber, discriminant
from exppoly.verify import random_theta_bi_proper

SQRT_PI = math.sqrt(math.pi)
G13 = math.gamma(1.0 / 3.0) / 3.0
G23 = math.gamma(2.0 / 3.0) / 3.0


def product_theta(d, c1=1.0, c2=1.0):
    return ThetaBi(d, {(d, 0): -c1, (0, d): -c2})


def test_base_indices():
    assert base_indices(2) == [(0, 0)]
    assert base_indices(3) == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


def test_initial_state_gaussian_product():
    tab = initial_state_bi(2, 1.0, 1.0)
    assert tab.norm_const == pytest.approx(math.pi / 4, rel=1e-14)


def test_initial_state_cubic_product():
    tab = initial_state_bi(3, 1.0, 1.0)
    assert tab.norm_const == pytest.approx(G13 * G13, rel=1e-14)
    assert tab.entry(1, 0) == pytest.approx(G23 * G13, rel=1e-14)
    assert tab.entry(1, 1) == pytest.approx(G23 * G23, rel=1e-14)
    assert tab.entry(2, 0) == pytest.approx(G13 / 3, rel=1e-13)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_initial_state_carries_its_axis_states(d, monkeypatch):
    # the axes of a product point are gamma points: the table carries the
    # states `state_at` returns there, bit for bit, and a transport from it
    # makes no axis transport of its own
    table = initial_state_bi(d, 1.0, 1.7)
    axes = table.axes
    for state, coeffs in ((axes.x, table.theta.x_axis_coeffs()), (axes.y, table.theta.y_axis_coeffs())):
        want = holo_uni.state_at(ThetaUni(coeffs))
        assert state.theta == want.theta
        np.testing.assert_array_equal(state.F, want.F)
        assert state.last_transport_error == want.last_transport_error
    calls = []
    real = holo_uni.state_at
    monkeypatch.setattr(holo_uni, "state_at", lambda *a, **k: calls.append(a) or real(*a, **k))
    transport_bi(table, random_theta_bi_proper(np.random.default_rng(d), d))
    assert calls == []


def test_initial_state_scales():
    # theta_20 = -4 halves every x-moment of the Gaussian factor
    tab = initial_state_bi(2, 4.0, 1.0)
    assert tab.norm_const == pytest.approx(math.pi / 8, rel=1e-14)


def test_initial_state_rejects_bad_scale():
    with pytest.raises(NonPositiveScale):
        initial_state_bi(2, 0.0, 1.0)
    with pytest.raises(NonPositiveScale):
        initial_state_bi(2, 1.0, -3.0)


def test_boundary_consts_gaussian():
    ax, ay = boundary_consts(product_theta(2), 1)
    np.testing.assert_allclose(ax, [SQRT_PI / 2, 0.5], rtol=1e-9)
    np.testing.assert_allclose(ay, [SQRT_PI / 2, 0.5], rtol=1e-9)


def test_boundary_consts_cubic():
    ax, _ = boundary_consts(product_theta(3), 0)
    assert ax[0] == pytest.approx(G13, rel=1e-9)


def test_boundary_consts_reject_bad_axis():
    with pytest.raises(AxisOutsideDomain):
        boundary_consts(ThetaBi(2, {(2, 0): 1.0, (0, 2): -1.0}), 0)


def _closed_form_level_matrix(top, k):
    """Matrix of the order-k level system, in closed form from the top
    coefficients (theta_d0, ..., theta_0d): the reference for the engine's
    Sylvester-built P and banded level rows.

    Columns are the diagonal X[col] = T[k-col, col]; rows are the x-family
    equations t = 0..q, then the y-family ones, q = k-d+1:

      x-family: sum_c (d-c) theta_{d-c,c} X[t+c]
      y-family: sum_c (c+1) theta_{d-1-c,c+1} X[t+c]

    At k = 2d-3 that is all of P(theta).  Entries are built by arithmetic
    alone, so symbolic coefficients work too.
    """
    d = len(top) - 1
    q = k - d + 1
    mat = [[0] * (k + 1) for _ in range(2 * (q + 1))]
    for t in range(q + 1):
        for c in range(d):
            mat[t][t + c] = (d - c) * top[c]
            mat[q + 1 + t][t + c] = (c + 1) * top[c + 1]
    return mat


def _P(top):
    """P(theta) at the top coefficients, as the engine builds it."""
    return _p_matrix(np.asarray(top, dtype=float).tolist())


def test_p_matrix_is_the_closed_form():
    # the Sylvester matrix of (F_a, F_b) is the closed-form level matrix at
    # k = 2d-3 entry for entry, and pfaffian_det is its determinant to the bit
    rng = np.random.default_rng(17)
    for d in range(2, 7):
        for _ in range(200):
            top = rng.uniform(-3.0, 3.0, d + 1)
            want = np.array(_closed_form_level_matrix(top.tolist(), 2 * d - 3), dtype=float)
            np.testing.assert_array_equal(_P(top), want)
            th = ThetaBi(d, {(d - c, c): v for c, v in enumerate(top.tolist())})
            assert pfaffian_det(th) == np.linalg.det(want)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_level_plan_p_matrices_are_the_closed_form(d):
    rng = np.random.default_rng(95 + d)
    for _ in range(20):
        theta0 = random_theta_bi_proper(rng, d).as_vector()
        h = rng.uniform(-3.0, 3.0, theta0.size)
        plan = _LevelPlan(d, 2 * d - 3, 3 * d - 4, 2 * d - 3, theta0, h)
        for got, coeffs in ((plan.P0, theta0), (plan.Ph, h)):
            want = _closed_form_level_matrix(coeffs[plan.shape.top].tolist(), 2 * d - 3)
            np.testing.assert_array_equal(got, np.array(want, dtype=float))


def test_pfaffian_det_needs_degree_two():
    with pytest.raises(UnsupportedOrder):
        pfaffian_det(ThetaBi(1, {(1, 0): -1.0, (0, 1): -1.0}))


def test_square_level_gaussian_product():
    # the order-(2d-3) level at the product point: P = -2 I against the
    # boundary terms -A_y, -A_x = -sqrt(pi)/2, so T[1, 0] = T[0, 1] = sqrt(pi)/4
    th = product_theta(2)
    np.testing.assert_allclose(
        _P(th.top_coeffs()), [[-2.0, 0.0], [0.0, -2.0]], atol=1e-14
    )
    assert pfaffian_det(th) == pytest.approx(4.0, rel=1e-12)
    tab = extend_table(initial_state_bi(2, 1.0, 1.0), 1)
    np.testing.assert_allclose(
        [tab.entry(1, 0), tab.entry(0, 1)], [SQRT_PI / 4, SQRT_PI / 4], rtol=1e-9
    )


def test_system_matrix_layout_quadratic():
    th = ThetaBi(2, {(2, 0): -1.5, (1, 1): -0.5, (0, 2): -2.0})
    t20, t11, t02 = -1.5, -0.5, -2.0
    np.testing.assert_allclose(
        _P(th.top_coeffs()), [[2 * t20, t11], [t11, 2 * t02]], atol=1e-14
    )
    assert pfaffian_det(th) == pytest.approx(4 * t20 * t02 - t11**2, rel=1e-12)


def test_system_matrix_layout_cubic():
    th = ThetaBi(
        3,
        {
            (3, 0): -1.0,
            (2, 1): -0.3,
            (1, 2): -0.2,
            (0, 3): -1.5,
            (1, 0): 0.5,
        },
    )
    t30, t21, t12, t03 = -1.0, -0.3, -0.2, -1.5
    # the lower coefficients do not enter P
    expect = [
        [3 * t30, 2 * t21, t12, 0.0],
        [0.0, 3 * t30, 2 * t21, t12],
        [t21, 2 * t12, 3 * t03, 0.0],
        [0.0, t21, 2 * t12, 3 * t03],
    ]
    np.testing.assert_allclose(_P(th.top_coeffs()), expect, atol=1e-14)


def test_pfaffian_det_matches_discriminant():
    rng = np.random.default_rng(3)
    for d in (2, 3, 4, 5):
        for _ in range(20):
            top = rng.uniform(-2, 2, d + 1)
            coeffs = {(d - j, j): top[j] for j in range(d + 1)}
            th = ThetaBi(d, coeffs)
            got = pfaffian_det(th)
            want = d ** (d - 2) * discriminant(top[::-1])
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_factor_det_and_inverse(d):
    rng = np.random.default_rng(20261018 + d)
    for _ in range(10):
        P = _P(random_theta_bi_proper(rng, d).top_coeffs())
        inv = _factor(P)
        np.testing.assert_allclose(P @ inv, np.eye(len(P)), rtol=0.0, atol=1e-12)


def test_factor_refuses_top_form_on_the_discriminant():
    # cubic slice (a, b) = (-3, -3): the top form is -(x + y)^3
    with pytest.raises(SingularSystem, match="discriminant locus"):
        _factor(_P([-1.0, -3.0, -3.0, -1.0]))


def test_extend_table_gaussian_product():
    tab = extend_table(initial_state_bi(2, 1.0, 1.0), 2)
    assert tab.entry(2, 0) == pytest.approx(math.pi / 8, rel=1e-10)
    assert tab.entry(1, 1) == pytest.approx(0.25, rel=1e-10)
    assert tab.entry(1, 0) == pytest.approx(SQRT_PI / 4, rel=1e-10)


def test_extend_table_cubic_product():
    # at a product point every entry factorizes into gamma moments
    tab = extend_table(initial_state_bi(3, 1.0, 1.0), 3)
    g = [G13, G23, 1.0 / 3.0, G13 / 3]  # Gamma((m+1)/3)/3 for m = 0..3
    for (i, j), v in tab.values.items():
        assert v == pytest.approx(g[i] * g[j], rel=1e-8), (i, j)


def test_extend_table_matches_quadrature(oracle_table):
    th = ThetaBi(2, {(2, 0): -1.0, (1, 1): -0.8, (0, 2): -1.3, (1, 0): 0.4})
    tab = extend_table(oracle_table(th), 2)
    for (i, j), v in tab.values.items():
        assert v == pytest.approx(quad_A_bi(th, st=(i, j)), rel=1e-5), (i, j)


def test_transport_to_cross_term():
    target = ThetaBi(2, {(2, 0): -1.0, (1, 1): -math.sqrt(2.0), (0, 2): -1.0})
    tab = transport_bi(initial_state_bi(2, 1.0, 1.0), target)
    assert tab.norm_const == pytest.approx(
        math.pi / (4 * math.sqrt(2)), rel=1e-7
    )
    assert tab.last_transport_error < 1e-7


def test_transport_with_linear_terms():
    # factorizes: integral of e^{-x+x... } splits into univariate pieces
    target = ThetaBi(2, {(2, 0): -1.0, (0, 2): -1.0, (1, 0): -1.0})
    tab = transport_bi(initial_state_bi(2, 1.0, 1.0), target)
    want = 0.5456413607650469 * SQRT_PI / 2
    assert tab.norm_const == pytest.approx(want, rel=1e-8)


def test_transport_generic_vs_quadrature():
    target = ThetaBi(2, {(2, 0): -1.0, (1, 1): -1.0, (0, 2): -1.0})
    tab = transport_bi(initial_state_bi(2, 1.0, 1.0), target)
    assert tab.norm_const == pytest.approx(quad_A_bi(target), rel=1e-5)


def test_transport_cubic_vs_quadrature():
    target = ThetaBi(
        3, {(3, 0): -1.0, (0, 3): -1.0, (2, 1): -0.4, (1, 2): -0.3, (1, 0): 0.5}
    )
    tab = transport_bi(initial_state_bi(3, 1.0, 1.0), target)
    for st in base_indices(3):
        assert tab.entry(*st) == pytest.approx(
            quad_A_bi(target, st=st), rel=1e-5
        ), st


def test_transpose_symmetry():
    th = ThetaBi(2, {(2, 0): -1.2, (1, 1): -0.7, (0, 2): -0.9, (1, 0): 0.3})
    tab = extend_table(transport_bi(initial_state_bi(2, 1.2, 0.9), th), 2)
    tab_t = extend_table(
        transport_bi(initial_state_bi(2, 0.9, 1.2), th.transpose()), 2
    )
    for (i, j), v in tab.values.items():
        assert v == pytest.approx(tab_t.entry(j, i), rel=1e-8), (i, j)


def test_theorem_equation_residuals():
    # d=2: the two annihilating relations at order 1,
    # sum_i i theta_ij T[i-1+a, j+b] contracts against the axis constants
    th = ThetaBi(2, {(2, 0): -1.0, (1, 1): -0.8, (0, 2): -1.3})
    tab = extend_table(transport_bi(initial_state_bi(2, 1.0, 1.3), th), 1)
    ax, ay = boundary_consts(th, 0)
    t = tab.entry
    x_resid = (
        2 * th[2, 0] * t(1, 0) + th[1, 1] * t(0, 1) + ay[0]
    )
    y_resid = (
        2 * th[0, 2] * t(0, 1) + th[1, 1] * t(1, 0) + ax[0]
    )
    assert abs(x_resid) <= 1e-8
    assert abs(y_resid) <= 1e-8


def test_transport_rejects_improper_target():
    # positive cross term makes the top form vanish on the quadrant
    start = initial_state_bi(2, 1.0, 1.0)
    bad = ThetaBi(2, {(2, 0): -1.0, (1, 1): 3.0, (0, 2): -1.0})
    with pytest.raises(PathSingularity):
        transport_bi(start, bad)


def test_transport_rejects_chamber_crossing_quadratic():
    # theta_11 = -3 is proper on the quadrant but past the theta_11 = -2
    # wall where det P vanishes
    start = initial_state_bi(2, 1.0, 1.0)
    target = ThetaBi(2, {(2, 0): -1.0, (1, 1): -3.0, (0, 2): -1.0})
    with pytest.raises(PathCrossesSingularity):
        transport_bi(start, target)


def test_transport_rejects_chamber_crossing_cubic():
    # product point has one real top root; the target has three
    start = initial_state_bi(3, 1.0, 1.0)
    target = ThetaBi(3, {(3, 0): -1.0, (2, 1): -6.0, (1, 2): -11.0, (0, 3): -6.0})
    with pytest.raises(PathCrossesSingularity):
        transport_bi(start, target)


def test_oracle_seed_reaches_far_chamber(oracle_table):
    # same chamber as the blocked target above: seed there by quadrature
    theta0 = ThetaBi(3, {(3, 0): -1.0, (2, 1): -6.0, (1, 2): -11.0, (0, 3): -6.0})
    target = ThetaBi(3, {(3, 0): -1.0, (2, 1): -6.2, (1, 2): -11.6, (0, 3): -6.6})
    tab = transport_bi(oracle_table(theta0), target)
    assert tab.norm_const == pytest.approx(quad_A_bi(target), rel=1e-5)


def _wall_plan(top0, h_top):
    """The transport plan of a segment whose top form is top0 + s*h_top and
    whose lower coefficients are zero."""
    d = len(top0) - 1
    monos = monomials_bi(d)
    theta0, h = np.zeros(len(monos)), np.zeros(len(monos))
    for c in range(d + 1):
        m = monos.index((d - c, c))
        theta0[m], h[m] = top0[c], h_top[c]
    return _LevelPlan(d, 2 * d - 3, 3 * d - 4, 2 * d - 3, theta0, h)


def _no_step(monkeypatch):
    def no_step(*args, **kwargs):
        raise AssertionError("transport stepped before the wall test")

    monkeypatch.setattr(_ode, "taylor", no_step)


def test_wall_test_refuses_double_crossing(monkeypatch, oracle_table):
    # both endpoints have 4*t20*t02 - t11^2 < 0, the midpoint has it > 0: the
    # segment enters the other chamber and comes back, which no sign test at
    # the endpoints sees; the pencil's zeros refuse it before any step
    src = ThetaBi(2, {(2, 0): -0.25, (1, 1): -1.0, (0, 2): -0.5})
    target = ThetaBi(2, {(2, 0): -3.0, (1, 1): -2.0, (0, 2): -0.25})
    assert discriminant(src.top_coeffs()) < 0 and discriminant(target.top_coeffs()) < 0
    table = oracle_table(src)
    _no_step(monkeypatch)
    with pytest.raises(PathCrossesSingularity):
        transport_bi(table, target)
    # an excursion between the sample points s = 0, 1/2, 1, where D is
    # negative: D(s) = 0.01 - (s - 1/4)^2 for top (-1, s - 1/4, -1/400)
    with pytest.raises(PathCrossesSingularity):
        _refuse_walls(_wall_plan(np.array([-1.0, -0.25, -0.0025]), np.array([0.0, 1.0, 0.0])))


def test_wall_test_refuses_a_source_or_target_on_a_wall(monkeypatch):
    # the README cubic slice's target (-1, -5, -4.25, -1) has D = 2.3e-14:
    # it lies on the wall, so a zero of the pencil sits at s = 1
    _no_step(monkeypatch)
    top = (-1.0, -5.0, -4.25, -1.0)
    with pytest.raises(OnDiscriminant):
        classify_chamber(top)
    target = ThetaBi(3, {(3, 0): -1.0, (2, 1): -5.0, (1, 2): -4.25, (0, 3): -1.0, (1, 0): -1.0, (0, 1): -1.0})
    with pytest.raises(PathCrossesSingularity):
        transport_bi(initial_state_bi(3, 1.0, 1.0), target)
    top0 = np.array([-1.0, 0.0, 0.0, -1.0])
    zeros = _wall_plan(top0, np.array(top) - top0).zeros()
    assert min(abs(z - 1.0) for z in zeros) < 1e-12
    # a source on the wall makes P0 singular: refused the same way
    on_wall = ThetaBi(2, {(2, 0): -1.0, (1, 1): -2.0, (0, 2): -1.0})
    with pytest.raises(PathCrossesSingularity, match="source lies on a chamber wall"):
        transport_bi(DerivTableBi(on_wall, [1.0]), ThetaBi(2, {(2, 0): -1.0, (1, 1): -1.0, (0, 2): -1.0}))


def test_wall_test_is_scale_free_on_a_1e60_segment():
    # the discriminant of these top forms overflows a double, but the pencil
    # does not: P0^-1 P(h) is the same at every scale, and its zeros pass
    # the segment; the transport then ends in the axis acceptance's refusal
    top0 = np.array([-1e60, 0.0, 0.0, 0.0, -1e60])
    h_top = np.array([0.0, 0.0, -1e60, 0.0, -1e60])
    _refuse_walls(_wall_plan(top0, h_top))
    assert _wall_plan(top0, h_top).zeros() == _wall_plan(top0 / 1e60, h_top / 1e60).zeros()
    target = ThetaBi(4, {(4, 0): -1e60, (2, 2): -1e60, (0, 4): -2e60})
    with pytest.raises(ToleranceNotMet):
        transport_bi(initial_state_bi(4, 1e60, 1e60), target)


def test_wall_test_passes_walls_off_the_segment():
    # D constant (top form fixed), D with a double root outside [0, 1] (a
    # top form scaled by 1 + s), and a top that moves by rounding only
    for top0, top1 in (
        ((-1.0, 0.5, -2.0), (-1.0, 0.5, -2.0)),
        ((-1.0, 0.5, -2.0), (-2.0, 1.0, -4.0)),
        ((-1.0, 0.3, 0.2, -1.5), (-2.0, 0.6, 0.4, -3.0)),
        ((-1.0, 0.0, -1.0), (-1.0, 1e-12, -1.0)),
    ):
        top0 = np.array(top0)
        _refuse_walls(_wall_plan(top0, np.array(top1) - top0))


def _scan_sees_wall(top0, h_top, s):
    """Whether D sampled at the points s vanishes or changes sign."""
    D = np.array([discriminant(top0 + si * h_top) for si in s])
    return bool(np.any(D == 0.0) or np.sign(D).min() != np.sign(D).max()), D


def _wall_test_raises(top0, h_top):
    try:
        _refuse_walls(_wall_plan(top0, h_top))
    except PathCrossesSingularity:
        return True
    return False


@st.composite
def top_segment(draw):
    """Top forms of degree 2..4 at both ends, theta_d0 negative along the way."""
    d = draw(st.integers(2, 4))
    ends = []
    for _ in range(2):
        rest = [draw(st.floats(-3.0, 3.0)) for _ in range(d)]
        ends.append(np.array([-draw(st.floats(0.2, 3.0)), *rest]))
    return ends[0], ends[1] - ends[0]


@settings(max_examples=60)
@given(top_segment())
def test_wall_test_agrees_with_a_scan(segment):
    # what a dense scan sees, the wall test sees; where D keeps away from zero
    # on the scan, the wall test refuses only what a scan refined around the
    # smallest |D| sees too (a pair of roots closer than the grid spacing)
    top0, h_top = segment
    grid = np.linspace(0.0, 1.0, 401)
    seen, D = _scan_sees_wall(top0, h_top, grid)
    raised = _wall_test_raises(top0, h_top)
    if seen:
        assert raised
    elif raised and np.abs(D).min() > 1e-6 * np.abs(D).max():
        k = int(np.argmin(np.abs(D)))
        fine = np.linspace(grid[max(k - 1, 0)], grid[min(k + 1, 400)], 40001)
        assert _scan_sees_wall(top0, h_top, fine)[0]


def _monitor_crosses(top0, top1):
    """The per-step sign monitor the wall test replaces: the sign of D at the
    target against the source's, then the 201-point scan it fell back on."""
    h_top = top1 - top0
    sign0 = math.copysign(1.0, discriminant(top0))
    for s in (1.0, *np.linspace(0.0, 1.0, 201)):
        disc = discriminant(top0 + s * h_top)
        if disc == 0.0 or math.copysign(1.0, disc) != sign0:
            return True
    return False


def test_wall_test_agrees_with_monitor_on_criterion_points():
    # criterion 9: quadratic draws from their product points, none crossing;
    # criterion 8: the cubic slice (-1, b, a, -1) from the product point at
    # a = b = 0, on its fixture points and a coarse grid of proper points
    segments = []
    rng = np.random.default_rng(20260816)
    for _ in range(50):
        top = np.array(random_theta_bi_proper(rng, 2).top_coeffs())
        segments.append((np.array([top[0], 0.0, top[-1]]), top))
    product = np.array([-1.0, 0.0, 0.0, -1.0])
    ticks = [*np.arange(-6.0, 6.01, 1.0), -3.5, 2.5]
    for a in ticks:
        for b in ticks:
            th = ThetaBi(3, {(3, 0): -1.0, (2, 1): float(b), (1, 2): float(a), (0, 3): -1.0})
            if in_proper_bivariate_space(th):
                segments.append((product, np.array(th.top_coeffs())))
    verdicts = [_monitor_crosses(top0, top1) for top0, top1 in segments]
    for (top0, top1), monitor in zip(segments, verdicts):
        assert _wall_test_raises(top0, top1 - top0) == monitor, (top0, top1)
    assert not any(verdicts[:50])
    assert any(verdicts[50:]) and not all(verdicts[50:])


def test_wall_root_near_an_end_is_refused():
    # D(s) = (s - 0.98)^2 - 1e-4 up to sign, roots at s = 0.97 and 0.99: the
    # discriminant keeps one sign at s = 0, 1/2, 1, yet the pencil's zeros
    # are those two roots, and the segment is refused
    top0, h_top = np.array([-1.0, -0.98, -2.5e-5]), np.array([0.0, 1.0, 0.0])
    D = [discriminant(top0 + s * h_top) for s in (0.0, 0.5, 1.0)]
    assert min(D) > 0.0 or max(D) < 0.0
    zeros = _wall_plan(top0, h_top).zeros()
    np.testing.assert_allclose(sorted(z.real for z in zeros), [0.97, 0.99], rtol=0, atol=1e-12)
    assert all(z.imag == 0.0 for z in zeros)
    with pytest.raises(PathCrossesSingularity):
        _refuse_walls(_wall_plan(top0, h_top))


def _matched(got, want):
    """got reordered to pair each entry of want with its nearest unused one."""
    got, out = list(got), []
    for w in want:
        k = min(range(len(got)), key=lambda i: abs(got[i] - w))
        out.append(got.pop(k))
    return np.array(out)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_wall_poly_matches_exact_discriminant(d):
    # the wall polynomial D(theta(s)) as the pencil gives it, by its zeros,
    # against sympy's roots of the discriminant of the parametrised top
    # form, on three rational segments
    import sympy

    s = sympy.Symbol("s")
    a = sympy.Symbol("a")
    rng = np.random.default_rng(40 + d)
    for _ in range(3):
        top0 = [sympy.Rational(int(v), 4) for v in rng.integers(-12, 13, d + 1)]
        top1 = [sympy.Rational(int(v), 4) for v in rng.integers(-12, 13, d + 1)]
        top0[0], top1[0] = -sympy.Rational(int(rng.integers(1, 9)), 4), -1
        p = sum((c0 + s * (c1 - c0)) * a ** (d - c) for c, (c0, c1) in enumerate(zip(top0, top1)))
        disc = sympy.cancel(sympy.resultant(p, sympy.diff(p, a), a) / (top0[0] + s * (top1[0] - top0[0])))
        want = [complex(r) for r in sympy.Poly(disc, s).nroots(n=30)]
        t0 = np.array([float(c) for c in top0])
        got = _wall_plan(t0, np.array([float(c) for c in top1]) - t0).zeros()
        assert len(got) == len(want)
        want = np.array(want)
        np.testing.assert_allclose(_matched(got, want), want, rtol=1e-9, atol=1e-12)


@given(top_segment(), st.integers(-8, 8))
@settings(max_examples=300)
def test_pencil_zeros_are_scale_free(segment, k):
    # scaling both ends of a segment by 2^k scales P0 and P(h) exactly, and
    # with them the inverse: the zeros are bit for bit the same
    top0, h_top = segment
    try:
        want = _wall_plan(top0, h_top).zeros()
    except SingularSystem:
        return  # the source is on a wall
    got = _wall_plan(top0 * 2.0**k, h_top * 2.0**k).zeros()
    assert got == want


def test_transport_degree_mismatch():
    with pytest.raises(InputError):
        transport_bi(initial_state_bi(2, 1.0, 1.0), product_theta(3))


def test_table_validation():
    th = product_theta(3)
    with pytest.raises(InputError):
        DerivTableBi(th, [1.0])  # below base order 2d-4 = 2
    full = np.ones(len(base_indices(3)))
    with pytest.raises(InputError):
        DerivTableBi(th, full[:-1])  # no order fills five entries
    with pytest.raises(InputError):
        DerivTableBi(th, full.reshape(2, 3))
    with pytest.raises(InputError):
        DerivTableBi(th, dict(zip(base_indices(3), full)))  # a mapping is not a vector
    tab = DerivTableBi(th, full)
    with pytest.raises(AttributeError):
        tab.max_order = 5
    with pytest.raises(ValueError):
        tab.F[0] = 2.0


def test_table_layout():
    # F holds T[i, j] at _flat(i, j): by total order, then by j
    tab = DerivTableBi(product_theta(3), np.arange(10.0))
    assert tab.max_order == 3 and tab.norm_const == 0.0
    assert list(tab.values) == [
        (0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 2), (0, 3)
    ]
    assert all(tab.entry(i, j) == tab.F[_flat(i, j)] == v for (i, j), v in tab.values.items())
    for ij in ((4, 0), (-1, 1)):
        with pytest.raises(KeyError):
            tab.entry(*ij)


@pytest.mark.parametrize("d", [2, 3])
def test_pfaffian_matrix_determinant_symbolic(d):
    # P is the Sylvester matrix of the partials F_a, F_b of the top form
    # F(a, b), so det P = Res(F_a, F_b) = d^(d-2) D as polynomials in the
    # top coefficients, with D the library's discriminant R(p, p')/lead(p);
    # P is laid out here by the engine's own Sylvester layout, symbolically
    import sympy

    top = sympy.symbols(f"t0:{d + 1}")  # (theta_d0, ..., theta_0d)
    a, b = sympy.symbols("a b")
    F = sum(top[c] * a ** (d - c) * b**c for c in range(d + 1))
    Fa, Fb = (sympy.diff(F, v).subs(b, 1) for v in (a, b))
    entries = [0, *sympy.Poly(Fa, a).all_coeffs(), *sympy.Poly(Fb, a).all_coeffs()]
    P = sympy.Matrix([[entries[i] for i in row] for row in _sylvester_layout(d - 1, d - 1).tolist()])
    assert P == sympy.Matrix(_closed_form_level_matrix(top, 2 * d - 3))
    p = F.subs(b, 1)
    disc = sympy.cancel(sympy.resultant(p, sympy.diff(p, a), a) / top[0])
    det = P.det()
    assert sympy.expand(det - sympy.resultant(Fa, Fb, a)) == 0
    assert sympy.expand(det - d ** (d - 2) * disc) == 0
    point = (-1.3, 0.4, -0.7, 0.9)[: d + 1]
    assert float(disc.subs(dict(zip(top, point)))) == pytest.approx(
        discriminant(point), rel=1e-12
    )


# ------------------------------------------------- least-squares reference
# The level solve the engine used before its square-window plan: every
# level matrix rebuilt inside every right-hand side evaluation and the
# over-determined levels solved by least squares, integrated by Dormand-
# Prince.  The engine steps by Taylor series instead, so the two agree to a
# tolerance, not bitwise.  The reference runs at rel_tol 1e-13: at the
# default 1e-10 it is itself off by 2.8e-7 at the tenth d=2 point (against
# the mpmath value in `test_transport_matches_mpmath`), far outside the
# 1e-9 it is held to.


def _ref_level_system(d, k, theta_map, T, ax, ay):
    """All 2(q+1) equations for the order-k diagonal X[col] = T[k-col][col].

    T is a 2-D array or a list of rows, read as T[i][j].
    """
    q = k - d + 1
    mat = [[0.0] * (k + 1) for _ in range(2 * (q + 1))]
    rhs = [0.0] * (2 * (q + 1))
    interior = [(i, j) for (i, j) in monomials_bi(d) if 2 <= i + j <= d - 1]
    lead_x = [(d - i, i * theta_map[(i, d - i)]) for i in range(1, d + 1)]
    lead_y = [(j - 1, j * theta_map[(d - j, j)]) for j in range(1, d + 1)]
    low_x = [(i - 1, j, i * theta_map[(i, j)]) for i, j in interior if i >= 1]
    low_y = [(i, j - 1, j * theta_map[(i, j)]) for i, j in interior if j >= 1]
    t10, t01 = theta_map[(1, 0)], theta_map[(0, 1)]
    for r in range(q + 1):
        s, t = q - r, r
        for off, w in lead_x:
            mat[r][t + off] = w
        acc = ay[t] if s == 0 else 0.0
        if s >= 1:
            acc += s * T[s - 1][t]
        acc += t10 * T[s][t]
        for a, b, w in low_x:
            acc += w * T[s + a][t + b]
        rhs[r] = -acc
        for off, w in lead_y:
            mat[q + 1 + r][t + off] = w
        acc = ax[s] if t == 0 else 0.0
        if t >= 1:
            acc += t * T[s][t - 1]
        acc += t01 * T[s][t]
        for a, b, w in low_y:
            acc += w * T[s + a][t + b]
        rhs[q + 1 + r] = -acc
    return np.array(mat), np.array(rhs)


def _ref_extend(d, T, lo, hi, theta_map, ax, ay):
    for k in range(lo, hi + 1):
        mat, rhs = _ref_level_system(d, k, theta_map, T, ax, ay)
        X = np.linalg.lstsq(mat, rhs, rcond=None)[0].tolist()
        for col in range(k + 1):
            T[k - col][col] = X[col]


def _ref_transport(table, theta):
    """Base entries of the table moved to theta with the reference solve."""
    d = theta.d
    monos = monomials_bi(d)
    src = table.theta.as_vector()
    h_vec = theta.as_vector() - src
    h = h_vec.tolist()
    base = base_indices(d)
    nb, L = len(base), state_length(d)
    M_tab, M_ax = 3 * d - 4, max(L - 1 + d, 2 * d - 3)
    x_idx = [monos.index((i, 0)) for i in range(1, d + 1)]
    y_idx = [monos.index((0, j)) for j in range(1, d + 1)]
    axes = [holo_uni.state_at(ThetaUni([src[m] for m in idx])).F.tolist() for idx in (x_idx, y_idx)]
    y0 = [table.values[ij] for ij in base] + axes[0] + axes[1]
    # T[I, J] @ h is sum h_ab T[i+a, j+b], row by row of the base
    I = np.array([[i + a for a, _ in monos] for i, _ in base])
    J = np.array([[j + b for _, b in monos] for _, j in base])

    def rhs(s, y):
        c = (src + s * h_vec).tolist()
        ax = _extend([c[m] for m in x_idx], Support.HALF_LINE, y[nb : nb + L], M_ax)
        ay = _extend([c[m] for m in y_idx], Support.HALF_LINE, y[nb + L :], M_ax)
        T = [[0.0] * (M_tab + 1) for _ in range(M_tab + 1)]
        for n, (i, j) in enumerate(base):
            T[i][j] = y[n]
        _ref_extend(d, T, 2 * d - 3, M_tab, dict(zip(monos, c)), ax, ay)
        dy = (np.array(T)[I, J] @ h_vec).tolist()
        dy += [sum(h[x_idx[i - 1]] * ax[m + i] for i in range(1, d + 1)) for m in range(L)]
        dy += [sum(h[y_idx[j - 1]] * ay[m + j] for j in range(1, d + 1)) for m in range(L)]
        return dy

    # every component is a positive moment, so the relative tolerance alone
    # controls the step; the absolute one is far below any of them
    sol = solve_ivp(rhs, (0.0, 1.0), y0, method="DOP853", rtol=1e-13, atol=1e-300)
    assert sol.success, sol.message
    return dict(zip(base, sol.y[:, -1].tolist()))


@pytest.fixture(scope="module", params=[2, 3, 4])
def reference_points(request):
    """Ten seeded proper points per degree: (theta, transported table, reference base)."""
    d = request.param
    rng = np.random.default_rng(20261018 + d)
    out = []
    for _ in range(10):
        theta = random_theta_bi_proper(rng, d)
        top = theta.top_coeffs()
        start = initial_state_bi(d, abs(top[0]), abs(top[-1]))
        out.append((theta, transport_bi(start, theta), _ref_transport(start, theta)))
    return out


def _rel(got, want):
    return abs(got - want) / abs(want)


def test_transport_matches_lstsq_reference(reference_points):
    for theta, moved, ref in reference_points:
        worst = max(_rel(moved.entry(*ij), v) for ij, v in ref.items())
        assert worst <= 1e-9, theta


def test_transport_matches_mpmath():
    # the tenth d=2 reference point, where an integrator at the default
    # tolerance misses A by 2.8e-7, so the engine is held to an independent
    # value there: A by mpmath, the y-integral in closed form
    import mpmath

    rng = np.random.default_rng(20261020)
    for _ in range(10):
        theta = random_theta_bi_proper(rng, 2)
    p, q, a, b, c = (mpmath.mpf(theta[ij]) for ij in ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2)))

    def inner(x):
        beta = b * x + q
        return (
            mpmath.exp(a * x * x + p * x)
            * mpmath.sqrt(mpmath.pi / -c)
            / 2
            * mpmath.exp(beta**2 / (-4 * c))
            * mpmath.erfc(-beta / (2 * mpmath.sqrt(-c)))
        )

    with mpmath.workdps(30):
        want = mpmath.quad(inner, [0, 1, 3, mpmath.inf])
        assert abs(want - mpmath.mpf("1.1274152280382982652")) < 1e-18
    top = theta.top_coeffs()
    got = transport_bi(initial_state_bi(2, -top[0], -top[-1]), theta).norm_const
    assert _rel(got, float(want)) <= 1e-9


def test_extend_matches_lstsq_reference(reference_points):
    # both extend the same transported table: the extension amplifies a
    # difference in A (about 1e-11 between the two transports) up to 2e4
    # times by order 2d at some of these points, with either solve
    for theta, moved, _ in reference_points:
        d = theta.d
        table = extend_table(moved, 2 * d)
        T = np.zeros((2 * d + 1, 2 * d + 1))
        for (i, j), v in moved.values.items():
            T[i, j] = v
        ax, ay = boundary_consts(theta, d + 1)
        _ref_extend(d, T, 2 * d - 3, 2 * d, theta.coeffs, ax, ay)
        worst = max(_rel(v, T[i, j]) for (i, j), v in table.values.items())
        assert worst <= 1e-9, theta


def test_every_level_row_holds(reference_points):
    # the windows leave some rows of each level unused; they hold anyway
    for theta, moved, _ in reference_points:
        d = theta.d
        table = extend_table(moved, 2 * d)
        T = np.zeros((2 * d + 1, 2 * d + 1))
        for (i, j), v in table.values.items():
            T[i, j] = v
        ax, ay = boundary_consts(theta, d + 1)
        for k in range(2 * d - 3, 2 * d + 1):
            mat, rhs = _ref_level_system(d, k, theta.coeffs, T, ax, ay)
            X = np.array([T[k - c, c] for c in range(k + 1)])
            size = np.abs(mat) @ np.abs(X) + np.abs(rhs)
            assert np.all(np.abs(mat @ X - rhs) <= 1e-8 * size), (theta, k)


def test_extend_rejects_inconsistent_table():
    # the base entries of a cubic table are not free: one off by 1 % leaves
    # the over-determined levels without a common solution
    th = ThetaBi(3, {(3, 0): -1.0, (0, 3): -1.5, (2, 1): -0.3, (1, 0): 0.5, (0, 1): -0.2})
    moved = transport_bi(initial_state_bi(3, 1.0, 1.5), th)
    assert extend_table(moved, 6).max_order == 6
    bad = moved.F.copy()
    bad[_flat(1, 1)] *= 1.01
    with pytest.raises(InconsistentExtension):
        extend_table(DerivTableBi(th, bad, 0.0, moved.axes), 6)


def test_axis_states_are_reused(monkeypatch):
    th = ThetaBi(3, {(3, 0): -1.0, (0, 3): -1.5, (2, 1): -0.3, (1, 0): 0.5, (0, 1): -0.2})
    moved = transport_bi(initial_state_bi(3, 1.0, 1.5), th)
    assert moved.axes is not None
    bare = DerivTableBi(th, moved.F, moved.last_transport_error)
    fresh = extend_table(bare, 6)
    ax_fresh, _ = boundary_consts(th, 4)
    calls = []
    real = holo_uni.state_at
    monkeypatch.setattr(holo_uni, "state_at", lambda *a, **k: calls.append(a) or real(*a, **k))
    reused = extend_table(moved, 6)
    ax, _ = boundary_consts(moved, 4)
    assert calls == []
    # same bits as transporting the axes again from their gamma points
    np.testing.assert_array_equal(reused.F, fresh.F)
    np.testing.assert_array_equal(ax, ax_fresh)
    assert reused.axes is moved.axes


def test_axis_states_must_match_theta():
    th = ThetaBi(2, {(2, 0): -1.0, (1, 1): -0.5, (0, 2): -2.0})
    moved = transport_bi(initial_state_bi(2, 1.0, 2.0), th)
    with pytest.raises(InputError):
        DerivTableBi(th.transpose(), moved.F, 0.0, moved.axes)


# the parameter of test_cli's bivariate `normconst` checks
CLI_THETA = ThetaBi(2, {(1, 0): 0.4, (0, 1): -0.3, (2, 0): -1.0, (1, 1): -0.8, (0, 2): -1.3})


def test_zero_move_keeps_error_estimate():
    # a move to the table's own parameter returns the table unchanged, as
    # `state_at` returns its start, error estimate included
    table = transport_bi(initial_state_bi(2, 1.0, 1.3), CLI_THETA)
    assert table.last_transport_error > 0.0
    assert transport_bi(table, CLI_THETA) is table
    wide = extend_table(table, 4)
    assert transport_bi(wide, CLI_THETA).last_transport_error == table.last_transport_error


def test_table_at_start_policy():
    # without a start of theta's order: the transport from the product
    # point (|theta_20|, |theta_02|), bit for bit
    want = transport_bi(initial_state_bi(2, 1.0, 1.3), CLI_THETA)
    np.testing.assert_array_equal(table_at(CLI_THETA).F, want.F)
    np.testing.assert_array_equal(table_at(CLI_THETA, start=initial_state_bi(3, 1.0, 1.0)).F, want.F)
    # with one: the transport from it, which at its own parameter is the start
    near = table_at(ThetaBi(2, {(1, 0): 0.3, (2, 0): -1.1, (1, 1): -0.7, (0, 2): -1.3}))
    np.testing.assert_array_equal(table_at(CLI_THETA, start=near).F, transport_bi(near, CLI_THETA).F)
    assert table_at(CLI_THETA, start=want) is want


@pytest.mark.parametrize("bad", [lambda F: -F, lambda F: np.full_like(F, np.nan)], ids=["negative", "nan"])
def test_table_at_refuses_lost_accuracy(bad):
    F = table_at(CLI_THETA).F
    with pytest.raises(OdeDivergence):
        table_at(CLI_THETA, start=DerivTableBi(CLI_THETA, bad(F)))


@st.composite
def proper_theta_bi(draw):
    """Proper parameters of degree 2..4, drawn like `random_theta_bi_proper`."""
    d = draw(st.integers(2, 4))
    coeffs = {
        (i, j): draw(st.floats(-1.0, 1.0)) for (i, j) in monomials_bi(d) if i + j < d
    }
    if d == 2:
        c20, c02 = -draw(st.floats(0.4, 2.5)), -draw(st.floats(0.4, 2.5))
        c11 = draw(st.floats(-0.9, 0.9)) * 2.0 * math.sqrt(c20 * c02)
        coeffs.update({(2, 0): c20, (1, 1): c11, (0, 2): c02})
    else:
        lead = draw(st.floats(1.0, 2.0))
        for j in range(d + 1):
            axis = j in (0, d)
            coeffs[(d - j, j)] = -lead if axis else draw(st.floats(-0.3, 0.3)) * lead
    return ThetaBi(d, coeffs)


@settings(max_examples=25)
@given(proper_theta_bi())
def test_transpose_symmetry_property(th):
    # transport to theta and to its transpose from the mirrored product
    # point; the square level 2d-3 is included, where the two solves see
    # mirrored windows
    d = th.d
    top = th.top_coeffs()
    order = 2 * d - 3
    tab = extend_table(transport_bi(initial_state_bi(d, -top[0], -top[-1]), th), order)
    tab_t = extend_table(
        transport_bi(initial_state_bi(d, -top[-1], -top[0]), th.transpose()), order
    )
    for (i, j), v in tab.values.items():
        assert v == pytest.approx(tab_t.entry(j, i), rel=1e-8), (i, j)


def _level_plan_reference(d, lo, hi, m_ax, theta0, h):
    """The level plan as `_LevelPlan.__init__` built it on every call before
    its shapes were cached: P(theta0), P(h), each level's natural-order G0
    with its columns, and per level the window-order blocks (G0, Gh, Gx),
    the window count and the window row that solves each level entry."""
    monos = monomials_bi(d)
    n = 2 * d - 2
    t_off = 2 * (m_ax + 1)
    n_v = t_off + _flat(0, hi) + 1
    top = [monos.index((d - c, c)) for c in range(d + 1)]
    P0 = np.array(_closed_form_level_matrix([theta0[m] for m in top], 2 * d - 3), dtype=float)
    Ph = np.array(_closed_form_level_matrix([h[m] for m in top], 2 * d - 3), dtype=float)
    lower = [(m, i, j) for m, (i, j) in enumerate(monos) if i + j < d]
    levels, blocks = [], []
    for k in range(lo, hi + 1):
        q = k - d + 1
        G0 = np.zeros((2 * (q + 1), n_v))
        Gh = np.zeros_like(G0)
        for t in range(q + 1):
            a = q - t
            rx, ry = t, q + 1 + t
            if a == 0:
                G0[rx, m_ax + 1 + t] = -1.0
            else:
                G0[rx, t_off + _flat(a - 1, t)] = -a
            if t == 0:
                G0[ry, a] = -1.0
            else:
                G0[ry, t_off + _flat(a, t - 1)] = -t
            for m, i, j in lower:
                if i:
                    col = t_off + _flat(a + i - 1, t + j)
                    G0[rx, col] -= i * theta0[m]
                    Gh[rx, col] -= i * h[m]
                if j:
                    col = t_off + _flat(a + i, t + j - 1)
                    G0[ry, col] -= j * theta0[m]
                    Gh[ry, col] -= j * h[m]
        starts = list(range(0, k - n + 2, n))
        if starts[-1] != k - n + 1:
            starts.append(k - n + 1)
        rows = [r for t0 in starts for r in (*range(t0, t0 + d - 1), *range(q + 1 + t0, q + d + t0))]
        asm = np.empty(k + 1, dtype=np.intp)
        for w, t0 in enumerate(starts):
            asm[t0 : t0 + n] = range(w * n, (w + 1) * n)
        cols = slice(t_off + _flat(k, 0), t_off + _flat(0, k) + 1)
        Gx = Gh[rows]
        for w, t0 in enumerate(starts):
            Gx[w * n : (w + 1) * n, cols.start + t0 : cols.start + t0 + n] -= Ph
        blocks.append((G0[rows], Gh[rows], Gx, len(starts), asm))
        levels.append((k, G0, cols))
    return P0, Ph, levels, blocks


def _engine_shapes():
    """Every (d, lo, hi, m_ax) the engine plans: the transport's levels and
    the extension of a transported table to orders M up to 2d+2."""
    for d in (2, 3, 4):
        yield d, 2 * d - 3, 3 * d - 4, 2 * d - 3
        for M in range(2 * d - 3, 2 * d + 3):
            yield d, 2 * d - 3, M, M - d + 1


@pytest.mark.parametrize("d, lo, hi, m_ax", list(dict.fromkeys(_engine_shapes())), ids=str)
def test_level_plan_matches_per_call_builder(d, lo, hi, m_ax):
    # the cached shapes put theta0 and h where the per-call loops did, to the bit
    rng = np.random.default_rng(1000 * d + hi)
    theta0 = random_theta_bi_proper(rng, d).as_vector()
    h = random_theta_bi_proper(rng, d).as_vector() - theta0
    P0, Ph, levels, blocks = _level_plan_reference(d, lo, hi, m_ax, theta0, h)
    plan = _LevelPlan(d, lo, hi, m_ax, theta0, h)
    single = _LevelPlan(d, lo, hi, m_ax, theta0)
    np.testing.assert_array_equal(plan.P0, P0)
    np.testing.assert_array_equal(single.P0, P0)
    np.testing.assert_array_equal(plan.Ph, Ph)
    G0 = np.vstack([G for _, G, _ in levels])
    np.testing.assert_array_equal(plan.G0, G0)
    np.testing.assert_array_equal(single.G0, G0)
    assert [(lv.k, lv.cols) for lv in plan.shape.levels] == [(k, cols) for k, _, cols in levels]
    for got, want in zip((plan.G0w, plan.Ghw, plan.Gx), zip(*[b[:3] for b in blocks])):
        np.testing.assert_array_equal(got, np.vstack(want))
    np.testing.assert_array_equal(single.G0w, plan.G0w)
    offsets = np.cumsum([0] + [n_win * plan.n for _, _, _, n_win, _ in blocks])
    asm = np.concatenate([b[4] + o for b, o in zip(blocks, offsets)])
    np.testing.assert_array_equal(plan.shape.asm, asm)
    # each level's banded left-hand side is the dense closed-form product
    V = rng.uniform(-1.0, 1.0, plan.n_v)
    for (k, _, cols), lhs in zip(levels, single.lhs(V)):
        mat = np.array(_closed_form_level_matrix(plan.top0.tolist(), k), dtype=float)
        size = np.abs(mat) @ np.abs(V[cols])
        assert np.all(np.abs(lhs - mat @ V[cols]) <= 1e-14 * size), k


@pytest.mark.parametrize("d", [2, 3, 4])
def test_composed_solve_matches_level_fill(d):
    # one product per order against the level-by-level fill and the DH product
    rng = np.random.default_rng(77 + d)
    shape = _transport_shape(d)
    for _ in range(5):
        theta0 = random_theta_bi_proper(rng, d).as_vector()
        h = 0.3 * (random_theta_bi_proper(rng, d).as_vector() - theta0)
        plan = _LevelPlan(d, 2 * d - 3, 3 * d - 4, 2 * d - 3, theta0, h)
        s, H = rng.uniform(0.0, 0.5), rng.uniform(0.1, 1.0)
        pinv = plan.factor(s)
        DH = H * shape.shift.put(np.zeros(shape.nb * plan.n_v), h).reshape(shape.nb, plan.n_v)
        first = plan.shape.levels[0].cols.start
        rows = np.zeros((2, plan.n_v))
        rows[0] = rng.uniform(-1.0, 1.0, plan.n_v)  # V_{n-1}, levels included
        rows[1, :first] = rng.uniform(0.1, 1.0, first)  # V_n below the levels
        out = plan.composed(s, H, pinv, DH).dot(rows.ravel())
        K = plan._windows(s, H, pinv)  # each level entry from its window
        for lv in plan.shape.levels:  # level by level, each reading those before
            rows[1, lv.cols] = K[lv.cols.start - first : lv.cols.stop - first].dot(rows.ravel())
        n_lev = plan.n_v - first
        for got, want in ((out[:n_lev], rows[1, first:]), (out[n_lev:], DH.dot(rows[1]))):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def _lane_and_level_rows(d, src, h, s, y, H, order):
    """The transport's rows as they were built before one matrix per order:
    each axis lane's rows by the `_StepMap.series` of a one-lane map, then
    the levels and the next base row from `composed`, one product per
    order."""
    shape = _transport_shape(d)
    nb, m_ax, free = shape.nb, 2 * d - 3, d - 1
    plan = _LevelPlan(d, 2 * d - 3, 3 * d - 4, m_ax, src, h)
    tab = slice(plan.t_off, plan.t_off + nb)
    n_lev = plan.n_v - tab.stop
    D = shape.shift.put(np.zeros(nb * plan.n_v), h).reshape(nb, plan.n_v)
    rows = np.zeros((order + 2, plan.n_v))  # rows[n + 1] holds V_n
    for lane, axis in enumerate(shape.axes):
        lane_map = holo_uni._StepMap(src[axis], h[axis], 1.0, m_ax + 1)
        y_lane = y[nb + lane * free : nb + (lane + 1) * free]
        rows[1:, lane * (m_ax + 1) : (lane + 1) * (m_ax + 1)] = lane_map.series(s, y_lane, H)(order)
    rows[1, tab] = y[:nb]
    W = plan.composed(s, H, plan.factor(s), H * D)
    for n in range(order):
        out = W.dot(rows[n : n + 2].ravel())
        rows[n + 1, tab.stop :] = out[:n_lev]
        rows[n + 2, tab] = out[n_lev:] / (n + 1)
    w = m_ax + 1
    return rows[1:, [*range(tab.start, tab.stop), *range(free), *range(w, w + free)]]


@pytest.mark.parametrize("d", [2, 3, 4])
def test_fused_rows_match_lane_and_level_rows(d):
    # one matrix per order for axes, levels and base rows, against the two
    # lanes' rows and the composed level loop, through order 24
    rng = np.random.default_rng(300 + d)
    order = 24
    for _ in range(5):
        theta = random_theta_bi_proper(rng, d)
        top = theta.top_coeffs()
        start = initial_state_bi(d, abs(top[0]), abs(top[-1]))
        src = start.theta.as_vector()
        h = theta.as_vector() - src
        y = start.F.tolist() + start.axes.x.F[: d - 1].tolist() + start.axes.y.F[: d - 1].tolist()
        s, H = rng.uniform(0.0, 0.5), rng.uniform(0.1, 1.0)
        got = _transport_series(d, src, h)(s, y, H)(order)
        want = _lane_and_level_rows(d, src, h, s, y, H, order)
        assert got.shape == want.shape == (order + 1, len(y))
        assert np.all(np.abs(got - want).max(1) <= 1e-12 * np.abs(want).max(1))


def test_short_move_takes_one_step_of_order_16(taylor_steps):
    # a move of length 1e-3 from a transported table: the rows stop at the
    # first of the orders, 16 (rows 0..16), and one step reaches the end
    table = transport_bi(initial_state_bi(2, 1.0, 1.3), CLI_THETA)
    h = np.zeros(len(monomials_bi(2)))
    h[monomials_bi(2).index((1, 1))] = 1e-3
    target = ThetaBi.from_vector(2, CLI_THETA.as_vector() + h)
    taylor_steps.clear()
    transport_bi(table, target)
    assert [[N for N, _ in step[-1]] for step in taylor_steps] == [[16]]


def test_cached_shapes_are_read_only():
    holo_uni.transport(holo_uni.initial_state(3, 1.0), ThetaUni((0.2, 0.1, -1.0)))
    table = extend_table(transport_bi(initial_state_bi(2, 1.0, 1.3), CLI_THETA), 5)
    assert table.max_order == 5
    arrays = [
        *_level_shape(2, 1, 2, 1)[3:],
        *_level_shape(2, 1, 5, 4)[3:],
        *_transport_shape(2),
        *holo_uni._step_tensors(3, 2, 1),
        *holo_uni._step_tensors(2, 2, 2),
    ]
    leaves = [
        a for v in arrays for a in (v if isinstance(v, tuple) else (v,)) if isinstance(a, np.ndarray)
    ]
    assert len(leaves) >= 20
    for arr in leaves:
        with pytest.raises(ValueError):
            arr.flat[0] = 1.0


def test_repeated_fit_builds_no_shapes():
    x = sample_uni(ThetaUni((1.0, -1.0)), 500, seed=11)
    y = sample_uni(ThetaUni((0.5, -2.0)), 500, seed=12)
    stats = suff_stats(np.column_stack([x, y]), 2, "bivariate")
    caches = (_level_shape, _transport_shape, holo_uni._step_tensors)
    first = fit_mle(stats, 2)
    misses = [c.cache_info().misses for c in caches]
    second = fit_mle(stats, 2)
    assert [c.cache_info().misses for c in caches] == misses
    np.testing.assert_array_equal(second.theta_hat.as_vector(), first.theta_hat.as_vector())


def test_extension_shapes_stay_within_the_cache_bound():
    # 100 distinct extension shapes: 25 orders M at each of d = 2..5
    for d in (2, 3, 4, 5):
        table = initial_state_bi(d, 1.0, 1.5)
        for M in range(2 * d - 3, 2 * d + 22):
            extend_table(table, M)
    info = _level_shape.cache_info()
    assert info.currsize == info.maxsize < 100


@pytest.mark.parametrize(
    "order", [2.5, True, -1, np.float64(3.0)], ids=["fraction", "bool", "negative", "numpy-float"]
)
def test_order_arguments_must_be_integers(order):
    table = transport_bi(initial_state_bi(2, 1.0, 1.3), CLI_THETA)
    state = holo_uni.state_at((0.2, -1.0))
    for call in (
        lambda: extend_table(table, order),
        lambda: boundary_consts(CLI_THETA, order),
        lambda: holo_uni.extend_derivatives(state, order),
        lambda: holo_uni.derivative_bounds(state, order),
    ):
        with pytest.raises(InputError, match="derivative order must be an integer >= 0"):
            call()


def test_order_arguments_accept_numpy_integers():
    table = transport_bi(initial_state_bi(2, 1.0, 1.3), CLI_THETA)
    np.testing.assert_array_equal(extend_table(table, np.int64(4)).F, extend_table(table, 4).F)
    ax, ay = boundary_consts(table, np.int32(3))
    np.testing.assert_array_equal(ax, boundary_consts(table, 3)[0])
    assert extend_table(table, np.int64(0)) is table


def test_scale_arguments():
    # every finite positive real, numpy scalars included; never a bool
    uni, bi = holo_uni.initial_state, initial_state_bi
    np.testing.assert_array_equal(uni(2, np.float32(1.0)).F, uni(2, 1.0).F)
    np.testing.assert_array_equal(uni(2, np.int64(2)).F, uni(2, 2.0).F)
    np.testing.assert_array_equal(bi(2, np.int64(2), 1.0).F, bi(2, 2.0, 1.0).F)
    np.testing.assert_array_equal(bi(2, 1.0, np.float32(0.5)).F, bi(2, 1.0, 0.5).F)
    for bad in (True, np.True_):
        with pytest.raises(NonPositiveScale):
            holo_uni.initial_state(2, bad)
        with pytest.raises(NonPositiveScale):
            initial_state_bi(2, bad, 1.0)
