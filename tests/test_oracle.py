"""Quadrature oracle, closed forms, numeric CDF, and the sampler."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, interpolate, optimize
from scipy import stats as sps

from exppoly import oracle
from exppoly.domain import Support, ThetaBi, ThetaUni, effective_theta
from exppoly.errors import DivergentIntegral, InputError
from exppoly.oracle import (
    closed_form_A,
    numeric_cdf,
    quad_A_bi,
    quad_moment_uni,
    sample_uni,
)
from exppoly.polyalg import exponent
from exppoly.verify import random_theta_uni

SQRT_PI = math.sqrt(math.pi)
HALF, REAL = Support.HALF_LINE, Support.REAL_LINE

# The exponents the benchmark samples from (calibration and quadrant inputs)
# and the README's quickstart model, (-1, 3, -2) on the half line.
SAMPLED_THETAS = [
    ThetaUni((-1.0, 3.0, -2.0)),
    ThetaUni((3.0, -2.0, 0.0)),
    ThetaUni((1.0, 4.0, -2.0, -3.0), REAL),
    ThetaUni((1.0, -1.0)),
    ThetaUni((0.5, -2.0)),
]


def _reference_cdf_nodes(theta):
    """QUADPACK reference for `oracle._cdf_nodes`: the same window and
    two-pass node set, with each interval's mass from one
    `scipy.integrate.quad` (epsabs=1e-14, epsrel=1e-11 on the peak-scaled
    density)."""
    theta = effective_theta(theta)
    coeffs = theta.coeffs
    if theta.support is HALF:
        _, hi, crit = oracle._window_halfline(coeffs, 0, 1e-16)
        lo = 0.0
    else:
        _, lo, hi, crit = oracle._window_realline(coeffs, 0, 1e-16)
    gmax = max(
        [oracle._log_integrand(coeffs, 0, x) for x in crit if lo < x < hi]
        + [oracle._log_integrand(coeffs, 0, lo), oracle._log_integrand(coeffs, 0, hi)]
    )

    def cumulative(xs):
        parts = np.zeros(len(xs))
        for i in range(1, len(xs)):
            parts[i], _ = integrate.quad(
                lambda x: math.exp(exponent(coeffs, x) - gmax),
                xs[i - 1], xs[i], epsabs=1e-14, epsrel=1e-11,
            )
        return np.cumsum(parts)

    coarse = np.linspace(lo, hi, 257)
    f1 = cumulative(coarse)
    xq = np.interp(np.linspace(0.0, 1.0, 769), f1 / f1[-1], coarse)
    xs = np.unique(np.concatenate([coarse, xq]))
    xs = xs[np.concatenate([[True], np.diff(xs) > 1e-12 * (hi - lo)])]
    f = cumulative(xs)
    return xs, f / f[-1]


def _reference_sample(theta, n, seed):
    """Reference for `sample_uni`: inverse CDF by
    `scipy.interpolate.PchipInterpolator` on the QUADPACK node table."""
    xs, us = _reference_cdf_nodes(theta)
    grow = np.concatenate([[True], np.diff(us) > 1e-15])
    grow[-1] = True
    ui, idx = np.unique(us[grow], return_index=True)
    xi = xs[grow][idx]
    u = np.clip(np.random.default_rng(seed).random(n), ui[0], ui[-1])
    return interpolate.PchipInterpolator(ui, xi)(u)


def _assert_close(got, want, rel):
    """Norm-wise relative agreement: max |got - want| <= rel * max |want|
    (elementwise relative error means nothing at a whole-line draw near 0)."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


def test_quad_exponential_moments_are_factorials():
    th = ThetaUni((-1.0,))
    for m in range(5):
        assert quad_moment_uni(th, m) == pytest.approx(math.factorial(m), rel=1e-10)


def test_quad_half_gaussian_moments():
    th = ThetaUni((0.0, -1.0))
    assert quad_moment_uni(th, 0) == pytest.approx(SQRT_PI / 2, rel=1e-11)
    assert quad_moment_uni(th, 1) == pytest.approx(0.5, rel=1e-11)
    assert quad_moment_uni(th, 2) == pytest.approx(SQRT_PI / 4, rel=1e-11)


def test_quad_realline_gaussian():
    th = ThetaUni((0.0, -1.0), Support.REAL_LINE)
    assert quad_moment_uni(th, 0) == pytest.approx(SQRT_PI, rel=1e-11)
    assert quad_moment_uni(th, 1) == pytest.approx(0.0, abs=1e-12)
    assert quad_moment_uni(th, 2) == pytest.approx(SQRT_PI / 2, rel=1e-11)


def test_quad_reduces_boundary_theta():
    # trailing zero: effectively the exponential model
    th = ThetaUni((-1.0, 0.0))
    assert quad_moment_uni(th, 0) == pytest.approx(1.0, rel=1e-10)


def test_quad_rejects_divergent():
    with pytest.raises(DivergentIntegral):
        quad_moment_uni(ThetaUni((1.0,)))
    with pytest.raises(DivergentIntegral):
        quad_moment_uni(ThetaUni((0.0, 0.0)))


def test_closed_form_values():
    assert closed_form_A(ThetaUni((-2.0,))) == pytest.approx(0.5)
    # truncated normal integral e^{1/4} (sqrt(pi)/2) erfc(1/2)
    assert closed_form_A(ThetaUni((-1.0, -1.0))) == pytest.approx(
        0.5456413607650469, rel=1e-14
    )
    assert closed_form_A(ThetaUni((1.0, -1.0), Support.REAL_LINE)) == pytest.approx(
        SQRT_PI * math.exp(0.25), rel=1e-14
    )


def test_closed_form_matches_quadrature():
    rng = np.random.default_rng(7)
    for _ in range(10):
        th = ThetaUni((rng.uniform(-2, 2), -rng.uniform(0.3, 2.0)))
        assert closed_form_A(th) == pytest.approx(quad_moment_uni(th), rel=1e-9)


def test_closed_form_requires_interior():
    with pytest.raises(DivergentIntegral):
        closed_form_A(ThetaUni((-1.0, 0.0)))


def test_quad_bivariate_product_point():
    th = ThetaBi(2, {(2, 0): -1.0, (0, 2): -1.0})
    assert quad_A_bi(th) == pytest.approx(math.pi / 4, rel=1e-9)
    assert quad_A_bi(th, st=(1, 0)) == pytest.approx(SQRT_PI / 4, rel=1e-9)
    assert quad_A_bi(th, st=(1, 1)) == pytest.approx(0.25, rel=1e-9)


def test_quad_bivariate_cross_term():
    # quadratic form with 2b = sqrt(2): A = pi/(4 sqrt(2))
    th = ThetaBi(2, {(2, 0): -1.0, (1, 1): -math.sqrt(2.0), (0, 2): -1.0})
    assert quad_A_bi(th) == pytest.approx(math.pi / (4 * math.sqrt(2)), rel=1e-9)


def test_quad_bivariate_rejects_improper():
    with pytest.raises(DivergentIntegral):
        quad_A_bi(ThetaBi(2, {(2, 0): 1.0, (0, 2): -1.0}))


def test_numeric_cdf_monotone():
    cdf, (lo, hi) = numeric_cdf(ThetaUni((-1.0, 3.0, -2.0)))
    xs = np.linspace(lo, hi, 200)
    us = cdf(xs)
    assert us[0] == pytest.approx(0.0, abs=1e-6)
    assert us[-1] == pytest.approx(1.0, abs=1e-6)
    assert np.all(np.diff(us) >= -1e-12)


def test_sampler_deterministic_per_seed():
    th = ThetaUni((-1.0, 3.0, -2.0))
    a = sample_uni(th, 50, seed=123)
    b = sample_uni(th, 50, seed=123)
    c = sample_uni(th, 50, seed=124)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sampler_matches_cdf():
    th = ThetaUni((0.0, -1.0))
    x = sample_uni(th, 2000, seed=5)
    assert np.all(x > 0)
    cdf, _ = numeric_cdf(th)
    assert sps.kstest(x, cdf).pvalue > 0.01


def test_sampler_realline():
    th = ThetaUni((1.0, -1.0), Support.REAL_LINE)
    x = sample_uni(th, 2000, seed=6)
    # mean of exp(x - x^2) is 1/2
    assert float(np.mean(x)) == pytest.approx(0.5, abs=0.06)


def _pchip_cases():
    """(x, y) pairs: the sampler's own tables both ways round, random monotone
    data with flat stretches, random data that turns, and 2- and 3-point data."""
    rng = np.random.default_rng(11)
    cases = []
    for k, theta in enumerate(SAMPLED_THETAS[:3]):
        xs, us = oracle._cdf_nodes(theta, oracle._DEFAULT_QUAD)
        ui, idx = np.unique(us, return_index=True)
        cases.append(pytest.param(xs, us, id=f"cdf{k}"))
        cases.append(pytest.param(ui, xs[idx], id=f"inverse-cdf{k}"))
    for k in range(5):
        x = np.cumsum(rng.uniform(0.01, 1.0, 40))
        steps = rng.exponential(1.0, 40) * (rng.random(40) < 0.6)
        cases.append(pytest.param(x, np.cumsum(steps), id=f"flat-stretches{k}"))
        cases.append(pytest.param(x, rng.normal(size=40), id=f"turning{k}"))
    cases.append(pytest.param(np.array([0.0, 2.0]), np.array([1.0, -3.0]), id="2-point"))
    cases.append(pytest.param(np.array([0.0, 0.5, 2.0]), np.array([0.0, 1.0, 1.2]), id="3-point"))
    cases.append(pytest.param(np.array([-1.0, 0.1, 0.3]), np.array([2.0, -1.0, 5.0]), id="3-point-turning"))
    return cases


@pytest.mark.parametrize("x, y", _pchip_cases())
def test_pchip_matches_scipy(x, y):
    span = x[-1] - x[0]
    points = np.concatenate([x, np.linspace(x[0] - 0.1 * span, x[-1] + 0.1 * span, 2001)])
    _assert_close(oracle._pchip(x, y)(points), interpolate.PchipInterpolator(x, y)(points), 1e-13)


@pytest.mark.parametrize("theta", SAMPLED_THETAS, ids=lambda th: f"{th.coeffs} {th.support.value}")
def test_sampler_matches_reference(theta):
    _assert_close(sample_uni(theta, 2000, seed=17), _reference_sample(theta, 2000, 17), 1e-10)


@settings(max_examples=30)
@given(
    st.one_of(
        st.tuples(st.integers(1, 6), st.just(HALF)),
        st.tuples(st.sampled_from([2, 4, 6]), st.just(REAL)),
    ),
    st.integers(0, 2**32 - 1),
)
def test_sampler_matches_reference_property(order, seed):
    d, support = order
    theta = random_theta_uni(np.random.default_rng(seed), d, support)
    _assert_close(sample_uni(theta, 500, seed), _reference_sample(theta, 500, seed), 1e-10)


def test_panel_split_resolves_narrow_mode():
    # exp(-a (x - 2)^2) on the half line, a = 1e7: sd 2.2e-4 against a
    # first-pass interval of 7.8e-3.  The 20-point rule on the halves of the
    # mode's intervals is off by 5e-5 of the total mass; the split gets to
    # 2e-10.  (The draws hardly notice: the second pass puts its quantile
    # nodes around the mode either way.)
    a, x0 = 1e7, 2.0
    coeffs = (2.0 * a * x0, -a)
    _, hi, _ = oracle._window_halfline(coeffs, 0, 1e-16)
    edges = np.linspace(0.0, hi, 257)
    got = oracle._density_integrals(coeffs, exponent(coeffs, x0), edges)
    s = math.sqrt(a)
    want = [
        SQRT_PI / (2.0 * s) * (math.erf(s * (v - x0)) - math.erf(s * (u - x0)))
        for u, v in zip(edges[:-1], edges[1:])
    ]
    assert np.max(np.abs(got - want)) <= 1e-9 * sum(want)


def test_cdf_table_of_density_limited_by_rounding():
    # exp(2e7 x - 1e5 x^2): g reaches 1e9 at the mode x = 100, so exp(g - gmax)
    # carries relative rounding noise near 1e-7, above the 1e-11 tolerance;
    # the panels accept agreement to that noise instead of splitting forever.
    xs, us = oracle._cdf_nodes(ThetaUni((2e7, -1e5)), oracle._DEFAULT_QUAD)
    z = (xs - 100.0) * math.sqrt(2e5)
    want = [0.5 * math.erfc(-zk / math.sqrt(2.0)) for zk in z]
    assert np.max(np.abs(us - want)) <= 1e-7


@pytest.mark.parametrize("support", [HALF, REAL])
def test_tail_cut_within_brentq_tolerance(support):
    # the window's cut lands where brentq would, to brentq's own tolerance
    rng = np.random.default_rng(5)
    for d in (1, 2, 3, 4, 5, 6) if support is HALF else (2, 4, 6):
        coeffs = random_theta_uni(rng, d, support).coeffs
        if support is HALF:
            lmax, cut, crit = oracle._window_halfline(coeffs, 0, 1e-16)
        else:
            lmax, _, cut, crit = oracle._window_realline(coeffs, 0, 1e-16)
        inner = max([x for x in crit if x > 0.0] + [1e-6])
        assert cut > inner

        def f(x):
            return oracle._log_integrand(coeffs, 0, x) - lmax - math.log(1e-16)

        root = optimize.brentq(f, inner, 2.0 * cut)
        assert abs(cut - root) <= 2e-12 + 4.0 * np.finfo(float).eps * abs(root)


def test_sampler_sample_size_must_be_integer():
    th = ThetaUni((-1.0, 3.0, -2.0))
    for bad in (True, 2.5):
        with pytest.raises(InputError):
            sample_uni(th, bad, 1)
    assert sample_uni(th, 0, 1).shape == (0,)
    assert sample_uni(th, np.int64(5), 1).shape == (5,)


_NO_SCIPY_CHILD = """
import json, sys
from exppoly import ThetaUni, numeric_cdf, sample_uni, suff_stats
theta = ThetaUni((-1.0, 3.0, -2.0))
x = sample_uni(theta, 200, seed=1)
cdf, _ = numeric_cdf(theta)
stats = suff_stats(x, 3)
print(json.dumps({"cdf": float(cdf(0.5)), "n": stats.n, "scipy": sorted(
    m for m in sys.modules if m == "scipy" or m.startswith("scipy.")
)}))
"""


def test_sampler_does_not_load_scipy():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_CHILD],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert 0.0 < result["cdf"] < 1.0 and result["n"] == 200
    assert result["scipy"] == []
