"""Likelihood, Fisher information, MLE fitting, and score tests."""

import math

import numpy as np
import pytest

from exppoly.domain import Support, SuffStats, ThetaBi, ThetaUni, suff_stats
from exppoly.errors import NotConverged, UnsupportedOrder
from exppoly.holo_bi import extend_table, table_from_oracle
from exppoly.inference import (
    fisher_info,
    fit_mle,
    loglik_and_grad,
    mle_existence_check,
    score_test_halfline,
    score_test_realline,
    select_order,
)
from exppoly.inference import TestNull as NullKind
from exppoly.oracle import sample_uni

SQRT_PI = math.sqrt(math.pi)
Z_05 = 1.6448536269514729
CHI2_2_05 = 5.991464547107983


def stats_from_moments(moments, n=100, support=Support.HALF_LINE):
    return SuffStats(
        n=n,
        order=len(moments),
        support=support,
        moments=tuple(float(m) for m in moments),
    )


def test_loglik_exponential_at_mle():
    # theta = -1, xbar = 1: lbar = -1 - log 1 = -1, score = 1 - 1 = 0
    st = stats_from_moments([1.0])
    lbar, grad = loglik_and_grad(ThetaUni((-1.0,)), st)
    assert lbar == pytest.approx(-1.0, rel=1e-12)
    assert grad[0] == pytest.approx(0.0, abs=1e-12)


def test_loglik_exponential_off_mle():
    st = stats_from_moments([2.0])
    _, grad = loglik_and_grad(ThetaUni((-0.5,)), st)
    assert grad[0] == pytest.approx(0.0, abs=1e-10)
    _, grad_bad = loglik_and_grad(ThetaUni((-1.0,)), st)
    assert grad_bad[0] == pytest.approx(1.0, rel=1e-10)


def test_loglik_half_gaussian_stationary():
    # model moments of exp(-x^2) on (0, inf)
    st = stats_from_moments([1.0 / SQRT_PI, 0.5])
    _, grad = loglik_and_grad(ThetaUni((0.0, -1.0)), st)
    np.testing.assert_allclose(grad, [0.0, 0.0], atol=1e-10)


def test_fisher_exponential():
    np.testing.assert_allclose(fisher_info(ThetaUni((-1.0,))), [[1.0]], rtol=1e-9)
    np.testing.assert_allclose(
        fisher_info(ThetaUni((-2.0,))), [[0.25]], rtol=1e-9
    )


def test_fisher_half_gaussian():
    got = fisher_info(ThetaUni((0.0, -1.0)))
    want = [
        [0.5 - 1.0 / math.pi, 1.0 / (2 * SQRT_PI)],
        [1.0 / (2 * SQRT_PI), 0.5],
    ]
    np.testing.assert_allclose(got, want, rtol=1e-9)


def test_fisher_is_covariance_of_monomials():
    # spot check against quadrature moments for a generic cubic
    from exppoly.oracle import quad_moment_uni

    th = ThetaUni((-1.0, 3.0, -2.0))
    A = quad_moment_uni(th, 0)
    mom = np.array([quad_moment_uni(th, m) / A for m in range(7)])
    want = np.empty((3, 3))
    for a in range(3):
        for b in range(3):
            want[a, b] = mom[a + b + 2] - mom[a + 1] * mom[b + 1]
    np.testing.assert_allclose(fisher_info(th), want, rtol=1e-7)


def test_fit_exponential_closed_form():
    res = fit_mle(stats_from_moments([2.0]))
    assert res.converged and not res.hit_boundary
    assert res.iterations == 0
    assert res.theta_hat.coeffs[0] == pytest.approx(-0.5, rel=1e-12)
    np.testing.assert_allclose(res.fisher, [[4.0]], rtol=1e-8)
    assert res.standard_errors(100)[0] == pytest.approx(0.05, rel=1e-8)


def test_fit_self_consistent_half_gaussian():
    st = stats_from_moments([1.0 / SQRT_PI, 0.5])
    res = fit_mle(st)
    assert res.converged
    np.testing.assert_allclose(
        res.theta_hat.coeffs, [0.0, -1.0], atol=5e-9
    )
    assert res.grad_norm < 1e-8


def test_fit_recovers_sampled_cubic():
    truth = ThetaUni((-1.0, 3.0, -2.0))
    x = sample_uni(truth, 4000, seed=42)
    res = fit_mle(suff_stats(x, 3))
    assert res.converged
    se = res.standard_errors(4000)
    for k in range(3):
        err = abs(res.theta_hat.coeffs[k] - truth.coeffs[k])
        assert err < 4 * se[k], (k, err, se[k])


def test_fit_reports_boundary():
    # overdispersed data: second moment too large for any interior quadratic
    x = np.array([0.05, 0.2, 2.75])
    res = fit_mle(suff_stats(x, 2))
    assert res.hit_boundary
    assert not res.converged


def test_fit_realline_gaussian_closed_form():
    # normal with mean m and variance s^2: theta = (m/s^2, -1/(2 s^2))
    m, s2 = 0.7, 1.3
    st = stats_from_moments([m, s2 + m * m], support=Support.REAL_LINE)
    res = fit_mle(st)
    assert res.converged
    np.testing.assert_allclose(
        res.theta_hat.coeffs, [m / s2, -1.0 / (2 * s2)], rtol=1e-8
    )


def test_fit_bivariate_self_consistent():
    truth = ThetaBi(2, {(2, 0): -1.0, (1, 1): -0.8, (0, 2): -1.3, (1, 0): 0.4})
    tab = extend_table(table_from_oracle(truth), 2)
    A = tab.norm_const
    monos = [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    st = SuffStats(
        n=500,
        order=2,
        support=None,
        moments_bi={ij: tab.entry(*ij) / A for ij in monos},
    )
    res = fit_mle(st, d=2)
    assert res.converged
    np.testing.assert_allclose(
        res.theta_hat.as_vector(), truth.as_vector(), atol=1e-7
    )


def test_mle_existence_triple():
    null = ThetaUni((-1.0, 0.0))
    assert mle_existence_check(null, stats_from_moments([1.0, 1.5]))
    assert not mle_existence_check(null, stats_from_moments([1.0, 2.0]))
    assert not mle_existence_check(null, stats_from_moments([1.0, 2.5]))


def test_score_test_zero_statistic():
    # moments exactly at the exponential model: score for theta_2 is 0
    res = score_test_halfline(stats_from_moments([1.0, 2.0]), 2)
    assert res.statistic == pytest.approx(0.0, abs=1e-8)
    assert res.null is NullKind.STD_NORMAL_LOWER_TAIL
    assert res.threshold == pytest.approx(-Z_05, rel=1e-12)
    assert not res.reject
    assert res.effective_order == 1
    np.testing.assert_allclose(res.theta_hat_null, [-1.0, 0.0], atol=1e-9)


def test_score_test_rejects_light_tail():
    # second moment far below exponential: strong evidence for order 2
    res = score_test_halfline(stats_from_moments([1.0, 1.2], n=400), 2)
    assert res.statistic < -Z_05
    assert res.reject


def test_score_test_coherent_with_existence():
    for m2 in (1.3, 1.8, 2.0, 2.4):
        st = stats_from_moments([1.0, m2], n=200)
        res = score_test_halfline(st, 2)
        exists = mle_existence_check(ThetaUni((-1.0, 0.0)), st)
        # rejection implies a negative score, which implies existence
        if res.reject:
            assert exists
        assert (res.statistic < 0) == exists or res.statistic == 0


def test_score_test_realline_zero_at_gaussian():
    st = stats_from_moments(
        [0.0, 0.5, 0.0, 0.75], support=Support.REAL_LINE
    )
    res = score_test_realline(st, 4)
    assert res.statistic == pytest.approx(0.0, abs=1e-8)
    assert res.null is NullKind.CHI_SQ_2_UPPER_TAIL
    assert res.threshold == pytest.approx(CHI2_2_05, rel=1e-12)
    assert not res.reject
    assert res.effective_order == 2


def test_score_test_realline_grows_with_perturbation():
    last = 0.0
    for delta in (0.02, 0.05, 0.1):
        st = stats_from_moments(
            [0.0, 0.5, 0.0, 0.75 + delta], support=Support.REAL_LINE
        )
        res = score_test_realline(st, 4)
        assert res.statistic > last
        last = res.statistic


def test_score_test_validation():
    st = stats_from_moments([1.0, 2.0])
    with pytest.raises(UnsupportedOrder):
        score_test_halfline(st, 1)
    rl = stats_from_moments([0.0, 0.5, 0.0, 0.75], support=Support.REAL_LINE)
    with pytest.raises(UnsupportedOrder):
        score_test_realline(rl, 3)
    from exppoly.errors import InputError

    with pytest.raises(InputError):
        score_test_halfline(st, 2, alpha=0.7)


def test_score_test_refuses_unconverged_null_fit():
    # the order-4 null fit on this sample stops after one Fisher step in the
    # interior; the score there gave T = -69.3 before the fit was checked
    x = sample_uni(
        ThetaUni((-1.0, 3.0, -2.0)),
        1000,
        np.random.SeedSequence(entropy=6, spawn_key=(202,)),
    )
    st = suff_stats(x, 5)
    fit = fit_mle(st, 4)
    assert not fit.converged and not fit.hit_boundary
    with pytest.raises(NotConverged):
        score_test_halfline(st, 5)
    with pytest.raises(NotConverged):
        select_order(st, 5)


def test_select_order_exponential_data():
    x = sample_uni(ThetaUni((-1.0,)), 800, seed=9)
    chosen, trail = select_order(x, 4)
    assert chosen == 1
    assert len(trail) == 1
    assert not trail[0].reject


def test_select_order_cubic_data():
    x = sample_uni(ThetaUni((-1.0, 3.0, -2.0)), 1500, seed=10)
    chosen, trail = select_order(x, 5)
    assert chosen == 3
    assert [t.reject for t in trail[:2]] == [True, True]
    assert not trail[2].reject


def test_select_order_degenerate_dmax():
    chosen, trail = select_order(np.array([0.5, 1.0, 2.0]), 1)
    assert chosen == 1
    assert trail == []


def test_select_order_validation():
    with pytest.raises(UnsupportedOrder):
        select_order(np.array([0.5, 1.0]), 0)
    with pytest.raises(UnsupportedOrder):
        select_order(np.array([0.5, -1.0]), 3, support=Support.REAL_LINE)
