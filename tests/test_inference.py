"""Likelihood, Fisher information, MLE fitting, and score tests."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from exppoly import inference
from exppoly.domain import Support, SuffStats, ThetaBi, ThetaUni, monomials_bi, suff_stats
from exppoly.errors import (
    InconsistentExtension,
    InputError,
    NotConverged,
    OdeDivergence,
    PathCrossesSingularity,
    SingularInformation,
    ToleranceNotMet,
    UnsupportedOrder,
)
from exppoly.holo_bi import extend_table
from exppoly.holo_uni import derivative_bounds, extend_derivatives
from exppoly.inference import (
    BiHoloProvider,
    UniHoloProvider,
    fisher_info,
    fit_mle,
    loglik_and_grad,
    mle_existence_check,
    score_test_halfline,
    score_test_realline,
    select_order,
)
from exppoly.inference import TestNull as NullKind
from exppoly.oracle import quad_A_bi, quad_moment_uni, sample_uni
from exppoly.verify import random_theta_bi_proper, random_theta_uni

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


# The Fisher formulas the likelihood kernel replaced, kept as its references.


def _uni_moments(derivs):
    """Model moments E[X^m] = (d^m A / d theta_1^m) / A."""
    return derivs / derivs[0]


def _fisher_from_moments(mom, d):
    out = np.empty((d, d))
    for l in range(1, d + 1):
        for m in range(l, d + 1):
            out[l - 1, m - 1] = out[m - 1, l - 1] = mom[l + m] - mom[l] * mom[m]
    return out


def _fisher_bi_reference(table):
    A = table.norm_const
    monos = monomials_bi(table.d)
    p = len(monos)
    out = np.empty((p, p))
    for a, (i, j) in enumerate(monos):
        for b, (l, m) in enumerate(monos):
            if b < a:
                continue
            out[a, b] = out[b, a] = (
                table.entry(i + l, j + m) / A
                - (table.entry(i, j) / A) * (table.entry(l, m) / A)
            )
    return out


def _fisher_bound_reference(state, d):
    derivs = extend_derivatives(state, 2 * d)
    mom = np.abs(_uni_moments(derivs))
    bounds = derivative_bounds(state, 2 * d)
    dmom = (bounds + mom * bounds[0]) / derivs[0]
    # entry (l, m) is E[X^(l+m)] - E[X^l] E[X^m], l, m = 1..d
    low, dlow = mom[1 : d + 1], dmom[1 : d + 1]
    return dmom[np.add.outer(np.arange(1, d + 1), np.arange(1, d + 1))] + (
        np.outer(low, dlow) + np.outer(dlow, low)
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
    th = ThetaUni((-1.0, 3.0, -2.0))
    A = quad_moment_uni(th, 0)
    mom = np.array([quad_moment_uni(th, m) / A for m in range(7)])
    want = np.empty((3, 3))
    for a in range(3):
        for b in range(3):
            want[a, b] = mom[a + b + 2] - mom[a + 1] * mom[b + 1]
    np.testing.assert_allclose(fisher_info(th), want, rtol=1e-7)


@st.composite
def uni_theta(draw):
    """`random_theta_uni` at d = 1..6 on the half line, d = 2, 4, 6 on the whole line."""
    support = draw(st.sampled_from(list(Support)))
    d = draw(st.integers(1, 6) if support is Support.HALF_LINE else st.sampled_from([2, 4, 6]))
    return random_theta_uni(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), d, support)


@settings(max_examples=200)
@given(uni_theta())
def test_fisher_kernel_matches_references_uni(theta):
    provider = UniHoloProvider()
    try:
        info = fisher_info(theta, provider)
    except (ToleranceNotMet, OdeDivergence):
        assume(False)
    state, d = provider._state, theta.d
    derivs = extend_derivatives(state, 2 * d)
    np.testing.assert_array_equal(info, _fisher_from_moments(_uni_moments(derivs), d))
    bound = inference._fisher_bound(derivs, provider.derivative_bounds(2 * d), inference._positions(theta))
    np.testing.assert_array_equal(bound, _fisher_bound_reference(state, d))


@settings(max_examples=60)
@given(st.sampled_from([2, 3]), st.integers(0, 2**32 - 1))
def test_fisher_kernel_matches_reference_bi(d, seed):
    theta = random_theta_bi_proper(np.random.default_rng(seed), d)
    provider = BiHoloProvider()
    try:
        info = fisher_info(theta, provider)
    except (PathCrossesSingularity, OdeDivergence, ToleranceNotMet, InconsistentExtension):
        assume(False)
    table = extend_table(provider._table, 2 * d)
    np.testing.assert_array_equal(info, _fisher_bi_reference(table))
    assert provider.derivative_bounds(2 * d) is None


@pytest.mark.parametrize(
    "theta",
    [
        ThetaBi(2, {(1, 0): 0.4, (0, 1): -0.3, (2, 0): -1.0, (1, 1): -0.8, (0, 2): -1.3}),
        ThetaBi(
            3,
            {
                (1, 0): 0.3, (0, 1): -0.2, (2, 0): -0.5, (1, 1): 0.2, (0, 2): -0.4,
                (3, 0): -1.0, (2, 1): -0.5, (1, 2): -0.3, (0, 3): -1.2,
            },
        ),
    ],
    ids=["d2", "d3"],
)
def test_bivariate_likelihood_matches_quadrature(theta):
    d = theta.d
    monos = monomials_bi(d)
    A = quad_A_bi(theta)
    mom = {
        (i, j): quad_A_bi(theta, (i, j)) / A for i in range(2 * d + 1) for j in range(2 * d + 1 - i)
    }
    sample = {ij: 1.0 + 0.25 * k for k, ij in enumerate(monos)}
    stats = SuffStats(n=10, order=d, support=None, moments_bi=sample)
    lbar, score = loglik_and_grad(theta, stats)
    want = np.array([sample[ij] - mom[ij] for ij in monos])
    assert np.max(np.abs(score - want)) <= 1e-6 * np.max(np.abs(want))
    assert lbar == pytest.approx(sum(theta[ij] * sample[ij] for ij in monos) - math.log(A), rel=1e-8)
    want = np.array(
        [[mom[(i + l, j + m)] - mom[(i, j)] * mom[(l, m)] for (l, m) in monos] for (i, j) in monos]
    )
    assert np.max(np.abs(fisher_info(theta) - want)) <= 1e-6 * np.max(np.abs(want))


class CountingProvider:
    """Forwards to a provider and records each derivative request and refresh."""

    def __init__(self, inner):
        self.inner = inner
        self.requests = []
        self.refreshes = []

    def derivs(self, theta, M):
        self.requests.append((inference._theta_vector(theta).tolist(), M))
        return self.inner.derivs(theta, M)

    def refresh(self, theta):
        self.refreshes.append(len(self.requests))
        self.inner.refresh(theta)

    def derivative_bounds(self, M):
        return self.inner.derivative_bounds(M)


def _bivariate_sample_stats(n=1000, seed=5):
    x = sample_uni(ThetaUni((1.0, -1.0)), n, np.random.SeedSequence(entropy=seed, spawn_key=(0,)))
    y = sample_uni(ThetaUni((0.5, -2.0)), n, np.random.SeedSequence(entropy=seed, spawn_key=(1,)))
    return suff_stats(np.column_stack([x, y]), 2, "bivariate")


@pytest.mark.parametrize(
    "stats, provider",
    [
        (suff_stats(sample_uni(ThetaUni((-1.0, 3.0, -2.0)), 1000, seed=3), 3), UniHoloProvider),
        (_bivariate_sample_stats(), BiHoloProvider),
    ],
    ids=["univariate", "bivariate"],
)
def test_fit_makes_one_request_per_point(stats, provider):
    counting = CountingProvider(provider())
    res = fit_mle(stats, stats.order, provider=counting)
    assert res.converged and res.iterations >= 2
    d = res.theta_hat.d
    assert [M for _, M in counting.requests] == [2 * d] * len(counting.requests)
    # the start, at least one candidate per iteration, and the refreshed estimate
    assert len(counting.requests) >= res.iterations + 2
    assert counting.refreshes == [len(counting.requests) - 1]
    points = [tuple(v) for v, _ in counting.requests]
    assert len(set(points[:-1])) == len(points) - 1
    theta_hat = inference._theta_vector(res.theta_hat)
    assert points[-1] == tuple(theta_hat.tolist()) == points[-2]
    plain = fit_mle(stats, stats.order)
    np.testing.assert_array_equal(theta_hat, inference._theta_vector(plain.theta_hat))
    np.testing.assert_array_equal(res.fisher, plain.fisher)


def test_fit_exponential_closed_form():
    # the score-matching start is the exact MLE, so the fit runs 0 iterations
    st = stats_from_moments([2.0])
    assert inference._score_matching_start(st, 1, Support.HALF_LINE).coeffs == (-0.5,)
    res = fit_mle(st)
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
    # near theta_2 = 0 the recursion divides the transport error by
    # 2*theta_2 at each order: the Fisher matrix's E[X^4] is not determined
    assert np.linalg.norm(res.fisher_bound, 2) > np.linalg.eigvalsh(res.fisher)[0]
    with pytest.raises(SingularInformation):
        res.standard_errors(3)


def test_fisher_bound_small_in_the_interior():
    res = fit_mle(suff_stats(sample_uni(ThetaUni((-1.0, 3.0, -2.0)), 1000, seed=3), 3))
    assert res.converged
    assert np.max(res.fisher_bound / np.abs(res.fisher)) < 1e-8


def test_fit_realline_gaussian_closed_form():
    # normal with mean m and variance s^2: theta = (m/s^2, -1/(2 s^2))
    m, s2 = 0.7, 1.3
    st = stats_from_moments([m, s2 + m * m], support=Support.REAL_LINE)
    start = inference._score_matching_start(st, 2, Support.REAL_LINE)
    np.testing.assert_allclose(start.coeffs, [m / s2, -1.0 / (2 * s2)], rtol=1e-12)
    res = fit_mle(st)
    assert res.converged and res.iterations == 0
    assert res.theta_hat == start


def test_fit_bivariate_self_consistent(oracle_table):
    truth = ThetaBi(2, {(2, 0): -1.0, (1, 1): -0.8, (0, 2): -1.3, (1, 0): 0.4})
    tab = extend_table(oracle_table(truth), 2)
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


@pytest.fixture(scope="module")
def support_stats():
    """Whole-line statistics of a whole-line quartic sample, and half-line
    statistics of its absolute values."""
    x = sample_uni(ThetaUni((1.0, 4.0, -2.0, -3.0), Support.REAL_LINE), 400, seed=3)
    return suff_stats(x, 6, Support.REAL_LINE), suff_stats(np.abs(x), 6)


@pytest.mark.parametrize(
    "case",
    [
        "loglik_and_grad",
        "mle_existence_check",
        "score_test_halfline",
        "select_order_keyword",
        "select_order_default",
    ],
)
def test_support_has_one_owner(support_stats, case):
    # the parameter or the statistics own the support: a conflict between
    # them is an input error, and select_order reads given statistics' own
    real, half = support_stats
    if case == "select_order_default":
        assert select_order(real, 6) == select_order(real, 6, support=Support.REAL_LINE)
        return
    calls = {
        "loglik_and_grad": lambda: loglik_and_grad(ThetaUni((1.0, 4.0, -2.0, -3.0)), real),
        "mle_existence_check": lambda: mle_existence_check(
            ThetaUni((1.0, -1.0), Support.REAL_LINE), half
        ),
        "score_test_halfline": lambda: score_test_halfline(real, 4),
        "select_order_keyword": lambda: select_order(real, 6, support=Support.HALF_LINE),
    }
    with pytest.raises(InputError, match="statistics") as info:
        calls[case]()
    assert type(info.value) is InputError


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


@pytest.mark.parametrize("alpha", [0.05, 0.3, 1e-10])
def test_score_test_thresholds_match_scipy_quantiles(alpha):
    from scipy import stats as sps

    half = score_test_halfline(stats_from_moments([1.0, 2.0]), 2, alpha=alpha)
    assert half.threshold == pytest.approx(-sps.norm.isf(alpha), rel=1e-15, abs=0.0)
    st = stats_from_moments([0.0, 0.5, 0.0, 0.75], support=Support.REAL_LINE)
    real = score_test_realline(st, 4, alpha=alpha)
    assert real.threshold == pytest.approx(sps.chi2.isf(alpha, 2), rel=1e-15, abs=0.0)


def test_score_test_validation():
    st = stats_from_moments([1.0, 2.0])
    with pytest.raises(UnsupportedOrder):
        score_test_halfline(st, 1)
    rl = stats_from_moments([0.0, 0.5, 0.0, 0.75], support=Support.REAL_LINE)
    with pytest.raises(UnsupportedOrder):
        score_test_realline(rl, 3)
    with pytest.raises(InputError):
        score_test_halfline(st, 2, alpha=0.7)


def test_score_test_refuses_unconverged_null_fit(monkeypatch):
    # calibration sample on which the order-4 fit once stopped after one
    # iteration: its full Fisher step landed on an ill-conditioned point
    # whose transported state was kept and poisoned every shorter step.  With
    # Dormand-Prince transport the fit then stalled after 11 iterations at
    # loglik -0.4443, where transport_condition is 1e9; the interior MLE lies
    # elsewhere, and its score vanishes by quadrature.
    x = sample_uni(
        ThetaUni((-1.0, 3.0, -2.0)),
        1000,
        np.random.SeedSequence(entropy=6, spawn_key=(202,)),
    )
    st = suff_stats(x, 5)
    fit = fit_mle(st, 4)
    assert fit.converged and not fit.hit_boundary
    assert fit.loglik_bar == pytest.approx(-0.43745, abs=1e-5)  # start: -0.4579
    A = quad_moment_uni(fit.theta_hat)
    score = [st.moment(m) - quad_moment_uni(fit.theta_hat, m) / A for m in range(1, 5)]
    assert max(map(abs, score)) < 1e-8
    # a null fit cut short in the interior is still refused
    monkeypatch.setattr(inference, "_MAX_ITER", 1)
    with pytest.raises(NotConverged):
        score_test_halfline(st, 5)
    with pytest.raises(NotConverged):
        select_order(st, 5)


# Order-6 parameters from `random_theta_uni` (seed 20260816, draws 11, 122,
# 131, 380, 527, 938, 1025, 1124, 1163 of d = 4 + i % 3) that `state_at`
# refuses.  The incremental provider used to answer five of them with A off
# by 0.49 up to 2.4e42 and the other four with OdeDivergence.
REFUSED_SEXTICS = [
    (-1.3365499458177332, 1.5634131065465269, 1.1145324638558542, 1.5615115509210087, -1.3026483805368931, -0.6700352299157893),
    (0.5568827215324768, 0.883941482631522, -0.4866351845249577, 1.910756716312909, -0.8288831905887228, -0.4201947981714352),
    (1.3767226329824607, 0.2481395081274873, 0.7114071867808347, 1.5512473160970721, -1.8034333731605199, -0.6127280271215927),
    (1.3729839356884521, 1.5860526361821297, -0.5108770569227357, 0.4909452601229054, -1.3035628847008276, -0.5242791722733577),
    (0.45861162104083064, -0.8328574780454323, -1.6007102430750768, 0.5562154076194297, -1.973819989917879, -0.6871101837321816),
    (1.5760134838343278, 1.918056020079506, -0.710742275251369, 1.2364507336588662, -1.8920177643207428, -0.8881086977497583),
    (0.7517492571823214, 1.9818098200837064, -1.7802192557628302, 1.9600447099190759, -1.478222272370577, -0.62741869967351),
    (1.8742420951596617, -0.2867913887499287, 0.7365679655465045, 1.79729643062347, -1.3284946542304157, -0.4930649573490289),
    (0.9048100229075207, -0.04420534828782552, 0.21702441849500165, 1.9403425137862662, -1.232578061768165, -0.5461928688656992),
]


@pytest.mark.parametrize("coeffs", REFUSED_SEXTICS)
def test_provider_refuses_ill_conditioned_points(coeffs):
    theta = ThetaUni(coeffs)
    st = stats_from_moments([1.0] * 6)
    with pytest.raises(ToleranceNotMet):
        UniHoloProvider().derivs(theta, 6)
    with pytest.raises(ToleranceNotMet):
        loglik_and_grad(theta, st)
    with pytest.raises(ToleranceNotMet):
        fisher_info(theta)


def test_provider_keeps_last_good_state_after_refusal():
    provider = UniHoloProvider()
    good = ThetaUni((-0.5, 1.0, 0.5, 1.0, -1.0, -0.5))
    before = provider.derivs(good, 6)
    with pytest.raises(ToleranceNotMet):
        provider.derivs(ThetaUni(REFUSED_SEXTICS[0]), 6)
    np.testing.assert_array_equal(provider.derivs(good, 6), before)


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


# The score-matching start of univariate fits.


def _scaled_stats(stats, k):
    """The statistics of the sample x * 2^k, exactly."""
    moments = tuple(math.ldexp(m, k * j) for j, m in enumerate(stats.moments, 1))
    return SuffStats(n=stats.n, order=stats.order, support=stats.support, moments=moments)


def _start_samples():
    half = sample_uni(ThetaUni((-1.0, 3.0, -2.0)), 1000, seed=1)
    whole = sample_uni(ThetaUni((1.0, 4.0, -2.0, -3.0), Support.REAL_LINE), 1000, seed=1)
    return {
        Support.HALF_LINE: (suff_stats(half, 7), (1, 2, 3, 4)),
        Support.REAL_LINE: (suff_stats(whole, 6, Support.REAL_LINE), (2, 4)),
    }


START_SAMPLES = _start_samples()


@settings(max_examples=80)
@given(
    st.sampled_from([(s, d) for s, (_, ds) in START_SAMPLES.items() for d in ds]),
    st.integers(-30, 30),
)
def test_start_is_scale_equivariant(case, k):
    support, d = case
    stats = START_SAMPLES[support][0]
    start = inference._score_matching_start(stats, d, support)
    assert start is not None
    scaled = inference._score_matching_start(_scaled_stats(stats, k), d, support)
    assert scaled.coeffs == tuple(math.ldexp(c, -k * j) for j, c in enumerate(start.coeffs, 1))


# x = sample_uni((-1, 3, -2), 1000, seed=1) through order 4, and the fits
# of the gamma-point start: iterations, theta_hat and log-likelihood, as
# recorded when fits began to keep their carried state to the end (each
# theta_hat within 1e-12 standard errors of a `QuadProvider` fit)
SEED1_MOMENTS = (0.7039776483106283, 0.6650345442853872, 0.7220306276637006, 0.8553622434422008)
GAMMA_START_FITS = {
    3: (5, ("-0x1.35fc91f19ad0dp-1", "0x1.30b50629c34f2p+1", "-0x1.ba04909dc475bp+0"), "-0x1.cb3c7d68dc79dp-2"),
    4: (
        5,
        ("0x1.ff9454d1f92c8p-1", "-0x1.d980bcb6dd322p+0", "0x1.1355137db17b3p+1", "-0x1.24006fd76e26dp+0"),
        "-0x1.c9ec117820ae1p-2",
    ),
}


@pytest.mark.parametrize("d", [3, 4])
def test_too_few_moments_keep_the_gamma_start(d):
    # order-3 and order-4 starts read moments through 5 and 7
    stats = SuffStats(n=1000, order=4, support=Support.HALF_LINE, moments=SEED1_MOMENTS)
    assert inference._score_matching_start(stats, d, Support.HALF_LINE) is None
    res = fit_mle(stats, d)
    iterations, theta_hat, loglik = GAMMA_START_FITS[d]
    assert res.converged and not res.hit_boundary
    assert res.iterations == iterations
    assert tuple(c.hex() for c in res.theta_hat.coeffs) == theta_hat
    assert res.loglik_bar.hex() == loglik


def test_refused_start_falls_back_to_the_gamma_start():
    x = sample_uni(ThetaUni((-1.0, 3.0, -2.0)), 1000, seed=2)
    stats = suff_stats(x, 7)
    start = inference._score_matching_start(stats, 4, Support.HALF_LINE)
    assert start is not None
    with pytest.raises(ToleranceNotMet):
        UniHoloProvider().derivs(start, 8)
    res = fit_mle(stats, 4)
    assert res.converged and not res.hit_boundary
    gamma = fit_mle(suff_stats(x, 4), 4)
    assert res.theta_hat == gamma.theta_hat and res.iterations == gamma.iterations


def test_carried_path_fit_converges_at_the_gamma_start_fit():
    # the score-matching start's first move is long and carried; its
    # estimate must cover the start's error for the fit to find the MLE
    x = sample_uni(ThetaUni((-0.3842548678369031, -0.3509459826453436, -1.6432570036522782)), 1000, seed=124)
    res = fit_mle(suff_stats(x, 5), 3)
    gamma = fit_mle(suff_stats(x, 3), 3)
    assert res.converged and gamma.converged
    se = gamma.standard_errors(x.size)
    assert np.all(np.abs(res.theta_hat.as_array() - gamma.theta_hat.as_array()) <= 1e-4 * se)


class QuadProvider:
    """Answers every request by quadrature: A and its moments 1..M."""

    def derivs(self, theta, M):
        return np.array([quad_moment_uni(theta, m) for m in range(M + 1)])

    def refresh(self, theta):
        pass

    def derivative_bounds(self, M):
        return None


def test_seed_7_quartic_fit_converges_at_the_quadrature_fit():
    # transport refuses most points on the gamma start's path to this MLE
    x = sample_uni(ThetaUni((-1.0, 3.0, -2.0)), 1000, seed=7)
    stats = suff_stats(x, 7)
    res = fit_mle(stats, 4)
    assert res.converged and not res.hit_boundary
    quad = fit_mle(stats, 4, provider=QuadProvider())
    assert quad.converged
    # the Fisher matrix's smallest eigenvalue is about 6e-5, so scores within
    # grad_tol leave each estimate a few 1e-6 from the exact MLE
    se = res.standard_errors(stats.n)
    assert np.all(np.abs(res.theta_hat.as_array() - quad.theta_hat.as_array()) <= 1e-5 * se)
    np.testing.assert_allclose(res.theta_hat.coeffs, [-0.835, 2.087, -0.881, -0.407], atol=5e-4)


@pytest.mark.parametrize("seed", [3, 8])
def test_quartic_fit_whose_moves_overflow_returns_a_result(seed):
    # candidates on these fits' paths reach Taylor sums that overflow; the
    # refusal is typed, so the line search halves and the fit returns
    x = sample_uni(ThetaUni((-1.0, 3.0, -2.0)), 1000, seed=seed)
    res = fit_mle(suff_stats(x, 7), 4)
    assert res.iterations > 0 and np.all(np.isfinite(res.theta_hat.as_array()))


def test_refresh_skips_closed_form_states():
    provider = UniHoloProvider()
    for theta in (ThetaUni((0.5, -1.0)), ThetaUni((0.0, 0.0, -2.0))):
        derivs = provider.derivs(theta, 4)
        state = provider._state
        provider.refresh(theta)
        assert provider._state is state
        np.testing.assert_array_equal(provider.derivs(theta, 4), derivs)
