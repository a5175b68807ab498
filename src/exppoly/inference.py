"""Likelihood inference: MLE, Fisher information, and model-order score tests.

The per-observation log-likelihood of an exponential-polynomial sample is
linear in the sufficient statistics minus log A(theta), so the score is
(sample moments) - (model moments) and the Fisher information is the moment
covariance.  One kernel, `_likelihood`, gives all three for either engine
from one provider request: the derivatives through total order 2d.  Fitting
is Fisher scoring with step halving against the domain boundary.  Order
selection tests H0: order k against order k+1 (half line) with a one-sided
normal score statistic; on the whole line orders move in steps of two and
the statistic is a chi-square quadratic form in the two extra scores.  Both
standardize by the Schur complement of the extra scores' block in the
reduced model's Fisher matrix.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence, Union

import numpy as np

from . import holo_bi, holo_uni
from .domain import (
    _MAX_MOMENT_ORDER,
    Membership,
    SuffStats,
    Support,
    ThetaBi,
    ThetaUni,
    as_support,
    classify_theta_uni,
    effective_theta,
    in_proper_bivariate_space,
    monomials_bi,
    suff_stats,
)
from .errors import (
    InconsistentExtension,
    InputError,
    NotConverged,
    OdeDivergence,
    PathCrossesSingularity,
    SingularInformation,
    ToleranceNotMet,
    UnsupportedOrder,
)
from .holo_bi import DerivTableBi, _flat, extend_table
from .holo_uni import HoloStateUni, extend_derivatives, norm_const_and_derivs

# Transport goes through `holo_uni.state_at` and `holo_bi.table_at` alone;
# these bindings are kept only because bench/tracing.py wraps
# `inference.transport` and `inference.transport_bi` by name.
from .holo_bi import transport_bi  # noqa: F401
from .holo_uni import transport  # noqa: F401

Theta = Union[ThetaUni, ThetaBi]

# A Fisher-scoring step is halved down to this factor at most; a step that
# no factor down to it makes acceptable ends the fit.
_MIN_STEP_FACTOR = 2.0**-40
# A fit converges when the score's max-norm is at most this, and stops
# unconverged after this many Fisher-scoring steps.
_GRAD_TOL = 1e-8
_MAX_ITER = 200
# What the engine raises where it refuses a point: a line search halves its
# step there, as at the domain boundary.
_REFUSALS = (PathCrossesSingularity, OdeDivergence, ToleranceNotMet, InconsistentExtension)


class UniHoloProvider:
    """Derivative vectors at successive parameters, by incremental transport.

    Each request moves the last committed state to the new parameter through
    `holo_uni.state_at`, so optimizer iterates pay only for the short segment
    from the previous point and follow the same retry and refusal policy as a
    direct evaluation.  A refused move raises `ToleranceNotMet` and leaves the
    last good state committed; a request at the committed parameter costs no
    transport.  Each move carries the committed state's error through its
    Jacobian into the new estimate, and `state_at` redoes from the gamma
    point a move whose carried error outweighs a fresh transport's, so the
    committed state's estimate bounds its error whatever path led there.
    """

    def __init__(self):
        self._state: Optional[HoloStateUni] = None

    def derivs(self, theta: ThetaUni, M: int) -> np.ndarray:
        """d^m A / d theta_1^m at theta for m = 0..M; entry 0 is A."""
        self._state = holo_uni.state_at(theta, start=self._state)
        return extend_derivatives(self._state, M)

    def derivative_bounds(self, M: int) -> np.ndarray:
        """Absolute error bounds of `derivs` through order M at the committed state."""
        return holo_uni.derivative_bounds(self._state, M)


class BiHoloProvider:
    """Bivariate analogue of UniHoloProvider: each request moves the last
    committed derivative table to the new parameter through `holo_bi.table_at`.

    As in the univariate provider, each move carries the committed table's
    error through its Jacobian into the new estimate, and `table_at` redoes
    from the product point a move whose carried error outweighs a fresh
    transport's (keeping the carried table where the product point's path
    is refused), so the committed table's estimate covers its path.
    """

    def __init__(self):
        self._table: Optional[DerivTableBi] = None

    def derivs(self, theta: ThetaBi, M: int) -> np.ndarray:
        """The table's `F` at theta, through total order M at least: entry
        `holo_bi._flat(i, j)` is d^(i+j) A / d theta_10^i d theta_01^j."""
        self._table = holo_bi.table_at(theta, start=self._table)
        return extend_table(self._table, M).F

    def derivative_bounds(self, M: int) -> None:
        """None: the bivariate extension carries no error bound yet."""
        return None


def _provider_for(theta: Theta):
    return (BiHoloProvider if isinstance(theta, ThetaBi) else UniHoloProvider)()


@dataclass(frozen=True)
class FitResult:
    theta_hat: Theta
    loglik_bar: float
    grad_norm: float
    fisher: np.ndarray
    iterations: int
    converged: bool
    hit_boundary: bool
    # entrywise error bound of `fisher`, where the engine provides one
    fisher_bound: Optional[np.ndarray] = None

    def standard_errors(self, n: int) -> np.ndarray:
        """Asymptotic standard errors diag(I^-1 / n)^(1/2).

        Raises `SingularInformation` when the Fisher matrix is not positive
        definite, where the asymptotic variances do not exist, and when its
        error bound reaches its smallest eigenvalue, so that a singular
        matrix is as consistent with the engine's moments as the computed one.
        """
        try:
            factor = np.linalg.cholesky(self.fisher)
        except np.linalg.LinAlgError:
            factor = None
        if factor is None or not np.all(np.isfinite(factor)):
            raise SingularInformation(
                "Fisher information at the estimate is not positive definite; "
                "standard errors are undefined"
            )
        if not _determined(self.fisher, self.fisher_bound):
            raise SingularInformation(
                "Fisher information at the estimate is not determined to working "
                "accuracy (its error bound reaches its smallest eigenvalue); "
                "standard errors are undefined"
            )
        inv = np.linalg.inv(self.fisher)
        return np.sqrt(np.diag(inv) / n)


def _determined(fisher: np.ndarray, bound: Optional[np.ndarray]) -> bool:
    """Whether the error bound of a Fisher matrix stays below its smallest
    eigenvalue (true when there is no bound)."""
    return bound is None or np.linalg.norm(bound, 2) < np.linalg.eigvalsh(fisher)[0]


class TestNull(Enum):
    STD_NORMAL_LOWER_TAIL = "std_normal_lower_tail"
    CHI_SQ_2_UPPER_TAIL = "chi_sq_2_upper_tail"


@dataclass(frozen=True)
class TestResult:
    statistic: float
    null: TestNull
    alpha: float
    reject: bool
    theta_hat_null: tuple[float, ...]
    threshold: float
    effective_order: int


def _positions(theta: Theta) -> tuple[np.ndarray, np.ndarray]:
    """Where a provider's answer holds the statistics' derivatives and their
    pairwise products': entries m and l + m (l, m = 1..d) of the univariate
    vector, or the `holo_bi._flat` positions of the exponents bivariate."""
    if isinstance(theta, ThetaBi):
        i, j = np.array(monomials_bi(theta.d)).T
        return _flat(i, j), _flat(np.add.outer(i, i), np.add.outer(j, j))
    m = np.arange(1, theta.d + 1)
    return m, np.add.outer(m, m)


def _sample_moments(stats: SuffStats, theta: Theta) -> list[float]:
    """Sample means of theta's sufficient statistics, in coordinate order."""
    if isinstance(theta, ThetaBi):
        return [stats.moment_bi(i, j) for i, j in monomials_bi(theta.d)]
    return [stats.moment(m) for m in range(1, theta.d + 1)]


def _likelihood(
    theta: Theta, sample: Sequence[float], derivs: np.ndarray, pos: tuple[np.ndarray, ...]
) -> tuple[float, np.ndarray, np.ndarray]:
    """Per-observation log-likelihood, score and Fisher matrix at theta.

    `derivs` is a provider's answer through total order 2d, so
    mom = derivs / A holds the model moments; `pos` is `_positions(theta)`
    and `sample` the statistics' sample means.  The score is
    sample - mom[low] and the Fisher matrix the moment covariance
    mom[pairs] - mom[low] mom[low]^T, for (low, pairs) = pos.
    """
    A = float(derivs[0])
    # near-boundary transports can lose all accuracy and report A <= 0
    if not (math.isfinite(A) and A > 0.0):
        raise OdeDivergence(f"transport produced invalid normalizing constant {A!r}")
    mom = derivs / A
    low = mom[pos[0]]
    # theta . sample as a left-to-right float sum; np.dot may add in another order
    lbar = sum(t * s for t, s in zip(_theta_vector(theta).tolist(), sample)) - math.log(A)
    return lbar, np.array(sample) - low, mom[pos[1]] - low[:, None] * low


def _fisher_bound(derivs: np.ndarray, bounds: np.ndarray, pos: tuple[np.ndarray, ...]) -> np.ndarray:
    """Entrywise error bound of `_likelihood`'s Fisher matrix, given absolute
    error bounds of `derivs`."""
    A = derivs[0]
    mom = np.abs(derivs / A)
    dmom = (bounds + mom * bounds[0]) / A
    low, dlow = mom[pos[0]], dmom[pos[0]]
    return dmom[pos[1]] + (low[:, None] * dlow + dlow[:, None] * low)


def _same_support(theta: Theta, stats: SuffStats) -> None:
    """Raise `InputError` unless theta fits the statistics: a `ThetaBi`
    bivariate ones, a `ThetaUni` univariate ones of its own support."""
    kind = "bivariate" if isinstance(theta, ThetaBi) else theta.support.value
    found = getattr(stats.support, "value", "bivariate")
    if kind != found:
        raise InputError(f"a {kind} parameter does not fit {found} statistics")


def loglik_and_grad(theta: Theta, stats: SuffStats, provider=None) -> tuple[float, np.ndarray]:
    """Per-observation log-likelihood and score at theta.

    The score in coordinate m (univariate) is sample moment m minus the model
    moment of the same order; bivariate coordinates follow the canonical
    monomial order of the parameter.  Theta must fit the statistics (a
    bivariate theta bivariate ones, a univariate one univariate ones of its
    support), else `InputError`.
    """
    _same_support(theta, stats)
    provider = provider if provider is not None else _provider_for(theta)
    derivs = provider.derivs(theta, 2 * theta.d)
    return _likelihood(theta, _sample_moments(stats, theta), derivs, _positions(theta))[:2]


def fisher_info(theta: Theta, provider=None) -> np.ndarray:
    """Fisher information: the moment covariance matrix of the model.

    Entry (l, m) is E[X^(l+m)] - E[X^l] E[X^m] (univariate; with the obvious
    table analogue bivariate), from engine derivatives of total order <= 2d.
    """
    provider = provider if provider is not None else _provider_for(theta)
    pos = _positions(theta)
    # the Fisher matrix does not depend on the sample
    return _likelihood(theta, [0.0] * len(pos[0]), provider.derivs(theta, 2 * theta.d), pos)[2]


def _mom_start_uni(stats: SuffStats, d: int, support: Support) -> ThetaUni:
    """Method-of-moments start: only the leading coefficient, matched so the
    model's top moment equals the sample's (E[X^d] = 1/(d c) at that point)."""
    coeffs = [0.0] * d
    coeffs[-1] = -1.0 / (d * stats.moment(d))
    return ThetaUni(coeffs, support)


def _start_moment_order(d: int, support: Support) -> int:
    """Highest sample moment the score-matching start of an order-d fit
    reads: 2d-1 on the half line, 2d-2 on the whole line."""
    return 2 * d - 1 if support is Support.HALF_LINE else 2 * d - 2


def _stats_order(d: int, support: Support) -> int:
    """Order of the statistics of a raw sample that an order-d univariate fit
    reads: d for the likelihood, and the score-matching start's top moment
    where `suff_stats` goes that far."""
    return max(d, min(_start_moment_order(d, support), _MAX_MOMENT_ORDER))


def _score_matching_start(stats: SuffStats, d: int, support: Support) -> Optional[ThetaUni]:
    """Score-matching estimate of an order-d univariate theta, or None.

    Score matching needs no normalizing constant (Hyvarinen 2005; 2007 for
    non-negative data): with psi = d/dx log p = sum_k k theta_k x^(k-1) and
    weight h(x) = x on the half line, h = 1 on the whole line, the sample
    objective mean(h psi^2 / 2 + (h psi)') is the quadratic
    theta' G theta / 2 + b' theta.  On the half line G_kl = k l m_(k+l-1)
    and b_k = k^2 m_(k-1); on the whole line G_kl = k l m_(k+l-2) and
    b_k = k (k-1) m_(k-2), with m_0 = 1.  The system is solved in units
    x / 2^e, with the integer e that brings the top moment nearest 1, and
    theta is mapped back exactly, so the start is bit-equivariant under
    x -> 2^k x.  None when the statistics stop short of the top moment, or
    the solution is not finite or not interior.
    """
    top = _start_moment_order(d, support)
    if stats.order < top:
        return None
    m_top = stats.moment(top)
    if not (0.0 < m_top < math.inf):
        return None
    e = (2 * math.frexp(m_top)[1] - 1 + top) // (2 * top)
    mom = [1.0] + [math.ldexp(stats.moment(j), -e * j) for j in range(1, top + 1)]
    s = 1 if support is Support.HALF_LINE else 2
    ks = range(1, d + 1)
    gram = [[k * l * mom[k + l - s] for l in ks] for k in ks]
    rhs = [-k * (k + 1 - s) * mom[k - s] if k >= s else 0.0 for k in ks]
    try:
        scaled = np.linalg.solve(np.array(gram), np.array(rhs)).tolist()
        coeffs = [math.ldexp(t, -e * j) for j, t in enumerate(scaled, 1)]
    except (np.linalg.LinAlgError, OverflowError):
        return None
    if not all(map(math.isfinite, coeffs)):
        return None
    start = ThetaUni(coeffs, support)
    return start if _is_interior(start) else None


def _mom_start_bi(stats: SuffStats, d: int) -> ThetaBi:
    c1 = 1.0 / (d * stats.moment_bi(d, 0))
    c2 = 1.0 / (d * stats.moment_bi(0, d))
    return ThetaBi(d, {(d, 0): -c1, (0, d): -c2})


def _is_interior(theta: Theta) -> bool:
    if isinstance(theta, ThetaBi):
        return in_proper_bivariate_space(theta)
    return classify_theta_uni(theta).membership is Membership.INTERIOR


def _with_vector(theta: Theta, vec: np.ndarray) -> Theta:
    if isinstance(theta, ThetaBi):
        return ThetaBi.from_vector(theta.d, vec)
    return ThetaUni(vec.tolist(), theta.support)


def _theta_vector(theta: Theta) -> np.ndarray:
    if isinstance(theta, ThetaBi):
        return theta.as_vector()
    return theta.as_array()


def fit_mle(
    stats: SuffStats,
    d: int | None = None,
    provider=None,
) -> FitResult:
    """Maximum likelihood fit by Fisher scoring.

    A univariate fit starts at the score-matching estimate
    (`_score_matching_start`) when `stats` carries its moments, through
    order 2d-1 on the half line and 2d-2 on the whole line.  It starts at
    the gamma point whose d-th moment is the sample's when they are
    missing, when that estimate is not interior, or when the provider
    refuses it (`ToleranceNotMet`, `OdeDivergence`); a bivariate fit always
    starts at the product of the axis gamma points.  From there it
    iterates theta <- theta + I(theta)^-1 grad with step halving whenever the
    proposal leaves the domain or lowers the likelihood, until the score's
    max-norm is at most `_GRAD_TOL` (converged) or after `_MAX_ITER` steps
    (not converged).  Each evaluated point costs one order-2d provider
    request, whose Fisher matrix is the next step's when the point is
    accepted.  The result (derivatives, log-likelihood, score, Fisher
    matrix and its bound) is read from the last accepted request: either
    provider's committed state carries its path's error in its estimate,
    so nothing is transported again.  Only where the last request was
    elsewhere, after a line search that ended without acceptance, is the
    final iterate requested once more; where the engine refuses that
    request, the result keeps the accepted request's reading, without a
    Fisher bound.  Non-convergence and boundary
    outcomes are reported through the result flags rather than exceptions,
    so callers can inspect the partial fit.
    """
    if d is None:
        d = stats.order
    if d < 1 or d > stats.order:
        raise InputError(f"fit order {d} needs statistics of order >= {d}")
    if stats.is_bivariate:
        theta: Theta = _mom_start_bi(stats, d)
    else:
        support = stats.support
        if support is Support.REAL_LINE and d % 2 != 0:
            raise UnsupportedOrder("whole-line fits need an even order")
        theta = _mom_start_uni(stats, d, support)
    if provider is None:
        provider = _provider_for(theta)
    pos = _positions(theta)
    sample = _sample_moments(stats, theta)

    derivs = None
    start = None if stats.is_bivariate else _score_matching_start(stats, d, support)
    if start is not None:
        try:
            derivs = provider.derivs(start, 2 * d)
            lbar, grad, info = _likelihood(start, sample, derivs, pos)
            theta = start
        except (ToleranceNotMet, OdeDivergence):
            derivs = None  # the engine refuses the start; begin at the gamma point
    if derivs is None:
        derivs = provider.derivs(theta, 2 * d)
        lbar, grad, info = _likelihood(theta, sample, derivs, pos)
    current = True  # whether the provider's last request was theta
    hit_boundary = False
    converged = False
    iterations = 0
    for iterations in range(1, _MAX_ITER + 1):
        if float(np.max(np.abs(grad))) <= _GRAD_TOL:
            converged = True
            iterations -= 1
            break
        try:
            step = np.linalg.solve(info, grad)
        except np.linalg.LinAlgError as exc:
            raise SingularInformation(
                f"Fisher information is singular at {_theta_vector(theta)}"
            ) from exc
        vec = _theta_vector(theta)
        lam = 1.0
        boundary_limited = False
        accepted = False
        while lam >= _MIN_STEP_FACTOR:
            cand = _with_vector(theta, vec + lam * step)
            if not _is_interior(cand):
                boundary_limited = True
                lam *= 0.5
                continue
            current = False
            try:
                d_new = provider.derivs(cand, 2 * d)
                l_new, g_new, i_new = _likelihood(cand, sample, d_new, pos)
            except _REFUSALS:
                boundary_limited = True
                lam *= 0.5
                continue
            if math.isfinite(l_new) and l_new >= lbar - 1e-12 * max(1.0, abs(lbar)):
                theta, derivs, lbar, grad, info = cand, d_new, l_new, g_new, i_new
                accepted = current = True
                break
            lam *= 0.5
        if not accepted:
            hit_boundary = boundary_limited
            break
    else:
        iterations = _MAX_ITER

    if not current:
        try:
            answer = provider.derivs(theta, 2 * d)
            lbar, grad, info = _likelihood(theta, sample, answer, pos)
            derivs, current = answer, True
        except _REFUSALS:
            # the way back from the last candidate is refused: keep the
            # accepted request's reading, whose bound the provider lost
            pass
    bounds = provider.derivative_bounds(2 * d) if current else None
    fisher_bound = None if bounds is None else _fisher_bound(derivs, bounds, pos)
    grad_norm = float(np.max(np.abs(grad)))
    if not (converged or hit_boundary):
        # distinguish slow interior progress from an ascent pressing into the
        # boundary, where the supremum is not attained: the full scoring step
        # from the final iterate then leaves the domain.  A Fisher matrix that
        # is not positive definite means the same thing: the engine degenerates
        # only on the singular locus, which the iterate must be hugging.  So
        # does one that its error bound does not determine: the higher
        # moments lose their digits as theta_d -> 0.
        try:
            np.linalg.cholesky(info)
            newton = np.linalg.solve(info, grad)
            hit_boundary = not (
                _determined(info, fisher_bound)
                and _is_interior(_with_vector(theta, _theta_vector(theta) + newton))
            )
        except np.linalg.LinAlgError:
            hit_boundary = True
    return FitResult(
        theta_hat=theta,
        loglik_bar=lbar,
        grad_norm=grad_norm,
        fisher=info,
        iterations=iterations,
        converged=converged,
        hit_boundary=hit_boundary,
        fisher_bound=fisher_bound,
    )


def mle_existence_check(
    theta_hat_lower: ThetaUni | Sequence[float],
    stats: SuffStats,
) -> bool:
    """Whether the order-d MLE exists in the open domain.

    `theta_hat_lower` is the boundary MLE (order d-1 fit with a trailing
    zero).  The likelihood is strictly concave on every ray entering the
    domain from there, so an interior maximizer exists iff the remaining
    score component is negative: sample moment d < model moment d.  A raw
    coefficient sequence takes the statistics' support; a `ThetaUni` of
    another support raises `InputError`.
    """
    if not isinstance(theta_hat_lower, ThetaUni):
        theta_hat_lower = ThetaUni(theta_hat_lower, stats.support)
    _same_support(theta_hat_lower, stats)
    d = theta_hat_lower.d
    if stats.order < d:
        raise InputError(f"need statistics of order >= {d}")
    eff = effective_theta(theta_hat_lower)
    derivs = norm_const_and_derivs(eff, d)
    score_d = stats.moment(d) - derivs[d] / derivs[0]
    return score_d < 0.0


def _null_information(
    stats: SuffStats, d: int, step: int
) -> tuple[ThetaUni, int, np.ndarray, np.ndarray]:
    """Null fit, its order, extra scores and their conditional information
    for a score test of order d - step against order d.

    The order drops by `step` while the fit lands on its own boundary (the
    lower-order MLE may itself sit at a vanishing top coefficient).  The
    order-d score and Fisher matrix at the null come from one order-2d
    request; the last `step` scores are returned with the Schur complement
    of their block.  Raises NotConverged when the fit stopped in the interior
    without converging: a score evaluated there is not a score test statistic.
    """
    provider = UniHoloProvider()
    k = d - step
    while True:
        result = fit_mle(stats, k, provider)
        if not result.hit_boundary or k - step < step:
            break
        k -= step
    if not (result.converged or result.hit_boundary):
        raise NotConverged(
            f"order-{k} null fit stopped after {result.iterations} iterations "
            f"with score max-norm {result.grad_norm:.3e}"
        )
    theta_null: ThetaUni = result.theta_hat  # type: ignore[assignment]
    # the null as a point of the order-d model, whose score is tested
    full = ThetaUni(_embed(theta_null.coeffs, d), theta_null.support)
    derivs = provider.derivs(theta_null, 2 * d)
    _, score, info = _likelihood(full, _sample_moments(stats, full), derivs, _positions(full))
    head, cross, corner = info[:-step, :-step], info[:-step, -step:], info[-step:, -step:]
    try:
        cond = corner - cross.T @ np.linalg.solve(head, cross)
    except np.linalg.LinAlgError as exc:
        raise SingularInformation("conditional information is singular") from exc
    return theta_null, k, score[-step:], cond


def _embed(coeffs: Sequence[float], d: int) -> tuple[float, ...]:
    out = list(coeffs) + [0.0] * (d - len(coeffs))
    return tuple(out)


def score_test_halfline(
    stats: SuffStats,
    d: int,
    alpha: float = 0.05,
) -> TestResult:
    """Score test of H0: order d-1 against H1: order d on the half line.

    The null sits on the domain boundary of the alternative (theta_d = 0 with
    theta_d < 0 inside), so only a too-negative score is evidence for H1:
    reject when T <= -z_alpha.  The statistic standardizes sqrt(n) times the
    order-d score by the conditional information of coordinate d given the
    lower ones, all evaluated with the reduced-order engine.
    """
    if d < 2:
        raise UnsupportedOrder("the half-line test compares orders d-1 >= 1 and d")
    if not 0.0 < alpha < 0.5:
        raise InputError("alpha must be in (0, 1/2)")
    if stats.order < d:
        raise InputError(f"need statistics of order >= {d}")
    if stats.support is not Support.HALF_LINE:
        raise InputError("half-line test needs half-line statistics")
    theta_null, k, score, info = _null_information(stats, d, 1)
    cond = float(info[0, 0])
    if cond <= 0.0:
        raise SingularInformation(f"conditional information {cond:.3e} is not positive")
    T = math.sqrt(stats.n) * float(score[0]) / math.sqrt(cond)
    z = -statistics.NormalDist().inv_cdf(alpha)
    return TestResult(
        statistic=T,
        null=TestNull.STD_NORMAL_LOWER_TAIL,
        alpha=alpha,
        reject=T <= -z,
        theta_hat_null=_embed(theta_null.coeffs, d),
        threshold=-z,
        effective_order=k,
    )


def score_test_realline(
    stats: SuffStats,
    d_full: int,
    alpha: float = 0.05,
) -> TestResult:
    """Score test of H0: order d_full-2 against H1: order d_full, whole line.

    Odd leading coefficients give a divergent integral, so orders move in
    steps of two and the test has two extra scores.  Their joint information
    at the boundary is the moment covariance of the reduced model (the
    directional limit of the full information), and the statistic is the
    standardized quadratic form, chi-square with 2 degrees of freedom under
    H0: reject when T >= the upper alpha quantile.
    """
    if d_full < 4 or d_full % 2 != 0:
        raise UnsupportedOrder("the whole-line test needs an even order >= 4")
    if not 0.0 < alpha < 1.0:
        raise InputError("alpha must be in (0, 1)")
    if stats.order < d_full:
        raise InputError(f"need statistics of order >= {d_full}")
    if stats.support is not Support.REAL_LINE:
        raise InputError("whole-line test needs whole-line statistics")
    theta_null, k, scores, cond = _null_information(stats, d_full, 2)
    try:
        T = float(stats.n * scores @ np.linalg.solve(cond, scores))
    except np.linalg.LinAlgError as exc:
        raise SingularInformation("conditional information is singular") from exc
    # the chi-square(2) survival function is exp(-x/2)
    threshold = -2.0 * math.log(alpha)
    return TestResult(
        statistic=T,
        null=TestNull.CHI_SQ_2_UPPER_TAIL,
        alpha=alpha,
        reject=T >= threshold,
        theta_hat_null=_embed(theta_null.coeffs, d_full),
        threshold=threshold,
        effective_order=k,
    )


def select_order(
    sample: Sequence[float] | np.ndarray,
    d_max: int,
    alpha: float = 0.05,
    support: Support | str | None = None,
) -> tuple[int, list[TestResult]]:
    """Forward sequential order selection.

    Starting from the smallest model, test the current order against the next
    one (next even order on the whole line) and stop at the first
    non-rejection; if every test rejects, d_max is chosen.  A raw sample's
    statistics go through order d_max and the moments the score-matching
    start of the largest null fit reads (see `fit_mle`); given `SuffStats`
    are used as they are, so null fits whose start needs more moments
    start at the gamma point.  The support is the statistics' own, or
    `support` for a raw sample (the half line when None); a `support` that
    contradicts given statistics raises `InputError`.  Each null fit is a
    `fit_mle` with its fixed stop rule; one that stops in the interior
    without converging raises `NotConverged`.
    """
    own = sample.support if isinstance(sample, SuffStats) else None
    support = as_support(support or own or Support.HALF_LINE)
    if own is not None and support is not own:
        raise InputError(f"support {support} contradicts the statistics' {own}")
    step = 2 if support is Support.REAL_LINE else 1
    d_min = 2 if support is Support.REAL_LINE else 1
    if d_max < d_min:
        raise UnsupportedOrder(f"d_max must be at least {d_min}")
    if support is Support.REAL_LINE and d_max % 2 != 0:
        raise UnsupportedOrder("whole-line d_max must be even")
    if not isinstance(sample, SuffStats):
        stats = suff_stats(sample, max(d_max, _stats_order(d_max - step, support)), support)
    else:
        stats = sample
    trail: list[TestResult] = []
    k = d_min
    while k + step <= d_max:
        if support is Support.REAL_LINE:
            res = score_test_realline(stats, k + step, alpha)
        else:
            res = score_test_halfline(stats, k + step, alpha)
        trail.append(res)
        if not res.reject:
            return k, trail
        k += step
    return k, trail
