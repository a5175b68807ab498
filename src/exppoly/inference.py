"""Likelihood inference: MLE, Fisher information, and model-order score tests.

The per-observation log-likelihood of an exponential-polynomial sample is
linear in the sufficient statistics minus log A(theta), so the score is
(sample moments) - (model moments) and the Fisher information is the moment
covariance; every quantity reduces to derivative vectors supplied by the
holonomic engines.  Fitting is Fisher scoring with step halving against the
domain boundary.  Order selection tests H0: order k against order k+1 (half
line) with a one-sided normal score statistic; on the whole line orders move
in steps of two and the statistic is a chi-square quadratic form in the two
extra scores, evaluated with moments of the reduced model.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Sequence, Union

import numpy as np

from . import holo_uni
from .domain import (
    Membership,
    SuffStats,
    Support,
    ThetaBi,
    ThetaUni,
    classify_theta_uni,
    effective_theta,
    in_proper_bivariate_space,
    monomials_bi,
    suff_stats,
)
from .errors import (
    InputError,
    NotConverged,
    OdeDivergence,
    PathCrossesSingularity,
    SingularInformation,
    ToleranceNotMet,
    UnsupportedOrder,
)
from .holo_bi import DerivTableBi, extend_table, initial_state_bi, transport_bi
from .holo_uni import HoloStateUni, OdeOptions, extend_derivatives, norm_const_and_derivs

# Transport goes through `holo_uni.state_at` alone; this binding is kept only
# because bench/tracing.py wraps `inference.transport` by name.
from .holo_uni import transport  # noqa: F401

Theta = Union[ThetaUni, ThetaBi]


@dataclass(frozen=True)
class FitOptions:
    grad_tol: float = 1e-8
    max_iter: int = 200
    ode: OdeOptions = field(default_factory=OdeOptions)
    min_step_factor: float = 2.0**-40

    def __post_init__(self) -> None:
        if not (self.grad_tol > 0):
            raise InputError("grad_tol must be positive")
        if self.max_iter < 1:
            raise InputError("max_iter must be at least 1")


class UniHoloProvider:
    """Derivative vectors at successive parameters, by incremental transport.

    Each request moves the last committed state to the new parameter through
    `holo_uni.state_at`, so optimizer iterates pay only for the short segment
    from the previous point and follow the same retry and refusal policy as a
    direct evaluation.  A refused move raises `ToleranceNotMet` and leaves the
    last good state committed; a request at the committed parameter costs no
    transport.  `refresh` replaces the state by a fresh transport from the
    gamma point, discarding the accumulated path.
    """

    def __init__(self, support: Support = Support.HALF_LINE, opts: OdeOptions | None = None):
        self.support = support
        self.opts = opts if opts is not None else OdeOptions()
        self._state: Optional[HoloStateUni] = None

    def derivs(self, theta: ThetaUni, M: int) -> np.ndarray:
        self._state = holo_uni.state_at(theta, self.opts, start=self._state)
        return extend_derivatives(self._state, M)

    def refresh(self, theta: ThetaUni) -> None:
        self._state = holo_uni.state_at(theta, self.opts)

    def fisher_bound(self, d: int) -> np.ndarray:
        """Entrywise error bound of the order-d Fisher matrix at the committed state."""
        derivs = extend_derivatives(self._state, 2 * d)
        mom = np.abs(_uni_moments(derivs))
        bounds = holo_uni.derivative_bounds(self._state, 2 * d)
        dmom = (bounds + mom * bounds[0]) / derivs[0]
        # entry (l, m) is E[X^(l+m)] - E[X^l] E[X^m], l, m = 1..d
        low, dlow = mom[1 : d + 1], dmom[1 : d + 1]
        return dmom[np.add.outer(np.arange(1, d + 1), np.arange(1, d + 1))] + (
            np.outer(low, dlow) + np.outer(dlow, low)
        )


class BiHoloProvider:
    """Bivariate analogue of UniHoloProvider, carrying a derivative table."""

    def __init__(self, opts: OdeOptions | None = None):
        self.opts = opts if opts is not None else OdeOptions()
        self._table: Optional[DerivTableBi] = None

    def _move(self, theta: ThetaBi) -> DerivTableBi:
        if self._table is None or self._table.d != theta.d:
            top = theta.top_coeffs()
            table = initial_state_bi(theta.d, abs(top[0]), abs(top[-1]))
            table = transport_bi(table, theta, self.opts)
        else:
            table = transport_bi(self._table, theta, self.opts)
        vals = list(table.values.values())
        if not (np.all(np.isfinite(vals)) and table.norm_const > 0.0):
            raise OdeDivergence(
                f"transport lost accuracy (A = {table.norm_const!r})"
            )
        self._table = table
        return table

    def derivs(self, theta: ThetaBi, M: int) -> DerivTableBi:
        return extend_table(self._move(theta), M, self.opts)

    def refresh(self, theta: ThetaBi) -> None:
        state, self._table = self._table, None
        try:
            self._move(theta)
        except (PathCrossesSingularity, OdeDivergence):
            # the fit wandered into a chamber the product point cannot reach
            # (or the fresh path is numerically worse); keep the incremental state
            self._table = state

    def seed(self, table: DerivTableBi) -> None:
        """Start incremental transport from a caller-supplied table."""
        self._table = table


def _default_provider(support: Support | None, bivariate: bool, opts: OdeOptions | None):
    if bivariate:
        return BiHoloProvider(opts)
    return UniHoloProvider(support if support is not None else Support.HALF_LINE, opts)


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
        if self.fisher_bound is not None and np.linalg.norm(
            self.fisher_bound, 2
        ) >= np.linalg.eigvalsh(self.fisher)[0]:
            raise SingularInformation(
                "Fisher information at the estimate is not determined to working "
                "accuracy (its error bound reaches its smallest eigenvalue); "
                "standard errors are undefined"
            )
        inv = np.linalg.inv(self.fisher)
        return np.sqrt(np.diag(inv) / n)


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


def _log_norm_const(A: float) -> float:
    # near-boundary transports can lose all accuracy and report A <= 0
    if not (math.isfinite(A) and A > 0.0):
        raise OdeDivergence(f"transport produced invalid normalizing constant {A!r}")
    return math.log(A)


def _uni_moments(derivs: np.ndarray) -> np.ndarray:
    """Model moments E[X^m] = (d^m A / d theta_1^m) / A."""
    return derivs / derivs[0]


def loglik_and_grad(theta: Theta, stats: SuffStats, provider=None) -> tuple[float, np.ndarray]:
    """Per-observation log-likelihood and score at theta.

    The score in coordinate m (univariate) is sample moment m minus the model
    moment of the same order; bivariate coordinates follow the canonical
    monomial order of the parameter.
    """
    if isinstance(theta, ThetaBi):
        if provider is None:
            provider = BiHoloProvider()
        table = provider.derivs(theta, theta.d)
        A = table.norm_const
        monos = monomials_bi(theta.d)
        lbar = sum(theta[ij] * stats.moment_bi(*ij) for ij in monos) - _log_norm_const(A)
        grad = np.array(
            [stats.moment_bi(i, j) - table.entry(i, j) / A for (i, j) in monos]
        )
        return lbar, grad
    if provider is None:
        provider = UniHoloProvider(theta.support)
    d = theta.d
    derivs = provider.derivs(theta, d)
    A = derivs[0]
    mom = _uni_moments(derivs)
    lbar = sum(theta.coeffs[m - 1] * stats.moment(m) for m in range(1, d + 1)) - _log_norm_const(A)
    grad = np.array([stats.moment(m) - mom[m] for m in range(1, d + 1)])
    return lbar, grad


def fisher_info(theta: Theta, provider=None) -> np.ndarray:
    """Fisher information: the moment covariance matrix of the model.

    Entry (l, m) is E[X^(l+m)] - E[X^l] E[X^m] (univariate; with the obvious
    table analogue bivariate), from engine derivatives of total order <= 2d.
    """
    if isinstance(theta, ThetaBi):
        if provider is None:
            provider = BiHoloProvider()
        table = provider.derivs(theta, 2 * theta.d)
        A = table.norm_const
        monos = monomials_bi(theta.d)
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
    if provider is None:
        provider = UniHoloProvider(theta.support)
    return _fisher_from_moments(_uni_moments(provider.derivs(theta, 2 * theta.d)), theta.d)


def _fisher_from_moments(mom: np.ndarray, d: int) -> np.ndarray:
    out = np.empty((d, d))
    for l in range(1, d + 1):
        for m in range(l, d + 1):
            out[l - 1, m - 1] = out[m - 1, l - 1] = mom[l + m] - mom[l] * mom[m]
    return out


def _mom_start_uni(stats: SuffStats, d: int, support: Support) -> ThetaUni:
    """Method-of-moments start: only the leading coefficient, matched so the
    model's top moment equals the sample's (E[X^d] = 1/(d c) at that point)."""
    coeffs = [0.0] * d
    coeffs[-1] = -1.0 / (d * stats.moment(d))
    return ThetaUni(coeffs, support)


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
    return ThetaUni(vec, theta.support)


def _theta_vector(theta: Theta) -> np.ndarray:
    if isinstance(theta, ThetaBi):
        return theta.as_vector()
    return theta.as_array()


def fit_mle(
    stats: SuffStats,
    d: int | None = None,
    opts: FitOptions | None = None,
    provider=None,
) -> FitResult:
    """Maximum likelihood fit by Fisher scoring.

    Iterates theta <- theta + I(theta)^-1 grad with step halving whenever the
    proposal leaves the domain or lowers the likelihood.  Non-convergence and
    boundary outcomes are reported through the result flags rather than
    exceptions, so callers can inspect the partial fit.
    """
    if opts is None:
        opts = FitOptions()
    bivariate = stats.is_bivariate
    if d is None:
        d = stats.order
    if d < 1 or d > stats.order:
        raise InputError(f"fit order {d} needs statistics of order >= {d}")
    if bivariate:
        theta: Theta = _mom_start_bi(stats, d)
    else:
        support = stats.support if stats.support is not None else Support.HALF_LINE
        if support is Support.REAL_LINE and d % 2 != 0:
            raise UnsupportedOrder("whole-line fits need an even order")
        theta = _mom_start_uni(stats, d, support)
    if provider is None:
        provider = _default_provider(stats.support, bivariate, opts.ode)

    lbar, grad = loglik_and_grad(theta, stats, provider)
    hit_boundary = False
    converged = False
    iterations = 0
    for iterations in range(1, opts.max_iter + 1):
        if float(np.max(np.abs(grad))) <= opts.grad_tol:
            converged = True
            iterations -= 1
            break
        info = fisher_info(theta, provider)
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
        while lam >= opts.min_step_factor:
            cand = _with_vector(theta, vec + lam * step)
            if not _is_interior(cand):
                boundary_limited = True
                lam *= 0.5
                continue
            try:
                l_new, g_new = loglik_and_grad(cand, stats, provider)
            except (PathCrossesSingularity, OdeDivergence, ToleranceNotMet):
                boundary_limited = True
                lam *= 0.5
                continue
            if math.isfinite(l_new) and l_new >= lbar - 1e-12 * max(1.0, abs(lbar)):
                theta, lbar, grad = cand, l_new, g_new
                accepted = True
                break
            lam *= 0.5
        if not accepted:
            hit_boundary = boundary_limited
            break
    else:
        iterations = opts.max_iter

    provider.refresh(theta)
    lbar, grad = loglik_and_grad(theta, stats, provider)
    info = fisher_info(theta, provider)
    grad_norm = float(np.max(np.abs(grad)))
    if converged:
        converged = grad_norm <= 10 * opts.grad_tol
    elif not hit_boundary:
        # distinguish slow interior progress from an ascent pressing into the
        # boundary, where the supremum is not attained: the full scoring step
        # from the final iterate then leaves the domain.  A Fisher matrix that
        # is not positive definite means the same thing: the engine degenerates
        # only on the singular locus, which the iterate must be hugging.
        try:
            np.linalg.cholesky(info)
            newton = np.linalg.solve(info, grad)
            hit_boundary = not _is_interior(
                _with_vector(theta, _theta_vector(theta) + newton)
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
        fisher_bound=provider.fisher_bound(d) if isinstance(provider, UniHoloProvider) else None,
    )


def mle_existence_check(
    theta_hat_lower: ThetaUni | Sequence[float],
    stats: SuffStats,
    opts: OdeOptions | None = None,
) -> bool:
    """Whether the order-d MLE exists in the open domain.

    `theta_hat_lower` is the boundary MLE (order d-1 fit with a trailing
    zero).  The likelihood is strictly concave on every ray entering the
    domain from there, so an interior maximizer exists iff the remaining
    score component is negative: sample moment d < model moment d.
    """
    support = stats.support if stats.support is not None else Support.HALF_LINE
    if not isinstance(theta_hat_lower, ThetaUni):
        theta_hat_lower = ThetaUni(theta_hat_lower, support)
    d = theta_hat_lower.d
    if stats.order < d:
        raise InputError(f"need statistics of order >= {d}")
    eff = effective_theta(theta_hat_lower)
    derivs = norm_const_and_derivs(eff, d, opts)
    score_d = stats.moment(d) - derivs[d] / derivs[0]
    return score_d < 0.0


def _fit_null_with_recursion(
    stats: SuffStats,
    order: int,
    step: int,
    min_order: int,
    opts: FitOptions,
) -> tuple[FitResult, int, UniHoloProvider]:
    """Fit the null model, dropping the order while the fit lands on its own
    boundary (the lower-order MLE may itself sit at a vanishing top
    coefficient).

    Also returns the fit's provider, whose state is the refreshed one at the
    null estimate.  Raises NotConverged when the fit stopped in the interior
    without converging: a score evaluated there is not a score test statistic.
    """
    provider = _default_provider(stats.support, False, opts.ode)
    k = order
    while True:
        result = fit_mle(stats, k, opts, provider)
        if not result.hit_boundary or k - step < min_order:
            break
        k -= step
    if not (result.converged or result.hit_boundary):
        raise NotConverged(
            f"order-{k} null fit stopped after {result.iterations} iterations "
            f"with score max-norm {result.grad_norm:.3e}"
        )
    return result, k, provider


def _embed(coeffs: Sequence[float], d: int) -> tuple[float, ...]:
    out = list(coeffs) + [0.0] * (d - len(coeffs))
    return tuple(out)


def score_test_halfline(
    stats: SuffStats,
    d: int,
    alpha: float = 0.05,
    opts: FitOptions | None = None,
) -> TestResult:
    """Score test of H0: order d-1 against H1: order d on the half line.

    The null sits on the domain boundary of the alternative (theta_d = 0 with
    theta_d < 0 inside), so only a too-negative score is evidence for H1:
    reject when T <= -z_alpha.  The statistic standardizes sqrt(n) times the
    order-d score by the conditional information of coordinate d given the
    lower ones, all evaluated with the reduced-order engine.
    """
    if opts is None:
        opts = FitOptions()
    if d < 2:
        raise UnsupportedOrder("the half-line test compares orders d-1 >= 1 and d")
    if not 0.0 < alpha < 0.5:
        raise InputError("alpha must be in (0, 1/2)")
    if stats.order < d:
        raise InputError(f"need statistics of order >= {d}")
    null_fit, k, provider = _fit_null_with_recursion(stats, d - 1, 1, 1, opts)
    theta_null: ThetaUni = null_fit.theta_hat  # type: ignore[assignment]

    mom = _uni_moments(provider.derivs(theta_null, 2 * d))
    info = _fisher_from_moments(mom, d)
    score_d = stats.moment(d) - mom[d]
    head, cross, corner = info[: d - 1, : d - 1], info[: d - 1, d - 1], info[d - 1, d - 1]
    try:
        cond = corner - float(cross @ np.linalg.solve(head, cross))
    except np.linalg.LinAlgError as exc:
        raise SingularInformation("conditional information is singular") from exc
    if cond <= 0.0:
        raise SingularInformation(f"conditional information {cond:.3e} is not positive")
    T = math.sqrt(stats.n) * score_d / math.sqrt(cond)
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
    opts: FitOptions | None = None,
) -> TestResult:
    """Score test of H0: order d_full-2 against H1: order d_full, whole line.

    Odd leading coefficients give a divergent integral, so orders move in
    steps of two and the test has two extra scores.  Their joint information
    at the boundary is the moment covariance of the reduced model (the
    directional limit of the full information), and the statistic is the
    standardized quadratic form, chi-square with 2 degrees of freedom under
    H0: reject when T >= the upper alpha quantile.
    """
    if opts is None:
        opts = FitOptions()
    if d_full < 4 or d_full % 2 != 0:
        raise UnsupportedOrder("the whole-line test needs an even order >= 4")
    if not 0.0 < alpha < 1.0:
        raise InputError("alpha must be in (0, 1)")
    if stats.order < d_full:
        raise InputError(f"need statistics of order >= {d_full}")
    if stats.support is not Support.REAL_LINE:
        raise InputError("whole-line test needs whole-line statistics")
    null_fit, k, provider = _fit_null_with_recursion(stats, d_full - 2, 2, 2, opts)
    theta_null: ThetaUni = null_fit.theta_hat  # type: ignore[assignment]

    mom = _uni_moments(provider.derivs(theta_null, 2 * d_full))
    info = _fisher_from_moments(mom, d_full)
    scores = np.array(
        [
            stats.moment(d_full - 1) - mom[d_full - 1],
            stats.moment(d_full) - mom[d_full],
        ]
    )
    head = info[: d_full - 2, : d_full - 2]
    cross = info[: d_full - 2, d_full - 2 :]
    corner = info[d_full - 2 :, d_full - 2 :]
    try:
        cond = corner - cross.T @ np.linalg.solve(head, cross)
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
    support: Support = Support.HALF_LINE,
    opts: FitOptions | None = None,
) -> tuple[int, list[TestResult]]:
    """Forward sequential order selection.

    Starting from the smallest model, test the current order against the next
    one (next even order on the whole line) and stop at the first
    non-rejection; if every test rejects, d_max is chosen.
    """
    support = Support(support)
    step = 2 if support is Support.REAL_LINE else 1
    d_min = 2 if support is Support.REAL_LINE else 1
    if d_max < d_min:
        raise UnsupportedOrder(f"d_max must be at least {d_min}")
    if support is Support.REAL_LINE and d_max % 2 != 0:
        raise UnsupportedOrder("whole-line d_max must be even")
    stats = suff_stats(sample, d_max, support) if not isinstance(sample, SuffStats) else sample
    trail: list[TestResult] = []
    k = d_min
    while k + step <= d_max:
        if support is Support.REAL_LINE:
            res = score_test_realline(stats, k + step, alpha, opts)
        else:
            res = score_test_halfline(stats, k + step, alpha, opts)
        trail.append(res)
        if not res.reject:
            return k, trail
        k += step
    return k, trail
