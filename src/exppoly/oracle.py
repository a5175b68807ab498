"""Quadrature oracle, closed forms, and exact-density sampling.

Everything here is deliberately independent of the holonomic transport
machinery: moments are computed by adaptive quadrature (QUADPACK) on a
truncated window derived from the exponent, so these routines can certify the
ODE results.  Truncation points are where the log-integrand has fallen
``log(trunc_eps)`` below its maximum; integrands are rescaled by that maximum
before quadrature so extreme exponents cannot overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import integrate, interpolate, optimize, special

from .domain import (
    Membership,
    Support,
    ThetaBi,
    ThetaUni,
    classify_theta_uni,
    effective_theta,
    in_proper_bivariate_space,
)
from .errors import (
    DivergentIntegral,
    InputError,
    ToleranceNotMet,
    UnsupportedOrder,
)
from .polyalg import exponent


@dataclass(frozen=True)
class QuadOptions:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-13
    trunc_eps: float = 1e-18
    quad_limit: int = 200


_DEFAULT_QUAD = QuadOptions()


def _real_roots(desc_coeffs: list[float]) -> list[float]:
    """Real roots of a descending-coefficient polynomial."""
    c = list(desc_coeffs)
    while c and c[0] == 0.0:
        c.pop(0)
    if len(c) <= 1:
        return []
    roots = np.roots(c)
    return [float(r.real) for r in roots if abs(r.imag) <= 1e-9 * (1.0 + abs(r.real))]


def _log_integrand(coeffs: tuple[float, ...], m: int, x: float) -> float:
    if x == 0.0:
        return 0.0 if m == 0 else -math.inf
    return m * math.log(abs(x)) + exponent(coeffs, x)


def _crit_points(coeffs: tuple[float, ...], m: int) -> list[float]:
    """Stationary points of m*log|x| + g(x), i.e. roots of m + x g'(x)."""
    d = len(coeffs)
    desc = [coeffs[k - 1] * k for k in range(d, 0, -1)]
    desc.append(float(m))
    return _real_roots(desc)


def _window_halfline(coeffs: tuple[float, ...], m: int, eps: float) -> tuple[float, float, list[float]]:
    crit = [x for x in _crit_points(coeffs, m) if x > 0.0]
    candidates = list(crit)
    if m == 0:
        candidates.append(0.0)
    if not candidates:
        candidates = [1e-8]
    lmax = max(_log_integrand(coeffs, m, x) for x in candidates)
    xpeak = max((x for x in candidates if _log_integrand(coeffs, m, x) == lmax), default=0.0)
    target = lmax + math.log(eps)
    lo_x = max(xpeak, max(crit) if crit else 0.0, 1e-6)
    if _log_integrand(coeffs, m, lo_x) < target:
        # already negligible at the outermost stationary point, and monotone
        # decreasing beyond it: cut right there
        return lmax, lo_x, crit
    hi = lo_x
    for _ in range(400):
        hi = hi * 2.0 if hi > 0 else 1.0
        if _log_integrand(coeffs, m, hi) < target:
            break
    else:
        raise DivergentIntegral("could not bracket the integrand tail")
    hi = float(optimize.brentq(lambda x: _log_integrand(coeffs, m, x) - target, lo_x, hi))
    return lmax, hi, crit


def _window_realline(coeffs: tuple[float, ...], m: int, eps: float) -> tuple[float, float, float, list[float]]:
    crit = _crit_points(coeffs, m)
    candidates = list(crit)
    if m == 0:
        candidates.append(0.0)
    if not candidates:
        candidates = [0.0]
    lmax = max(_log_integrand(coeffs, m, x) for x in candidates)
    target = lmax + math.log(eps)

    def cut(direction: float) -> float:
        inner = max([x * direction for x in crit if x * direction > 0], default=0.0)
        start = max(inner, 1e-6)
        if _log_integrand(coeffs, m, direction * start) < target:
            # this side is already negligible past its outermost stationary
            # point (or has no mass at all): cut right there
            return direction * start
        hi = start
        for _ in range(400):
            hi *= 2.0
            if _log_integrand(coeffs, m, direction * hi) < target:
                break
        else:
            raise DivergentIntegral("could not bracket the integrand tail")
        root = optimize.brentq(
            lambda x: _log_integrand(coeffs, m, direction * x) - target, start, hi
        )
        return direction * float(root)

    return lmax, cut(-1.0), cut(+1.0), crit


def _quad_scaled(
    coeffs: tuple[float, ...],
    m: int,
    lmax: float,
    lo: float,
    hi: float,
    crit: list[float],
    opts: QuadOptions,
) -> tuple[float, float]:
    """Integral of x^m exp(g(x) - lmax) over [lo, hi]; returns (value, abserr)."""

    def f(x: float) -> float:
        if x == 0.0:
            return math.exp(-lmax) if m == 0 else 0.0
        return math.copysign(1.0, x) ** (m % 2) * math.exp(_log_integrand(coeffs, m, x) - lmax)

    interior = sorted(x for x in crit if lo < x < hi)
    val, err = integrate.quad(
        f, lo, hi,
        points=interior or None,
        epsabs=opts.abs_tol,
        epsrel=opts.rel_tol,
        limit=opts.quad_limit,
    )
    return float(val), float(err)


def quad_moment_uni(theta: ThetaUni, m: int = 0, opts: QuadOptions = _DEFAULT_QUAD) -> float:
    """m-th moment integral of exp(theta.x) over the support, by quadrature.

    ``m = 0`` gives the normalizing constant A(theta).  theta may sit on a
    boundary stratum (trailing zeros); it is reduced to its effective order.
    Raises DivergentIntegral outside the integrable region and
    ToleranceNotMet when QUADPACK's error estimate is out of bounds.
    """
    if m < 0:
        raise InputError("moment order must be >= 0")
    cls = classify_theta_uni(theta)
    if cls.membership is Membership.OUTSIDE:
        raise DivergentIntegral("exponent does not decay; integral diverges")
    theta = effective_theta(theta)
    coeffs = theta.coeffs
    if theta.support is Support.HALF_LINE:
        lmax, hi, crit = _window_halfline(coeffs, m, opts.trunc_eps)
        val, err = _quad_scaled(coeffs, m, lmax, 0.0, hi, crit, opts)
        scale_ref = abs(val)
    else:
        lmax, lo, hi, crit = _window_realline(coeffs, m, opts.trunc_eps)
        if lo < 0.0 < hi:
            v1, e1 = _quad_scaled(coeffs, m, lmax, lo, 0.0, crit, opts)
            v2, e2 = _quad_scaled(coeffs, m, lmax, 0.0, hi, crit, opts)
            val, err = v1 + v2, e1 + e2
            scale_ref = abs(v1) + abs(v2)
        else:
            val, err = _quad_scaled(coeffs, m, lmax, lo, hi, crit, opts)
            scale_ref = abs(val)
    if err > 50.0 * (opts.abs_tol + opts.rel_tol * scale_ref):
        raise ToleranceNotMet(f"quadrature error estimate {err:.2e} too large")
    return val * math.exp(lmax)


def closed_form_A(theta: ThetaUni) -> float:
    """Normalizing constant in closed form for the orders that admit one.

    Half line: d=1 gives -1/theta_1; d=2 completes the square into a scaled
    erfcx (stable against overflow in both tail directions).  Real line:
    order 2 is the Gaussian integral.
    """
    cls = classify_theta_uni(theta)
    if not cls.is_interior:
        raise DivergentIntegral("closed forms require an interior theta")
    c = theta.coeffs
    if theta.support is Support.HALF_LINE:
        if theta.d == 1:
            return -1.0 / c[0]
        if theta.d == 2:
            b = -c[1]
            z = -c[0] / (2.0 * math.sqrt(b))
            return math.sqrt(math.pi) / (2.0 * math.sqrt(b)) * float(special.erfcx(z))
        raise UnsupportedOrder("no closed form for half-line order d > 2")
    if theta.d == 2:
        return math.sqrt(math.pi / -c[1]) * math.exp(-c[0] ** 2 / (4.0 * c[1]))
    raise UnsupportedOrder("no closed form for whole-line order > 2")


def quad_A_bi(theta: ThetaBi, st: tuple[int, int] = (0, 0), opts: QuadOptions = _DEFAULT_QUAD) -> float:
    """Moment integral of x^s y^t exp(sum theta_ij x^i y^j) over the quadrant.

    Nested adaptive quadrature: the inner x-integral reuses the univariate
    window machinery at each y; the outer window comes from the envelope
    sup_x of the log-integrand, which is what actually controls the decay in
    y (the y-axis restriction alone can badly underestimate the tail when
    cross terms are present).
    """
    s, t = int(st[0]), int(st[1])
    if s < 0 or t < 0:
        raise InputError("moment orders must be >= 0")
    if not in_proper_bivariate_space(theta):
        raise DivergentIntegral("theta is not in the proper bivariate region")
    d = theta.d

    def x_coeffs_at(y: float) -> tuple[float, ...]:
        return tuple(
            sum(theta[(i, j)] * y**j for j in range(0, d - i + 1))
            for i in range(1, d + 1)
        )

    def c0(y: float) -> float:
        return sum(theta[(0, j)] * y**j for j in range(1, d + 1))

    def envelope(y: float) -> float:
        coeffs = x_coeffs_at(y)
        crit = [x for x in _crit_points(coeffs, s) if x > 0.0]
        cand = list(crit)
        if s == 0:
            cand.append(0.0)
        if not cand:
            cand = [1e-8]
        base = max(_log_integrand(coeffs, s, x) for x in cand)
        ylog = 0.0 if t == 0 else (t * math.log(y) if y > 0 else -math.inf)
        return base + c0(y) + ylog

    # Locate the envelope peak on a geometric sweep, then the tail cut.
    ys = [2.0**k for k in range(-12, 60)]
    evals = []
    emax, ypeak = -math.inf, 1.0
    for y in ys:
        e = envelope(y)
        evals.append((y, e))
        if e > emax:
            emax, ypeak = e, y
        if e < emax + math.log(opts.trunc_eps) and y > ypeak:
            break
    else:
        raise DivergentIntegral("bivariate envelope does not decay")
    target = emax + math.log(opts.trunc_eps)
    y_hi = float(optimize.brentq(lambda y: envelope(y) - target, ypeak, evals[-1][0]))

    inner_opts = QuadOptions(
        rel_tol=opts.rel_tol / 10.0,
        abs_tol=opts.abs_tol / 10.0,
        trunc_eps=opts.trunc_eps,
        quad_limit=opts.quad_limit,
    )

    def outer(y: float) -> float:
        if y == 0.0:
            return 0.0 if t > 0 else _outer_at(y)
        return _outer_at(y)

    def _outer_at(y: float) -> float:
        coeffs = x_coeffs_at(y)
        lmax, hi, crit = _window_halfline(coeffs, s, inner_opts.trunc_eps)
        val, _ = _quad_scaled(coeffs, s, lmax, 0.0, hi, crit, inner_opts)
        ylog = 0.0 if (t == 0 or y == 0.0) else t * math.log(y)
        return val * math.exp(lmax + c0(y) + ylog - emax)

    val, err = integrate.quad(
        outer, 0.0, y_hi,
        epsabs=opts.abs_tol,
        epsrel=opts.rel_tol,
        limit=opts.quad_limit,
    )
    if err > 100.0 * (opts.abs_tol + opts.rel_tol * abs(val)):
        raise ToleranceNotMet(f"outer quadrature error estimate {err:.2e} too large")
    return float(val) * math.exp(emax)


@lru_cache(maxsize=64)
def _cdf_nodes(theta: ThetaUni, opts: QuadOptions) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and cumulative (normalized) CDF values on the truncated support.

    Cached: replication studies draw repeatedly from one fixed theta and the
    node construction is the expensive part.  Returned arrays are read-only.
    """
    theta = effective_theta(theta)
    coeffs = theta.coeffs
    eps = 1e-16
    if theta.support is Support.HALF_LINE:
        _, hi, crit = _window_halfline(coeffs, 0, eps)
        lo = 0.0
    else:
        _, lo, hi, crit = _window_realline(coeffs, 0, eps)
    gmax = max(
        [_log_integrand(coeffs, 0, x) for x in crit if lo < x < hi] + [_log_integrand(coeffs, 0, lo), _log_integrand(coeffs, 0, hi)]
    )

    def density_scaled(x: float) -> float:
        return math.exp(exponent(coeffs, x) - gmax)

    def cumulative(xs: np.ndarray) -> np.ndarray:
        parts = np.zeros(len(xs))
        for i in range(1, len(xs)):
            parts[i], _ = integrate.quad(
                density_scaled, xs[i - 1], xs[i], epsabs=1e-14, epsrel=1e-11
            )
        return np.cumsum(parts)

    coarse = np.linspace(lo, hi, 257)
    f1 = cumulative(coarse)
    if f1[-1] <= 0.0:
        raise ToleranceNotMet("density mass collapsed under truncation")
    u1 = f1 / f1[-1]
    # Second pass: insert approximate quantile nodes so flat CDF stretches in
    # the tails do not starve the peak region of resolution.
    uq = np.linspace(0.0, 1.0, 769)
    xq = np.interp(uq, u1, coarse)
    xs = np.unique(np.concatenate([coarse, xq]))
    keep = np.concatenate([[True], np.diff(xs) > 1e-12 * (hi - lo)])
    xs = xs[keep]
    f = cumulative(xs)
    f = f / f[-1]
    xs.setflags(write=False)
    f.setflags(write=False)
    return xs, f


def numeric_cdf(theta: ThetaUni, opts: QuadOptions = _DEFAULT_QUAD):
    """Numeric CDF as a monotone interpolant; returns (callable, (lo, hi))."""
    xs, us = _cdf_nodes(theta, opts)
    xi, ui = xs, us
    pchip = interpolate.PchipInterpolator(xi, ui)

    def cdf(x):
        x = np.asarray(x, dtype=float)
        out = np.clip(pchip(np.clip(x, xi[0], xi[-1])), 0.0, 1.0)
        out = np.where(x <= xi[0], 0.0, out)
        out = np.where(x >= xi[-1], 1.0, out)
        return out if out.ndim else float(out)

    return cdf, (float(xs[0]), float(xs[-1]))


def sample_uni(
    theta: ThetaUni,
    n: int,
    seed,
    opts: QuadOptions = _DEFAULT_QUAD,
) -> np.ndarray:
    """Draw n values by inverse-CDF on a monotone (PCHIP) interpolant.

    Deterministic for a given (theta, n, seed): uniforms come from
    numpy.random.default_rng(seed).  ``seed`` may be anything default_rng
    accepts, including a SeedSequence for replication streams.
    """
    if n < 0:
        raise InputError("sample size must be >= 0")
    xs, us = _cdf_nodes(theta, opts)
    grow = np.concatenate([[True], np.diff(us) > 1e-15])
    grow[-1] = True
    ui, xi = us[grow], xs[grow]
    ui, idx = np.unique(ui, return_index=True)
    xi = xi[idx]
    inv = interpolate.PchipInterpolator(ui, xi)
    rng = np.random.default_rng(seed)
    u = rng.random(n)
    u = np.clip(u, ui[0], ui[-1])
    return np.asarray(inv(u), dtype=float)
