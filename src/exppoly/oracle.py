"""Quadrature oracle, closed forms, and exact-density sampling.

Everything here is deliberately independent of the holonomic transport
machinery: moments are computed by adaptive quadrature (QUADPACK) on a
truncated window derived from the exponent, so these routines can certify the
ODE results.  Truncation points are where the log-integrand has fallen
``log(_TRUNC_EPS)`` below its maximum, found inside a bracket to the last
float (`_window`); integrands are rescaled by that maximum before quadrature
so extreme exponents cannot overflow.  The tolerances are module constants,
not options: the oracle only checks the engine, at one accuracy.

The sampler and the numeric CDF use numpy alone: a table of CDF values from
Gauss-Legendre panels, and a monotone cubic (`_pchip`) through it.  scipy is
imported inside the quadrature routines and `closed_form_A`, so importing
this module, drawing samples and the holonomic engine do not load scipy.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache

import numpy as np

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
    OdeDivergence,
    ToleranceNotMet,
    UnsupportedOrder,
)
from .polyalg import exponent

# QUADPACK's relative and absolute tolerances (on the peak-scaled
# integrand), where the window cuts the log-integrand below its maximum,
# and the subinterval limit.  `quad_A_bi`'s inner integrals run ten times
# tighter than its outer one.
_REL_TOL = 1e-10
_ABS_TOL = 1e-13
_TRUNC_EPS = 1e-18
_QUAD_LIMIT = 200


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


def _bracketed_root(f, lo: float, hi: float) -> float:
    """The last float x in [lo, hi] with f(x) >= 0, where f(lo) >= 0 > f(hi)
    and f is monotone: the root to within one ulp.

    Regula falsi with the Illinois modification (the end that stays put has
    its f halved, so both ends converge), falling back to bisection when
    the secant point is not strictly inside the bracket; it stops when no
    float lies between the ends.  Against plain bisection it takes about 15
    evaluations instead of 53 and returns the same float.  A cut only to
    brentq's default tolerance (2e-12 + 4 eps |x|) would move the sampler's
    nodes by up to 1e-12 and its draws by up to 4e-10.
    """
    flo, fhi = f(lo), f(hi)
    kept = 0  # which end stayed put on the last step: -1 lo, +1 hi
    while True:
        x = (lo * fhi - hi * flo) / (fhi - flo)
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
            if not lo < x < hi:
                return lo
        fx = f(x)
        if fx >= 0.0:
            lo, flo = x, fx
            if kept == 1:
                fhi *= 0.5
            kept = 1
        else:
            hi, fhi = x, fx
            if kept == -1:
                flo *= 0.5
            kept = -1


def _peak(coeffs: tuple[float, ...], m: int, support: Support) -> tuple[float, list[float]]:
    """The maximum of m*log|x| + g(x) over the support, and the stationary
    points on it (x > 0 on the half line).  The maximum is taken over those
    points, and over x = 0 when m = 0; with neither, at x = 1e-8."""
    crit = _crit_points(coeffs, m)
    if support is Support.HALF_LINE:
        crit = [x for x in crit if x > 0.0]
    candidates = crit + [0.0] if m == 0 else crit or [1e-8]
    return max(_log_integrand(coeffs, m, x) for x in candidates), crit


def _window(
    coeffs: tuple[float, ...], m: int, eps: float, support: Support
) -> tuple[float, float, float, list[float]]:
    """(lmax, lo, hi, crit): the log-integrand's maximum, the window outside
    which it is below lmax + log(eps), and its stationary points on the
    support (`_peak`).  lo = 0 on the half line.

    Each side is cut past its outermost stationary point, where the
    log-integrand decreases monotonically: right there if it is already
    below the target, else at the last float above it.
    """
    lmax, crit = _peak(coeffs, m, support)
    target = lmax + math.log(eps)

    def cut(direction: float) -> float:
        start = max([direction * x for x in crit if direction * x > 0.0] + [1e-6])
        if _log_integrand(coeffs, m, direction * start) < target:
            return direction * start
        hi = start
        for _ in range(400):
            hi *= 2.0
            if _log_integrand(coeffs, m, direction * hi) < target:
                break
        else:
            raise DivergentIntegral("could not bracket the integrand tail")
        return direction * _bracketed_root(lambda x: _log_integrand(coeffs, m, direction * x) - target, start, hi)

    lo = 0.0 if support is Support.HALF_LINE else cut(-1.0)
    return lmax, lo, cut(1.0), crit


def _quad_scaled(
    coeffs: tuple[float, ...],
    m: int,
    lmax: float,
    lo: float,
    hi: float,
    crit: list[float],
    rtol: float,
    atol: float,
) -> tuple[float, float]:
    """Integral of x^m exp(g(x) - lmax) over [lo, hi] to QUADPACK's
    tolerances rtol and atol; returns (value, abserr)."""

    def f(x: float) -> float:
        if x == 0.0:
            return math.exp(-lmax) if m == 0 else 0.0
        return math.copysign(1.0, x) ** (m % 2) * math.exp(_log_integrand(coeffs, m, x) - lmax)

    from scipy import integrate

    interior = sorted(x for x in crit if lo < x < hi)
    val, err = integrate.quad(
        f, lo, hi,
        points=interior or None,
        epsabs=atol,
        epsrel=rtol,
        limit=_QUAD_LIMIT,
    )
    return float(val), float(err)


def quad_moment_uni(theta: ThetaUni, m: int = 0) -> float:
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
    lmax, lo, hi, crit = _window(coeffs, m, _TRUNC_EPS, theta.support)
    if lo < 0.0 < hi:
        v1, e1 = _quad_scaled(coeffs, m, lmax, lo, 0.0, crit, _REL_TOL, _ABS_TOL)
        v2, e2 = _quad_scaled(coeffs, m, lmax, 0.0, hi, crit, _REL_TOL, _ABS_TOL)
        val, err = v1 + v2, e1 + e2
        scale_ref = abs(v1) + abs(v2)
    else:
        val, err = _quad_scaled(coeffs, m, lmax, lo, hi, crit, _REL_TOL, _ABS_TOL)
        scale_ref = abs(val)
    if err > 50.0 * (_ABS_TOL + _REL_TOL * scale_ref):
        raise ToleranceNotMet(f"quadrature error estimate {err:.2e} too large")
    return val * math.exp(lmax)


def closed_form_A(theta: ThetaUni) -> float:
    """Normalizing constant in closed form for the orders that admit one.

    Half line: d=1 gives -1/theta_1; d=2 completes the square into a scaled
    erfcx (stable against overflow in both tail directions).  Real line:
    order 2 is the Gaussian integral.  An A beyond double precision raises
    `OdeDivergence`, as the engine's closed form does.
    """
    cls = classify_theta_uni(theta)
    if not cls.is_interior:
        raise DivergentIntegral("closed forms require an interior theta")
    c = theta.coeffs
    if theta.support is Support.HALF_LINE:
        if theta.d == 1:
            return -1.0 / c[0]
        if theta.d == 2:
            from scipy import special

            b = -c[1]
            z = -c[0] / (2.0 * math.sqrt(b))
            A = math.sqrt(math.pi) / (2.0 * math.sqrt(b)) * float(special.erfcx(z))
        else:
            raise UnsupportedOrder("no closed form for half-line order d > 2")
    elif theta.d == 2:
        try:
            A = math.sqrt(math.pi / -c[1]) * math.exp(-c[0] ** 2 / (4.0 * c[1]))
        except OverflowError:
            A = math.inf
    else:
        raise UnsupportedOrder("no closed form for whole-line order > 2")
    if not math.isfinite(A):
        raise OdeDivergence(
            f"normalizing constant at {tuple(c)} is not representable in double precision"
        )
    return A


def quad_A_bi(theta: ThetaBi, st: tuple[int, int] = (0, 0)) -> float:
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
        base, _ = _peak(x_coeffs_at(y), s, Support.HALF_LINE)
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
        if e < emax + math.log(_TRUNC_EPS) and y > ypeak:
            break
    else:
        raise DivergentIntegral("bivariate envelope does not decay")
    target = emax + math.log(_TRUNC_EPS)
    from scipy import optimize

    y_hi = float(optimize.brentq(lambda y: envelope(y) - target, ypeak, evals[-1][0]))

    def outer(y: float) -> float:
        if y == 0.0:
            return 0.0 if t > 0 else _outer_at(y)
        return _outer_at(y)

    def _outer_at(y: float) -> float:
        coeffs = x_coeffs_at(y)
        lmax, lo, hi, crit = _window(coeffs, s, _TRUNC_EPS, Support.HALF_LINE)
        val, _ = _quad_scaled(coeffs, s, lmax, lo, hi, crit, _REL_TOL / 10.0, _ABS_TOL / 10.0)
        ylog = 0.0 if (t == 0 or y == 0.0) else t * math.log(y)
        return val * math.exp(lmax + c0(y) + ylog - emax)

    from scipy import integrate

    val, err = integrate.quad(
        outer, 0.0, y_hi,
        epsabs=_ABS_TOL,
        epsrel=_REL_TOL,
        limit=_QUAD_LIMIT,
    )
    if err > 100.0 * (_ABS_TOL + _REL_TOL * abs(val)):
        raise ToleranceNotMet(f"outer quadrature error estimate {err:.2e} too large")
    return float(val) * math.exp(emax)


# Panels evaluated per CDF interval, on average, before the panel split gives
# up; QUADPACK's default subinterval limit.
_PANEL_CAP = 50
# Panels per block of density evaluations: a block's arrays (60 KB) stay in
# cache, where one array for all panels ran about twice as slow.
_PANEL_BLOCK = 128


@lru_cache(maxsize=1)
def _panel_rule() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 20-point Gauss-Legendre rule (exact to degree 39) for one panel:
    its 60 nodes on [-1, 1], the rule on the whole panel and then on its left
    and right halves; the whole rule's weights; the halves' weights, scaled
    to the panel.  Built on first use, so that importing the package loads
    no numpy.polynomial."""
    nodes, weights = np.polynomial.legendre.leggauss(20)
    rule = (
        np.concatenate([nodes, 0.5 * (nodes - 1.0), 0.5 * (nodes + 1.0)]),
        weights,
        0.5 * np.concatenate([weights, weights]),
    )
    for arr in rule:
        arr.setflags(write=False)  # shared by every caller through the cache
    return rule


def _density_integrals(coeffs: tuple[float, ...], gmax: float, edges: np.ndarray) -> np.ndarray:
    """Integral of exp(g(x) - gmax) over each interval between adjacent edges.

    Every interval starts as one 20-point Gauss-Legendre panel, checked
    against the same rule on its two halves; the halves' sum is kept where
    the two agree to 1e-14 absolute or 1e-11 relative, and the other panels
    are split in two and checked again.  The relative tolerance is never
    below the density's own rounding error: Horner's rule computes g to
    about 2d eps sum |theta_k x^k|, and exp turns that into a relative error
    (above 1e-11 once that sum passes about 1e4 / d on the edges).  The
    density is evaluated on whole blocks of panels at once: one Horner pass
    and one exp per block.
    """
    panel_nodes, whole_weights, halves_weights = _panel_rule()
    reach = max(abs(edges[0]), abs(edges[-1]))
    g_size = exponent(tuple(abs(c) for c in coeffs), reach)
    rel_tol = max(1e-11, 4 * len(coeffs) * sys.float_info.epsilon * g_size)
    n = len(edges) - 1
    out = np.zeros(n)
    owner = np.arange(n)
    a, b = edges[:-1], edges[1:]
    budget = _PANEL_CAP * n
    while owner.size:
        budget -= owner.size
        if budget < 0:
            raise ToleranceNotMet("CDF panels did not converge under the split cap")
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        whole, halves = np.empty_like(half), np.empty_like(half)
        for k in range(0, half.size, _PANEL_BLOCK):
            blk = slice(k, k + _PANEL_BLOCK)
            dens = np.exp(exponent(coeffs, mid[blk, None] + half[blk, None] * panel_nodes) - gmax)
            whole[blk] = dens[:, :20] @ whole_weights
            halves[blk] = dens[:, 20:] @ halves_weights
        whole *= half
        halves *= half
        ok = np.abs(whole - halves) <= np.maximum(1e-14, rel_tol * np.abs(halves))
        out += np.bincount(owner[ok], weights=halves[ok], minlength=n)
        bad = ~ok
        owner = np.repeat(owner[bad], 2)
        a, b = (
            np.column_stack([a[bad], mid[bad]]).ravel(),
            np.column_stack([mid[bad], b[bad]]).ravel(),
        )
    return out


@lru_cache(maxsize=64)
def _cdf_nodes(theta: ThetaUni) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and cumulative (normalized) CDF values on the truncated support.

    Two passes: 257 equispaced nodes, then those nodes together with 769
    approximate quantiles of the first pass.  Each interval's mass comes
    from `_density_integrals` (Gauss-Legendre panels, split where they miss
    the tolerance), so no scipy is loaded.  Its truncation, 1e-16, is its
    own, not the quadrature's `_TRUNC_EPS`.  Cached:
    replication studies draw repeatedly from one fixed theta and the node
    construction is the expensive part.  Returned arrays are read-only.
    """
    theta = effective_theta(theta)
    coeffs = theta.coeffs
    _, lo, hi, crit = _window(coeffs, 0, 1e-16, theta.support)
    gmax = max(
        [_log_integrand(coeffs, 0, x) for x in crit if lo < x < hi] + [_log_integrand(coeffs, 0, lo), _log_integrand(coeffs, 0, hi)]
    )

    def cumulative(xs: np.ndarray) -> np.ndarray:
        return np.concatenate([[0.0], np.cumsum(_density_integrals(coeffs, gmax, xs))])

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


def _pchip(x: np.ndarray, y: np.ndarray):
    """Monotone piecewise-cubic Hermite interpolant through (x, y), x strictly
    increasing; returns a vectorized evaluator.

    The slopes are those of scipy.interpolate.PchipInterpolator: zero where
    the data turn or stay flat, else the weighted harmonic mean of the two
    neighbouring secants (Fritsch and Butland, SIAM J. Sci. Stat. Comput.
    1984), which keeps each piece monotone (Fritsch and Carlson, SIAM J.
    Numer. Anal. 1980); a shape-preserving three-point rule at both ends, and
    the secant for two points.  Points outside [x[0], x[-1]] extend the end
    cubics.
    """
    h = np.diff(x)
    m = np.diff(y) / h
    if len(x) == 2:
        slopes = np.array([m[0], m[0]])
    else:
        flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
        w1 = 2 * h[1:] + h[:-1]
        w2 = h[1:] + 2 * h[:-1]
        # a secant of 1e-300 or so overflows w / m to inf: its slope is 0
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            inner = np.where(flat, 0.0, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))
        slopes = np.concatenate(
            [[_pchip_end(h[0], h[1], m[0], m[1])], inner, [_pchip_end(h[-1], h[-2], m[-1], m[-2])]]
        )
    t = (slopes[:-1] + slopes[1:] - 2 * m) / h
    c3, c2, c1, c0 = t / h, (m - slopes[:-1]) / h - t, slopes[:-1], y[:-1]

    def evaluate(v):
        v = np.asarray(v, dtype=float)
        k = np.clip(np.searchsorted(x, v, side="right") - 1, 0, len(h) - 1)
        s = v - x[k]
        s2 = s * s
        # ascending powers, summed in the order scipy's PPoly uses
        return c0[k] + c1[k] * s + c2[k] * s2 + c3[k] * (s2 * s)

    return evaluate


def _pchip_end(h0: float, h1: float, m0: float, m1: float) -> float:
    """One-sided three-point end slope, clipped to keep the end piece's shape."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def numeric_cdf(theta: ThetaUni):
    """Numeric CDF as a monotone (`_pchip`) interpolant of the `_cdf_nodes`
    table; returns (callable, (lo, hi))."""
    xs, us = _cdf_nodes(theta)
    pchip = _pchip(xs, us)

    def cdf(x):
        x = np.asarray(x, dtype=float)
        out = np.clip(pchip(np.clip(x, xs[0], xs[-1])), 0.0, 1.0)
        out = np.where(x <= xs[0], 0.0, out)
        out = np.where(x >= xs[-1], 1.0, out)
        return out if out.ndim else float(out)

    return cdf, (float(xs[0]), float(xs[-1]))


def sample_uni(theta: ThetaUni, n: int, seed) -> np.ndarray:
    """Draw n values by inverse CDF: the `_pchip` interpolant of x against
    the `_cdf_nodes` table, at uniform draws.

    Deterministic for a given (theta, n, seed): uniforms come from
    numpy.random.default_rng(seed).  ``seed`` may be anything default_rng
    accepts, including a SeedSequence for replication streams.  ``n`` must
    be a non-negative integer (a numpy integer will do, a bool will not).
    """
    if isinstance(n, (bool, np.bool_)) or not isinstance(n, (int, np.integer)):
        raise InputError(f"sample size must be an integer, got {n!r}")
    if n < 0:
        raise InputError("sample size must be >= 0")
    xs, us = _cdf_nodes(theta)
    grow = np.concatenate([[True], np.diff(us) > 1e-15])
    grow[-1] = True
    ui, xi = us[grow], xs[grow]
    ui, idx = np.unique(ui, return_index=True)
    xi = xi[idx]
    inv = _pchip(ui, xi)
    rng = np.random.default_rng(seed)
    u = rng.random(n)
    u = np.clip(u, ui[0], ui[-1])
    return np.asarray(inv(u), dtype=float)
