"""Holonomic transport of normalizing constants for univariate densities.

The normalizing constant A(theta) of exp(theta_1 x + ... + theta_d x^d) over
the half line (or whole line, even d) satisfies a holonomic system: every
partial derivative with respect to theta_k equals the k-th derivative in
theta_1 direction, and integration by parts closes those derivatives into a
finite-dimensional recursion.  A state vector of low-order theta_1-derivatives
is therefore enough to reconstruct all of them, and moving theta along a
segment turns the recursion into a linear ODE for the state (gradient
transport).  The same recursion, applied to Taylor coefficients, gives the
state's power series along the segment exactly, so adaptive transport steps
by Taylor series of a fixed order (`_TAYLOR_ORDER`).  Starting values
come from the one-parameter scale family (0, ..., 0, -c), where everything
reduces to gamma functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _ode, polyalg
from .domain import Membership, Support, ThetaUni, classify_theta_uni, effective_theta
from .errors import (
    DivergentIntegral,
    InputError,
    NonPositiveScale,
    PathSingularity,
    SingularLeadingCoefficient,
    ToleranceNotMet,
)


@dataclass(frozen=True)
class OdeOptions:
    """Transport integrator settings.

    Univariate and bivariate transport both step by Taylor series of order
    `_TAYLOR_ORDER`, with adaptive steps.

    rel_tol: per-step relative tolerance.
    max_steps: step budget before giving up, an integer >= 1 (not a bool).
    """

    rel_tol: float = 1e-10
    max_steps: int = 200_000

    def __post_init__(self) -> None:
        if not (self.rel_tol > 0.0 and math.isfinite(self.rel_tol)):
            raise InputError("rel_tol must be positive and finite")
        if not _is_count(self.max_steps):
            raise InputError(f"max_steps must be an integer >= 1, got {self.max_steps!r}")


def _is_count(v: object) -> bool:
    """Whether v is an integer >= 1; a bool is not, though Python counts it one."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool) and v >= 1


# Order of the Taylor series that adaptive transport steps by: high enough
# that a segment takes a few steps, low enough that a coefficient row (one
# product with a matrix of side 2d-1, built once per step) stays cheap next
# to the step it saves.
_TAYLOR_ORDER = 24


def state_length(d: int) -> int:
    """Entries kept in the transported state.

    The recursion determines derivative orders >= d-1 from the lower ones, so
    d-1 entries are minimal; a floor of two keeps the exponential case (d=1)
    carrying A and A' like every other order.
    """
    return max(d - 1, 2)


class HoloStateUni:
    """Derivative vector F[m] = d^m A / d theta_1^m at a parameter point.

    Entries at indices >= d-1 are redundant (the recursion reproduces them);
    they are kept so the state always exposes at least A and its first
    derivative directly.  `last_transport_error` is the relative error
    estimate of the state: the integrator's for the move that produced it
    from `transport`, the full `state_at` estimate for a state from there,
    and zero for freshly initialized states.
    """

    __slots__ = ("theta", "F", "last_transport_error")

    def __init__(self, theta: ThetaUni, F: np.ndarray, last_transport_error: float = 0.0):
        arr = np.array(F, dtype=float)
        if arr.ndim != 1 or arr.shape[0] != state_length(theta.d):
            raise InputError(
                f"state for order {theta.d} must have {state_length(theta.d)} entries"
            )
        arr.flags.writeable = False
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "F", arr)
        object.__setattr__(self, "last_transport_error", float(last_transport_error))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("HoloStateUni is immutable")

    @property
    def d(self) -> int:
        return self.theta.d

    @property
    def support(self) -> Support:
        return self.theta.support

    @property
    def norm_const(self) -> float:
        return float(self.F[0])

    def __repr__(self) -> str:
        return f"HoloStateUni(theta={self.theta!r}, F={self.F.tolist()!r})"


def initial_state(d: int, c: float, support: Support = Support.HALF_LINE) -> HoloStateUni:
    """State at theta = (0, ..., 0, -c), c > 0, from the gamma integral.

    On the half line the m-th moment integral of exp(-c x^d) is
    Gamma((1+m)/d) * c^(-(1+m)/d) / d; on the whole line (even d) even moments
    double that and odd moments vanish.
    """
    if not (isinstance(c, (int, float)) and math.isfinite(c) and c > 0):
        raise NonPositiveScale(f"initial scale must be positive and finite, got {c!r}")
    coeffs = [0.0] * d
    coeffs[-1] = -float(c)
    theta = ThetaUni(coeffs, support)
    L = state_length(d)
    F = np.empty(L)
    for m in range(L):
        if support is Support.REAL_LINE and m % 2 == 1:
            F[m] = 0.0
        else:
            factor = 2.0 if support is Support.REAL_LINE else 1.0
            F[m] = factor / d * c ** (-(1 + m) / d) * math.gamma((1 + m) / d)
    return HoloStateUni(theta, F)


def _extend(coeffs: Sequence[float], support: Support, base: Sequence[float], M: int) -> list[float]:
    """Derivative orders 0..M from the first d-1 entries via the recursion.

    Integration by parts of (x^m exp(g))' gives, for every m >= 0,

        d*theta_d * F[d-1+m] = -(inhom*[m=0] + m*F[m-1] + sum_k k*theta_k*F[k-1+m])

    with inhom = 1 on the half line (boundary term at x=0) and 0 on the whole
    line, the sum over k = 1..d-1.
    """
    d = len(coeffs)
    lead = _lead(coeffs)
    vals = [0.0] * (M + 1)
    n_base = min(d - 1, M + 1)
    vals[:n_base] = [float(v) for v in base[:n_base]]
    carry = [0.0] * max(M - d + 2, 0)
    if carry:
        carry[0] = _inhom(support)
    _close(vals, d, lead, _weights(coeffs), carry)
    return vals


def _lead(coeffs: Sequence[float]) -> float:
    lead = len(coeffs) * coeffs[-1]
    if lead == 0.0:
        raise SingularLeadingCoefficient(
            f"leading coefficient is zero at order {len(coeffs)}; extension undefined"
        )
    return lead


def _inhom(support: Support) -> float:
    return 1.0 if support is Support.HALF_LINE else 0.0


def _weights(coeffs: Sequence[float]) -> list[tuple[int, float]]:
    """(k-1, k*theta_k) for the nonzero lower coefficients."""
    return [(k - 1, k * ck) for k, ck in enumerate(coeffs[:-1], 1) if ck != 0.0]


def _close(
    row: list[float], d: int, lead: float, terms: list[tuple[int, float]], carry: Sequence[float]
) -> None:
    """Fill row[d-1:] from row[:d-1] by the recursion, in place.

    Equation m reads lead*row[d-1+m] = -(carry[m] + m*row[m-1] + sum of the
    `terms` weights times row[k-1+m]); `_extend` passes the boundary term as
    carry[0], and `_series` closes each unit row and unit carry to build the
    map from one coefficient row to the next.
    """
    for m in range(len(row) - d + 1):
        acc = carry[m]
        if m >= 1:
            acc += m * row[m - 1]
        for i, kc in terms:
            acc += kc * row[i + m]
        row[d - 1 + m] = -acc / lead


def _series(
    coeffs: Sequence[float], h: Sequence[float], inhom: float, y: Sequence[float], order: int
) -> np.ndarray:
    """Taylor coefficients in sigma of the entries F[0..len(y)-1] at coeffs + sigma*h.

    Row n of the (order+1, len(y)) result holds a[m][n], the sigma^n
    coefficient of F[m], for the len(y) carried entries; row 0 is y.  Moving
    along h differentiates as dF[m]/dsigma = sum_k h_k F[m+k], so

        (n+1) a[m][n+1] = sum_k h_k a[m+k][n],

    and the entries from d-1 on follow from `_extend`'s recursion applied
    coefficient by coefficient.  theta(sigma) is linear in sigma, so every
    weight k*theta_k, the leading d*theta_d included, adds one shifted product
    c[m][n] = sum_k k*h_k*a[m+k-1][n-1] to equation m at order n; the leading
    factor stays d*theta_d at sigma = 0, so no series is divided.  Row 1 is
    the transport right-hand side.

    The map from x_n = (a[.][n], c[.][n]) to x_{n+1} is therefore linear,
    and the same at every order but for the factor 1/(n+1) on its a part.
    It is built once per call: `_close` closes each unit input to a row
    F[0..], whose shifted products are that input's column.  Each order is
    then one matrix-vector product; x_0 holds the boundary term `inhom` as
    c[0][0].
    """
    d = len(coeffs)
    lead = _lead(coeffs)
    terms = _weights(coeffs)
    n_y = len(y)
    n_eq = n_y + 1  # equations m = 0..n_y fill F[d-1..n_y-1+d]
    n_x = n_y + n_eq
    width = n_y + d
    # closed[j]: the row F[0..width-1] that unit input j of x closes to;
    # a[m] for m >= d-1 is itself closed from the rest, so its inputs stay zero
    zero = [0.0] * width
    closed = [zero] * n_x
    for j in (*range(d - 1), *range(n_y, n_x)):
        row = zero.copy()
        carry = [0.0] * n_eq
        if j < n_y:
            row[j] = 1.0
        else:
            carry[j - n_y] = 1.0
        _close(row, d, lead, terms, carry)
        closed[j] = row
    h = list(h)
    kh = [k * hk for k, hk in enumerate(h, 1)]
    shifts = np.array(
        [[0.0] * (m + 1) + h + [0.0] * (width - m - 1 - d) for m in range(n_y)]
        + [[0.0] * m + kh + [0.0] * (width - m - d) for m in range(n_eq)]
    )
    maps = np.repeat(np.dot(shifts, np.array(closed).T)[None], order, 0)
    maps[:, :n_y] *= (1.0 / np.arange(1.0, order + 1))[:, None, None]
    x = np.zeros((order + 1, n_x))
    x[0, :n_y] = y
    x[0, n_y] = inhom
    for n in range(order):
        np.dot(maps[n], x[n], out=x[n + 1])
    return x[:, :n_y]


def _segment_series(src: ThetaUni, target: ThetaUni, order: int):
    """`_series` along the segment from src to target, as a function of
    (s, y, H): the coefficients in t of the entries at theta(s + t H)."""
    src_coeffs = src.coeffs
    h = (np.array(target.coeffs) - np.array(src_coeffs)).tolist()
    inhom = _inhom(src.support)

    def series(s: float, y: Sequence[float], H: float = 1.0) -> np.ndarray:
        theta_s = [c + s * hk for c, hk in zip(src_coeffs, h)]
        return _series(theta_s, [H * hk for hk in h], inhom, y, order)

    return series


def extend_derivatives(state: HoloStateUni, M: int) -> np.ndarray:
    """Derivative orders 0..M at the state's parameter point.

    Orders below d-1 are read off the state; higher ones are recomputed from
    the recursion (including any redundant entries the state also stores, so
    the result is always recursion-consistent).
    """
    if M < 0:
        raise InputError("derivative order must be nonnegative")
    return np.array(_extend(state.theta.coeffs, state.support, state.F, M))


def derivative_bounds(state: HoloStateUni, M: int) -> np.ndarray:
    """Absolute error bounds of `extend_derivatives(state, M)`.

    The free entries F[0..d-2] are good to `last_transport_error` relative to
    the largest of them; the recursion carries their errors to every higher
    order with the absolute values of its weights and divides by |d*theta_d|
    each time, which is how the higher orders lose their digits near the
    boundary theta_d -> 0 while A keeps them.
    """
    if M < 0:
        raise InputError("derivative order must be nonnegative")
    coeffs = state.theta.coeffs
    d = len(coeffs)
    n_base = min(d - 1, M + 1)
    gain = [1.0] * n_base + [0.0] * (M + 1 - n_base)
    weights = [(i, abs(kc)) for i, kc in _weights(coeffs)]
    _close(gain, d, -abs(_lead(coeffs)), weights, [0.0] * max(M - d + 2, 0))
    scale = state.last_transport_error * float(np.max(np.abs(state.F[: d - 1]), initial=0.0))
    return scale * np.array(gain)


def transport(state: HoloStateUni, target: ThetaUni, opts: OdeOptions | None = None) -> HoloStateUni:
    """Move the state along the straight segment to `target`.

    Both endpoints must be interior (negative leading coefficient); since the
    leading coefficient is linear along the segment, the whole path is then
    interior as well.  The d-1 free entries step by Taylor series
    (`_ode.taylor`).  At d = 1 nothing is free, and the state follows from the
    recursion at the target.
    """
    if opts is None:
        opts = OdeOptions()
    src = state.theta
    if target.support is not src.support or target.d != src.d:
        raise InputError("transport endpoints must share support and order")
    for point, name in ((src, "source"), (target, "target")):
        if classify_theta_uni(point).membership is not Membership.INTERIOR:
            raise PathSingularity(
                f"{name} parameter {point.coeffs} is not interior; transport undefined"
            )
    if target.coeffs == src.coeffs:
        return HoloStateUni(target, state.F, 0.0)

    d = src.d
    L = state_length(d)
    series = _segment_series(src, target, _TAYLOR_ORDER)
    F, est = _ode.taylor(series, state.F[: d - 1], opts.rel_tol, opts.max_steps)

    # Re-derive the redundant tail entries so the final state satisfies the
    # recursion exactly at the target point.
    vals = _extend(target.coeffs, target.support, F, L - 1)
    return HoloStateUni(target, np.array(vals), est)


# The general solution of the transport system contains integrals of exp(g)
# over every admissible contour; a contour through a stationary point z* of g
# contributes a solution of size ~ exp(Re g(z*)).  Integration error excites
# those solutions, so their size relative to A bounds how much a transported
# constant can have drifted.  Below _COND_DIRECT the default tolerance is
# trusted; up to _COND_LIMIT a tight-tolerance retry recovers the constant;
# beyond that double precision cannot represent the cancellation on any path
# (the start of every segment from a gamma point carries full weight).
_COND_DIRECT = 1e5
_COND_LIMIT = 1e9
_RETRY_TOL = 1e-13
_EPS = float(np.finfo(float).eps)


def transport_condition(coeffs: Sequence[float], A: float) -> float:
    """Size of the largest homogeneous solution at theta, relative to A.

    Returns exp(max Re g(z*) - log A) over stationary points z* of g,
    clipped below at one; infinite when the supplied constant is unusable.
    """
    if not (math.isfinite(A) and A > 0.0):
        return math.inf
    points = _stationary_points([float(c) for c in coeffs])
    if not points:
        return 1.0
    kappa = max(polyalg.exponent(coeffs, z).real for z in points)
    return math.exp(min(max(kappa - math.log(A), 0.0), 700.0))


def _stationary_points(coeffs: list[float]) -> list[complex]:
    """Roots of g' = sum_k k*theta_k x^(k-1).

    Linear and quadratic g' are solved in closed form (a complex pair by one
    member: Re g agrees on both); higher degrees take the eigenvalues of the
    companion matrix, as `np.roots` would.
    """
    dg = [k * c for k, c in enumerate(coeffs, 1)]
    while dg and dg[-1] == 0.0:
        dg.pop()
    n = len(dg) - 1
    if n <= 0:
        return []
    if n == 1:
        return [-dg[0] / dg[1]]
    if n == 2:
        c, b, a = dg
        disc = b * b - 4.0 * a * c
        if disc < 0.0:
            return [complex(-b / (2.0 * a), math.sqrt(-disc) / (2.0 * a))]
        q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
        return [q / a, c / q] if q != 0.0 else [0.0]
    companion = np.zeros((n, n))
    companion[0, :] = [-v / dg[n] for v in dg[n - 1 :: -1]]
    companion[np.arange(1, n), np.arange(n - 1)] = 1.0
    return np.linalg.eigvals(companion).tolist()


def state_at(
    theta: ThetaUni | Sequence[float],
    opts: OdeOptions | None = None,
    support: Support = Support.HALF_LINE,
    start: HoloStateUni | None = None,
) -> HoloStateUni:
    """Transported state at theta with an amplification-aware error estimate.

    Boundary parameters are reduced to their effective order first, so the
    returned state lives at the reduced parameter.  Transport starts from
    `start` when it has the same order and support (a request at its own
    parameter returns it unchanged), else from the gamma point.  A parameter
    that is its own gamma point (every coefficient but the last zero) gets
    the closed-form state with estimate zero.  When the result is not
    finite, or the homogeneous solutions of the system dwarf A, the
    transport is retried from the gamma point at tight tolerance, and
    parameters whose condition exceeds what double precision can cancel are
    refused rather than answered with noise.  The estimate includes the
    start's own estimate, scaled up where the state shrinks along the way.
    """
    if not isinstance(theta, ThetaUni):
        theta = ThetaUni(theta, support)
    cls = classify_theta_uni(theta)
    if cls.membership is Membership.OUTSIDE:
        raise DivergentIntegral(f"integral diverges at {theta.coeffs}")
    eff = effective_theta(theta)
    if start is not None and start.theta == eff:
        return start
    if not any(eff.coeffs[:-1]):
        return _gamma_state(eff)
    if start is None or start.d != eff.d or start.support is not eff.support:
        start = _gamma_state(eff)
    if opts is None:
        opts = OdeOptions()
    return _accept(start, transport(start, eff, opts), opts)


def _accept(start: HoloStateUni, moved: HoloStateUni, opts: OdeOptions) -> HoloStateUni:
    """The `state_at` verdict on `moved`, a transport of `start` under `opts`.

    The state's condition and moment check decide between keeping it,
    transporting again from the gamma point at tight tolerance, and refusing
    the parameter; the accepted state's estimate carries the start's own.
    `holo_bi.transport_bi` hands its axis states here too, transported
    inside its own ODE.
    """
    eff = moved.theta
    cond = _condition(moved)
    if cond > _COND_DIRECT and _RETRY_TOL < opts.rel_tol:
        start = _gamma_state(eff)
        moved = transport(start, eff, OdeOptions(rel_tol=_RETRY_TOL, max_steps=opts.max_steps))
        cond = _condition(moved)
    if cond > _COND_LIMIT:
        detail = (
            "the transported value lost all significant digits"
            if math.isinf(cond)
            else f"homogeneous solutions ~{cond:.1e} times A"
        )
        raise ToleranceNotMet(
            f"normalizing constant at {tuple(eff.coeffs)} is conditioned beyond "
            f"double-precision transport ({detail}); evaluate this point by "
            "quadrature instead"
        )
    # the start's own error rides along, growing as the state shrinks
    carried = start.last_transport_error * max(
        1.0, float(np.max(np.abs(start.F)) / np.max(np.abs(moved.F)))
    )
    est = (moved.last_transport_error + _EPS) * cond + carried
    return HoloStateUni(moved.theta, moved.F, est)


def _gamma_state(theta: ThetaUni) -> HoloStateUni:
    """`initial_state` at the gamma point of theta's order, scale and support."""
    return initial_state(theta.d, abs(theta.coeffs[-1]), theta.support)


def _condition(state: HoloStateUni) -> float:
    """`transport_condition` of a transported state; infinite unless its
    entries are finite and could be moments of a positive density."""
    if not (np.all(np.isfinite(state.F)) and _moment_like(state.F.tolist(), state.support)):
        return math.inf
    return transport_condition(state.theta.coeffs, state.norm_const)


def _moment_like(F: list[float], support: Support) -> bool:
    """Positivity and Cauchy-Schwarz (F[m]^2 <= F[m-1] F[m+1]) of the entries.

    Every moment of a positive density on the half line is positive, as is
    every even one on the whole line; a transport swamped by a homogeneous
    solution breaks these while its A may still look plausible.
    """
    first = 1 if support is Support.HALF_LINE else 2
    if any(v <= 0.0 for v in F[::first]):
        return False
    return all(F[m] * F[m] <= F[m - 1] * F[m + 1] for m in range(1, len(F) - 1, first))


def norm_const_and_derivs(
    theta: ThetaUni | Sequence[float],
    M: int = 0,
    opts: OdeOptions | None = None,
    support: Support = Support.HALF_LINE,
) -> np.ndarray:
    """A(theta) and its theta_1-derivatives up to order M, via transport.

    Boundary parameters (trailing zero coefficients over an interior core)
    are reduced to their effective order first; the derivative values agree
    because differentiating under the integral sign only sees theta_1.
    Ill-conditioned parameters follow the `state_at` retry and refusal policy.
    """
    return extend_derivatives(state_at(theta, opts, support), M)

