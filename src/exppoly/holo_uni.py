"""Holonomic transport of normalizing constants for univariate densities.

The normalizing constant A(theta) of exp(theta_1 x + ... + theta_d x^d) over
the half line (or whole line, even d) satisfies a holonomic system: every
partial derivative with respect to theta_k equals the k-th derivative in
theta_1 direction, and integration by parts closes those derivatives into a
finite-dimensional recursion.  A state vector of low-order theta_1-derivatives
is therefore enough to reconstruct all of them, and moving theta along a
segment turns the recursion into a linear ODE for the state (gradient
transport).  Starting values come from the one-parameter scale family
(0, ..., 0, -c), where everything reduces to gamma functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul
from typing import Sequence

import numpy as np

from . import _ode
from .domain import Membership, Support, ThetaUni, classify_theta_uni, effective_theta
from .errors import (
    DivergentIntegral,
    InputError,
    NonPositiveScale,
    PathSingularity,
    SingularLeadingCoefficient,
    ToleranceNotMet,
    UnsupportedOrder,
)


@dataclass(frozen=True)
class OdeOptions:
    """Transport integrator settings.

    method: "adaptive" (embedded 5(4) pair, default) or "rk4" (fixed step).
    rel_tol: per-step relative tolerance for the adaptive method.
    step_density: fixed-mode steps per unit euclidean parameter distance.
    max_steps: adaptive-mode step budget before giving up.
    """

    method: str = "adaptive"
    rel_tol: float = 1e-10
    step_density: float = 1000.0
    max_steps: int = 200_000

    def __post_init__(self) -> None:
        if self.method not in ("adaptive", "rk4"):
            raise InputError(f"unknown transport method {self.method!r}")
        if not (self.rel_tol > 0.0 and math.isfinite(self.rel_tol)):
            raise InputError("rel_tol must be positive and finite")
        if not (self.step_density > 0.0):
            raise InputError("step_density must be positive")


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
    derivative directly.  `last_transport_error` is the integrator's
    accumulated relative error estimate for the move that produced the state
    (zero for freshly initialized states).
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
    lead = d * coeffs[-1]
    if lead == 0.0:
        raise SingularLeadingCoefficient(
            f"leading coefficient is zero at order {d}; extension undefined"
        )
    inhom = 1.0 if support is Support.HALF_LINE else 0.0
    vals = [0.0] * (M + 1)
    n_base = min(d - 1, M + 1)
    vals[:n_base] = [float(v) for v in base[:n_base]]
    # (k-1, k*theta_k) for the nonzero lower coefficients
    terms = [(k - 1, k * ck) for k, ck in enumerate(coeffs[: d - 1], 1) if ck != 0.0]
    for m in range(M - d + 2):
        acc = inhom if m == 0 else 0.0
        if m >= 1:
            acc += m * vals[m - 1]
        for i, kc in terms:
            acc += kc * vals[i + m]
        vals[d - 1 + m] = -acc / lead
    return vals


def extend_derivatives(state: HoloStateUni, M: int) -> np.ndarray:
    """Derivative orders 0..M at the state's parameter point.

    Orders below d-1 are read off the state; higher ones are recomputed from
    the recursion (including any redundant entries the state also stores, so
    the result is always recursion-consistent).
    """
    if M < 0:
        raise InputError("derivative order must be nonnegative")
    return np.array(_extend(state.theta.coeffs, state.support, state.F, M))


def transport(state: HoloStateUni, target: ThetaUni, opts: OdeOptions | None = None) -> HoloStateUni:
    """Move the state along the straight segment to `target`.

    Both endpoints must be interior (negative leading coefficient); since the
    leading coefficient is linear along the segment, the whole path is then
    interior as well.
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
    h = np.array(target.coeffs) - np.array(src.coeffs)
    seg_len = float(np.linalg.norm(h))
    if seg_len == 0.0:
        return HoloStateUni(target, state.F, 0.0)

    d = src.d
    L = state_length(d)
    support = src.support
    src_coeffs = src.coeffs
    M = L - 1 + d
    h_list = h.tolist()

    def rhs(s: float, y: list[float]) -> list[float]:
        vals = _extend([c + s * hk for c, hk in zip(src_coeffs, h_list)], support, y, M)
        return [sum(map(mul, h_list, vals[m : m + d])) for m in range(1, L + 1)]

    if opts.method == "rk4":
        n_steps = max(2, math.ceil(opts.step_density * seg_len))
        F, est = _ode.rk4_with_estimate(rhs, state.F, n_steps)
    else:
        F, est = _ode.dopri45(rhs, state.F, opts.rel_tol, opts.max_steps)

    # Re-derive the redundant tail entries so the final state satisfies the
    # recursion exactly at the target point.
    vals = _extend(target.coeffs, support, F, L - 1)
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
    d = len(coeffs)
    dg = [(k + 1) * float(coeffs[k]) for k in range(d)]
    roots = np.roots(dg[::-1])
    if roots.size == 0:
        return 1.0
    g_desc = np.concatenate((np.asarray(coeffs, dtype=float)[::-1], [0.0]))
    kappa = float(np.max(np.polyval(g_desc, roots).real))
    return math.exp(min(max(kappa - math.log(A), 0.0), 700.0))


def state_at(
    theta: ThetaUni | Sequence[float],
    opts: OdeOptions | None = None,
    support: Support = Support.HALF_LINE,
) -> HoloStateUni:
    """Transported state at theta with an amplification-aware error estimate.

    Boundary parameters are reduced to their effective order first, so the
    returned state lives at the reduced parameter.  When the homogeneous
    solutions of the system dwarf A the transport is retried at tight
    tolerance, and parameters whose condition exceeds what double precision
    can cancel are refused rather than answered with noise.
    """
    if not isinstance(theta, ThetaUni):
        theta = ThetaUni(theta, support)
    cls = classify_theta_uni(theta)
    if cls.membership is Membership.OUTSIDE:
        raise DivergentIntegral(f"integral diverges at {theta.coeffs}")
    eff = effective_theta(theta)
    start = initial_state(eff.d, abs(eff.coeffs[-1]), eff.support)
    moved = transport(start, eff, opts)
    cond = transport_condition(eff.coeffs, moved.norm_const)
    if cond > _COND_DIRECT and (opts is None or opts.method == "adaptive"):
        base_tol = opts.rel_tol if opts is not None else OdeOptions().rel_tol
        if _RETRY_TOL < base_tol:
            retry = OdeOptions(
                rel_tol=_RETRY_TOL,
                max_steps=opts.max_steps if opts is not None else OdeOptions().max_steps,
            )
            moved = transport(start, eff, retry)
            cond = transport_condition(eff.coeffs, moved.norm_const)
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
    est = (moved.last_transport_error + _EPS) * cond
    return HoloStateUni(moved.theta, moved.F, est)


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


def prefactor_norm_const(
    eta: Sequence[float],
    theta: ThetaUni | Sequence[float],
    opts: OdeOptions | None = None,
    support: Support = Support.HALF_LINE,
) -> float:
    """Integral of (eta_0 + eta_1 x + ... + eta_h x^h) exp(g_theta(x)).

    Linearity turns the polynomial prefactor into a combination of the
    derivative vector: the x^i moment is the i-th theta_1-derivative of A.
    """
    eta_arr = [float(v) for v in eta]
    if len(eta_arr) == 0:
        raise InputError("prefactor must have at least one coefficient")
    if not all(math.isfinite(v) for v in eta_arr):
        raise InputError("prefactor coefficients must be finite")
    derivs = norm_const_and_derivs(theta, len(eta_arr) - 1, opts, support)
    return float(np.dot(eta_arr, derivs))


def mixed_partial_index(orders: Sequence[int]) -> int:
    """Map a mixed-partial multi-index to its theta_1-derivative order.

    Differentiating A by theta_k brings down x^k, so the mixed partial with
    multiplicities (j_1, ..., j_d) equals the pure theta_1-derivative of order
    j_1 + 2 j_2 + ... + d j_d.
    """
    orders = list(orders)
    if len(orders) == 0:
        raise InputError("multi-index must be nonempty")
    if any((not isinstance(j, (int, np.integer))) or j < 0 for j in orders):
        raise UnsupportedOrder("multi-index entries must be nonnegative integers")
    return int(sum((k + 1) * j for k, j in enumerate(orders)))
