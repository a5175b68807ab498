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
by Taylor series (`_ode.taylor`, which also decides at which order a step's
rows stop).  Starting values come from the one-parameter scale family
(0, ..., 0, -c), where everything reduces to gamma functions.

A move from a state that carries an error of its own (any state but a gamma
point's) steps the variational equations along: the unit columns of its
free entries ride through the same step maps as the state, which gives the
segment's exact Jacobian Phi.  The start's error, carried through Phi, is
part of the moved state's estimate, and `state_at` redoes a move from the
gamma point where that carried part outweighs what a fresh transport
commits.

At order 2 the density is a truncated normal (half line) or a normal (whole
line), and `state_at` answers every interior point in closed form instead:
a scaled erfc, or the Gaussian integral.  It is never refused short of
overflow; the retry and refusal policy applies from order 3 on.

Where the recursion's terms sit depends only on the order d and the number
of entries carried, so that structure is built once per shape
(`_step_tensors`) and shared.  A segment contracts it with its direction,
and each step with theta at the step start, into one matrix from a
coefficient row to the next (`_StepMap`); the bivariate engine carries its
two axis states as two lanes of one such map, whose step matrix
(`_StepMap.step`) goes into the matrix of its own rows, while the
univariate transport takes its rows from the map's one lane
(`_StepMap.series`).
"""

from __future__ import annotations

import cmath
import functools
import math
import numbers
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import _ode, polyalg
from .domain import Membership, Support, ThetaUni, classify_theta_uni, effective_theta
from .errors import (
    DivergentIntegral,
    InputError,
    NonPositiveScale,
    OdeDivergence,
    PathSingularity,
    SingularLeadingCoefficient,
    ToleranceNotMet,
)


def _is_int(v: object) -> bool:
    """Whether v is an integer, numpy's included; a bool is not, though
    Python counts it one."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _order_arg(M: object) -> int:
    """M as an int, once it is known to be a derivative order: an integer
    >= 0.  Orders size the cached level shapes, so they are checked first."""
    if not (_is_int(M) and M >= 0):
        raise InputError(f"derivative order must be an integer >= 0, got {M!r}")
    return int(M)


def _scale_arg(c: object, name: str) -> float:
    """c as a float, once it is a finite positive real (numpy scalars
    included, a bool not); else `NonPositiveScale`."""
    if not (isinstance(c, numbers.Real) and not isinstance(c, bool) and math.isfinite(c) and c > 0):
        raise NonPositiveScale(f"{name} must be positive and finite, got {c!r}")
    return float(c)


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
    from `transport` (at the per-step tolerance 1e-10, or at 1e-13 where
    `state_at` retries), the full `state_at` estimate for a state from there,
    the closed form's own rounding bound for an order-2 state from
    `state_at`, and zero for freshly initialized states.  The full estimate
    of a move from a carried start (one whose own estimate is not zero) is
    the integrator's times the target's condition, plus the start's
    absolute error carried through the move's Jacobian Phi: |Phi| (the
    largest absolute row sum) times the start's estimate times its largest
    free entry, over the moved state's largest free entry.
    """

    __slots__ = ("theta", "F", "last_transport_error", "_carried")

    def __init__(self, theta: ThetaUni, F: np.ndarray, last_transport_error: float = 0.0):
        arr = np.array(F, dtype=float)
        if arr.ndim != 1 or arr.shape[0] != state_length(theta.d):
            raise InputError(
                f"state for order {theta.d} must have {state_length(theta.d)} entries"
            )
        self._fill(theta, arr, float(last_transport_error), None)

    @classmethod
    def _built(
        cls, theta: ThetaUni, F: Sequence[float], error: float, carried: float | None = None
    ) -> HoloStateUni:
        """A state the engine built itself, from state_length(d) floats,
        without the constructor's checks or copy.  `carried` is the start's
        error carried to it through the move's Jacobian (`transport`), None
        where none was carried."""
        state = object.__new__(cls)
        state._fill(theta, np.asarray(F, dtype=float), error, carried)
        return state

    def _fill(self, theta: ThetaUni, F: np.ndarray, error: float, carried: float | None) -> None:
        F.flags.writeable = False
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "last_transport_error", error)
        object.__setattr__(self, "_carried", carried)

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
    c = _scale_arg(c, "initial scale")
    coeffs = [0.0] * d
    coeffs[-1] = -c
    theta = ThetaUni(coeffs, support)
    L = state_length(d)
    F = np.empty(L)
    for m in range(L):
        if support is Support.REAL_LINE and m % 2 == 1:
            F[m] = 0.0
        else:
            factor = 2.0 if support is Support.REAL_LINE else 1.0
            F[m] = factor / d * c ** (-(1 + m) / d) * math.gamma((1 + m) / d)
    return HoloStateUni._built(theta, F, 0.0)


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
    carry[0].  `_StepMap` solves the same equations for all its inputs at
    once, from the tensors of `_step_tensors`.
    """
    for m in range(len(row) - d + 1):
        acc = carry[m]
        if m >= 1:
            acc += m * row[m - 1]
        for i, kc in terms:
            acc += kc * row[i + m]
        row[d - 1 + m] = -acc / lead


class _StepTensors(NamedTuple):
    """What the Taylor rows of `width` carried entries at order d, for
    `lanes` segments at once, do not take from theta or the direction (see
    `_StepMap`), built once per shape.

    The state x = (a[0..width-1], c[0..width]) holds one coefficient row
    of the entries and the carries of the closure's equations.  Closing x
    fills the row F[0..width+d-1]: its first d-1 entries are a's, the rest
    r = K x solve the width+1 equations

        lead*r[m] + sum_p E[m,p] F[p] + c[m] = 0,

    E = E_0 + sum_k theta_k E_k over k = 1..d-1 (E_0 holds m*F[m-1]).
    `closure` holds, for each of the weights (theta_1, ..., theta_{d-1}, 1),
    one flattened row of the coefficients (B | U), with B = E on the a's
    plus the carries' identity and U = E on r, strictly lower triangular.
    `shift` holds, for each of h_1..h_d, the flattened map from a closed
    row to the next state: a[m] gains h_k F[m+k] and c[m] gains
    k*h_k F[m+k-1]; its columns are (P | Q), the free entries placed on the
    state's a columns, then the closed ones.  The lanes' states sit one
    after the other and `free` picks their free entries.  `scale[n]` is
    1/(n+1) on the a rows of one lane's order n+1 and 1 on its carries,
    through the last order of `_ode._ORDERS`.
    """

    closure: np.ndarray
    shift: np.ndarray
    scale: np.ndarray
    free: slice | np.ndarray


@functools.lru_cache(maxsize=32)
def _step_tensors(d: int, width: int, lanes: int) -> _StepTensors:
    n_eq = width + 1
    n_x = width + n_eq
    closure = np.zeros((d, n_eq, n_x + n_eq))
    for m in range(n_eq):
        closure[d - 1, m, width + m] = 1.0  # the carry c[m]
        terms = [(d - 1, m - 1, m)] if m >= 1 else []
        terms += [(k - 1, k - 1 + m, k) for k in range(1, d)]
        for w, p, factor in terms:
            closure[w, m, p if p < d - 1 else n_x + p - (d - 1)] = factor
    shift = np.zeros((d, n_x, n_x + n_eq))
    for k in range(1, d + 1):
        for m, p, factor in [(m, m + k, 1.0) for m in range(width)] + [
            (width + m, m + k - 1, k) for m in range(n_eq)
        ]:
            shift[k - 1, m, p if p < d - 1 else n_x + p - (d - 1)] = factor
    order = _ode._ORDERS[-1]
    scale = np.ones((order, n_x, 1))
    scale[:, :width] = (1.0 / np.arange(1.0, order + 1))[:, None, None]
    free = slice(0, d - 1)
    if lanes > 1:
        free = (np.arange(lanes)[:, None] * n_x + np.arange(d - 1)).ravel()
        free.flags.writeable = False
    closure, shift = closure.reshape(d, -1), shift.reshape(d, -1)  # one row per weight
    for arr in (closure, shift, scale):
        arr.flags.writeable = False  # shared by every caller through the cache
    return _StepTensors(closure, shift, scale, free)


class _StepMap:
    """Taylor rows of the entries F[0..width-1] along segments coeffs + s*h,
    from the d-1 free entries at each step start; one row of `coeffs` and
    `h` per lane, all lanes of one order d.

    Moving along h differentiates as dF[m]/dsigma = sum_k h_k F[m+k], so
    the coefficients a[m][n] of sigma^n obey

        (n+1) a[m][n+1] = sum_k h_k a[m+k][n],

    and the entries from d-1 on follow from `_extend`'s recursion applied
    coefficient by coefficient.  theta(sigma) is linear in sigma, so every
    weight k*theta_k, the leading d*theta_d included, adds one shifted product
    c[m][n] = sum_k k*h_k*a[m+k-1][n-1] to equation m at order n; the leading
    factor stays d*theta_d at sigma = 0, so no series is divided.  Row 1 is
    the transport right-hand side.

    The map from x_n = (a[.][n], c[.][n]) to x_{n+1} is therefore linear,
    and the same at every order but for the factor 1/(n+1) on its a part.
    The shape's tensors (`_step_tensors`) are shared, and each map contracts
    the shift with h once.  Each step (`step`) contracts the closure with
    theta(s), solves it by forward substitution for K (the closure is lower
    triangular, with the leading factor on its diagonal) and forms
    M = H (P + Q K), P and Q being the shift on the free entries and on the
    closed ones.  The lanes' maps go on the diagonal of one matrix; x_0
    holds the boundary term `inhom` as c[0][0], and row 0 is the free
    entries closed to `width`.  `series` runs the products of a map of one
    lane, through the orders `_ode.taylor` asks for; the bivariate transport
    takes M and x_0 of its two lanes from `step` into a matrix of its own
    rows.
    """

    def __init__(
        self, coeffs: np.ndarray, h: np.ndarray, inhom: float, width: int, jacobian: bool = False
    ):
        coeffs = np.array(coeffs, dtype=float, ndmin=2)
        h = np.array(h, dtype=float, ndmin=2)
        self.lanes, self.d = lanes, d = coeffs.shape
        self.width = width
        self.tensors = tensors = _step_tensors(d, width, lanes)
        n_x = 2 * width + 1
        PQ = np.dot(h, tensors.shift).reshape(lanes, n_x, -1)
        self.PQ = [(PQ_lane[:, :n_x], PQ_lane[:, n_x:]) for PQ_lane in PQ]
        self.coeffs, self.h = coeffs, h
        self.lead = [(d * c, d * v) for c, v in zip(coeffs[:, -1].tolist(), h[:, -1].tolist())]
        if jacobian:  # one lane: the state, then a unit column per free entry
            self.x0 = np.eye(n_x, d, 1)
            self.x0[width, 0] = inhom
        else:
            self.x0 = np.zeros(lanes * n_x)
            self.x0[width::n_x] = inhom

    def step(self, s: float, y: Sequence[float], H: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
        """The step matrix M = H (P + Q K) at the step start s, all lanes on
        its diagonal, and x_0: the free entries y = F[0..d-2] at theta(s),
        lane after lane, closed to `width`.  M takes x_n to x_{n+1} but for
        the factor 1/(n+1) on the a rows (`_step_tensors`' scale); a map
        built with `jacobian` returns x_0 as a matrix, the state and then a
        unit column per free entry."""
        d, width, lanes = self.d, self.width, self.lanes
        n_eq = width + 1
        n_x = width + n_eq
        weights = self.coeffs + s * self.h
        weights[:, -1] = 1.0  # the weight of the closure's constant part
        BU = np.dot(weights, self.tensors.closure).reshape(lanes, n_eq, -1)
        x0 = self.x0.copy()
        if x0.ndim == 1:
            x0[self.tensors.free] = y
        else:
            x0[self.tensors.free, 0] = y
        blocks = []
        for lane, ((c, v), (P, Q), BU_lane) in enumerate(zip(self.lead, self.PQ, BU)):
            minus_lead = -(c + s * v)  # -d*theta_d(s)
            if minus_lead == 0.0:
                raise SingularLeadingCoefficient(
                    f"leading coefficient is zero at order {d}; extension undefined"
                )
            B, U = BU_lane[:, :n_x], BU_lane[:, n_x:]
            K = np.empty((n_eq, n_x))
            K[0] = B[0] / minus_lead
            for m in range(1, n_eq):
                j0 = max(m - d, 0)  # U is banded: equation m reaches back d rows
                K[m] = (B[m] + U[m, j0:m].dot(K[j0:m])) / minus_lead
            blocks.append(H * (P + Q.dot(K)))
            if width >= d:
                x0_lane = x0[lane * n_x : (lane + 1) * n_x]
                x0_lane[d - 1 : width] = K[: width - d + 1].dot(x0_lane)
        if lanes == 1:
            return blocks[0], x0
        M = np.zeros((lanes * n_x, lanes * n_x))
        for lane, block in enumerate(blocks):
            M[lane * n_x : (lane + 1) * n_x, lane * n_x : (lane + 1) * n_x] = block
        return M, x0

    def series(self, s: float, y: Sequence[float], H: float = 1.0) -> Callable[[int], np.ndarray]:
        """The step's `rows(N)` for `_ode.taylor`, given the free entries
        y = F[0..d-2] at theta(s), for a map of one lane: rows 0..N of the
        coefficients in t of F[0..width-1] at theta(s + t H), each order
        one product with its pre-scaled step matrix, extended from where
        the last call stopped.  A map built with `jacobian` returns each row
        as a matrix: the row, then its derivatives with respect to each free
        entry."""
        M, x0 = self.step(s, y, H)
        steps = M * self.tensors.scale
        x = np.empty((len(steps) + 1,) + x0.shape)
        x[0] = x0
        done = 0

        def rows(N: int) -> np.ndarray:
            nonlocal done
            for n in range(done, N):
                np.dot(steps[n], x[n], out=x[n + 1])
            done = max(done, N)
            return x[: N + 1, : self.width]

        return rows


def extend_derivatives(state: HoloStateUni, M: int) -> np.ndarray:
    """Derivative orders 0..M at the state's parameter point.

    Orders below d-1 are read off the state; higher ones are recomputed from
    the recursion (including any redundant entries the state also stores, so
    the result is always recursion-consistent).
    """
    M = _order_arg(M)
    return np.array(_extend(state.theta.coeffs, state.support, state.F.tolist(), M))


def derivative_bounds(state: HoloStateUni, M: int) -> np.ndarray:
    """Absolute error bounds of `extend_derivatives(state, M)`.

    The free entries F[0..d-2] are good to `last_transport_error` relative to
    the largest of them; the recursion carries their errors to every higher
    order with the absolute values of its weights and divides by |d*theta_d|
    each time, which is how the higher orders lose their digits near the
    boundary theta_d -> 0 while A keeps them.
    """
    M = _order_arg(M)
    coeffs = state.theta.coeffs
    d = len(coeffs)
    n_base = min(d - 1, M + 1)
    gain = [1.0] * n_base + [0.0] * (M + 1 - n_base)
    weights = [(i, abs(kc)) for i, kc in _weights(coeffs)]
    _close(gain, d, -abs(_lead(coeffs)), weights, [0.0] * max(M - d + 2, 0))
    scale = state.last_transport_error * max(map(abs, state.F[: d - 1].tolist()), default=0.0)
    return scale * np.array(gain)


# The general solution of the transport system contains integrals of exp(g)
# over every admissible contour; a contour through a stationary point z* of g
# contributes a solution of size ~ exp(Re g(z*)).  Integration error excites
# those solutions, so their size relative to A bounds how much a transported
# constant can have drifted.  Below _COND_DIRECT the per-step tolerance
# _REL_TOL is trusted; up to _COND_LIMIT a retry at _RETRY_TOL recovers the
# constant; beyond that double precision cannot represent the cancellation
# on any path (the start of every segment from a gamma point carries full
# weight).
_COND_DIRECT = 1e5
_COND_LIMIT = 1e9
_REL_TOL = 1e-10
_RETRY_TOL = 1e-13
_EPS = float(np.finfo(float).eps)


def transport(state: HoloStateUni, target: ThetaUni, *, rel_tol: float = _REL_TOL) -> HoloStateUni:
    """Move the state along the straight segment to `target`, at per-step
    relative tolerance `rel_tol`.

    Both endpoints must be interior (negative leading coefficient); since the
    leading coefficient is linear along the segment, the whole path is then
    interior as well.  The d-1 free entries step by Taylor series
    (`_ode.taylor`).  At d = 1 nothing is free, and the state follows from the
    recursion at the target.  From a state with a nonzero estimate the
    move also steps the free entries' unit columns, so that `state_at` can
    carry that estimate through the move's Jacobian.
    """
    src = state.theta
    if target.support is not src.support or target.d != src.d:
        raise InputError("transport endpoints must share support and order")
    for point, name in ((src, "source"), (target, "target")):
        if classify_theta_uni(point).membership is not Membership.INTERIOR:
            raise PathSingularity(
                f"{name} parameter {point.coeffs} is not interior; transport undefined"
            )
    if target.coeffs == src.coeffs:
        return HoloStateUni._built(target, state.F, 0.0)

    d = src.d
    L = state_length(d)
    h = np.subtract(target.coeffs, src.coeffs)
    y0 = state.F[: d - 1].tolist()
    carry = d > 1 and state.last_transport_error > 0.0
    step_map = _StepMap(src.coeffs, h, _inhom(src.support), d - 1, carry)
    F, est, *phi = _ode.taylor(step_map.series, y0, rel_tol, carry)

    # Re-derive the redundant tail entries so the final state satisfies the
    # recursion exactly at the target point.
    vals = _extend(target.coeffs, target.support, F, L - 1)
    carried = None
    if carry:
        # |Phi| times the start's absolute error, relative to the moved state
        start_error = state.last_transport_error * max(map(abs, y0))
        carried = max(map(sum, np.abs(phi[0]).tolist())) * start_error / max(*map(abs, F), 1e-300)
    return HoloStateUni._built(target, vals, est, carried)


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

    Linear, quadratic and cubic g' are solved in closed form (a complex pair
    by one member: Re g agrees on both); higher degrees take the eigenvalues
    of the companion matrix, as `np.roots` would.
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
    if n == 3:
        roots = _cubic_roots(dg)
        if roots is not None:
            return roots
    companion = np.zeros((n, n))
    companion[0, :] = [-v / dg[n] for v in dg[n - 1 :: -1]]
    companion[np.arange(1, n), np.arange(n - 1)] = 1.0
    return np.linalg.eigvals(companion).tolist()


def _cubic_roots(dg: list[float]) -> list[complex] | None:
    """Roots of dg[0] + dg[1] x + dg[2] x^2 + dg[3] x^3 (a complex pair by
    one member), from the depressed cubic w^3 + p w + q: Cardano's form
    where it has one real root, the trigonometric form where it has three.
    Two Newton steps polish each root; g is stationary there, so what error
    is left moves Re g only to second order.  None where p and q overflow
    or underflow (the caller then takes the companion matrix)."""
    c, b, a = (v / dg[3] for v in dg[:3])
    p = b - a * a / 3.0
    q = (2.0 * a * a - 9.0 * b) * a / 27.0 + c
    disc = q * q / 4.0 + p * p * p / 27.0
    if not math.isfinite(disc):
        return None
    if disc > 0.0:
        r = -q / 2.0 - math.copysign(math.sqrt(disc), q)  # the larger cube, without cancellation
        u = math.copysign(abs(r) ** (1.0 / 3.0), r)
        v = -p / (3.0 * u)
        roots = [u + v, complex(-(u + v) / 2.0, math.sqrt(3.0) / 2.0 * (u - v))]
    elif p == 0.0:
        roots = [0.0]
    else:
        m = 2.0 * math.sqrt(-p / 3.0) if p < 0.0 else 0.0
        if p * m == 0.0:
            return None
        phi = math.acos(max(-1.0, min(1.0, 3.0 * q / (p * m)))) / 3.0
        roots = [m * math.cos(phi - 2.0 * math.pi * k / 3.0) for k in range(3)]
    polished = []
    for z in roots:
        z -= a / 3.0
        for _ in range(2):
            slope = (3.0 * z + 2.0 * a) * z + b
            if slope:
                z -= (((z + a) * z + b) * z + c) / slope
        polished.append(z)
    return polished if all(map(cmath.isfinite, polished)) else None


def state_at(
    theta: ThetaUni | Sequence[float],
    *,
    support: Support = Support.HALF_LINE,
    start: HoloStateUni | None = None,
) -> HoloStateUni:
    """State at theta with an error estimate: in closed form at order 2, by
    transport with an amplification-aware estimate from order 3 on.

    Boundary parameters are reduced to their effective order first, so the
    returned state lives at the reduced parameter.  A request at the
    parameter of `start` returns it unchanged.  A parameter that is its own
    gamma point (every coefficient but the last zero) gets the closed-form
    state with estimate zero, and every other order-2 parameter its closed
    form (`_gaussian_state`), with the closed form's rounding bound as its
    estimate and `OdeDivergence` where the state overflows; a `start` is
    not used there.  From order 3 on, transport starts from `start` when it
    has the same order and support, else from the gamma point.  A move from
    a carried start (nonzero estimate) adds the start's error, carried
    through the move's Jacobian Phi (see `HoloStateUni`), to its estimate;
    where that carried part exceeds the per-step tolerance (1e-10) times
    the target's condition, the move is redone from the gamma point.  When
    the result is not finite, or the homogeneous solutions of the system
    dwarf A, the transport is retried from the gamma point at the tighter
    tolerance 1e-13, and parameters whose condition exceeds what double
    precision can cancel are refused rather than answered with noise.
    """
    if not isinstance(theta, ThetaUni):
        theta = ThetaUni(theta, support)
    membership = classify_theta_uni(theta).membership
    if membership is Membership.OUTSIDE:
        raise DivergentIntegral(f"integral diverges at {theta.coeffs}")
    eff = theta if membership is Membership.INTERIOR else effective_theta(theta)
    if start is not None and start.theta == eff:
        return start
    if _closed_form(eff):
        return _gaussian_state(eff) if any(eff.coeffs[:-1]) else _gamma_state(eff)
    if start is None or start.d != eff.d or start.support is not eff.support:
        start = _gamma_state(eff)
    return _accept(start, transport(start, eff))


def _accept(start: HoloStateUni, moved: HoloStateUni) -> HoloStateUni:
    """The `state_at` verdict on `moved`, a transport of `start` at the
    per-step tolerance `_REL_TOL`.

    The carried part of the estimate (the start's error through the move's
    Jacobian) may send the move back to the gamma point first; then the
    state's condition and moment check decide between keeping it,
    transporting again from the gamma point at `_RETRY_TOL`, and refusing
    the parameter.  The accepted state's estimate carries the start's own.
    `holo_bi.transport_bi` hands its axis states here too, transported
    inside its own ODE without a Jacobian: for them the start's error is
    scaled up where the state shrinks along the way.
    """
    eff = moved.theta
    cond = _condition(moved)
    carried = moved._carried
    if carried is not None and carried > _REL_TOL * cond:
        # the start's error, carried through the move, outweighs what a
        # fresh transport would commit
        start = _gamma_state(eff)
        moved = transport(start, eff)
        cond = _condition(moved)
        carried = None
    if cond > _COND_DIRECT:
        start = _gamma_state(eff)
        moved = transport(start, eff, rel_tol=_RETRY_TOL)
        cond = _condition(moved)
        carried = None
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
    if carried is None:
        # without the move's Jacobian the start's own error rides along,
        # growing as the state shrinks
        carried = start.last_transport_error * max(
            1.0, float(np.max(np.abs(start.F)) / np.max(np.abs(moved.F)))
        )
    est = (moved.last_transport_error + _EPS) * cond + carried
    return HoloStateUni._built(moved.theta, moved.F, est)


def _closed_form(eff: ThetaUni) -> bool:
    """Whether `state_at` answers the effective parameter eff in closed form,
    with no transport and whatever its start: at its own gamma point (every
    coefficient but the last zero) and at order 2."""
    return eff.d == 2 or not any(eff.coeffs[:-1])


def _gamma_state(theta: ThetaUni) -> HoloStateUni:
    """`initial_state` at the gamma point of theta's order, scale and support."""
    return initial_state(theta.d, abs(theta.coeffs[-1]), theta.support)


# Above this z the half-line erfcx(z) = exp(z^2) erfc(z) comes from its
# asymptotic series: erfc(z) is still a normal float at z = 26, and from
# there on the series' first omitted term, 15!!/(2 z^2)^8, is below 1e-18.
_ERFCX_SERIES_FROM = 26.0


def _gaussian_state(theta: ThetaUni) -> HoloStateUni:
    """The state at an interior order-2 theta, in closed form.

    With c = -theta_2 and z = -theta_1 / (2 sqrt(c)), A is
    sqrt(pi/c)/2 * erfcx(z) on the half line and sqrt(pi/c) * exp(z^2) on
    the whole line; F[1] follows from the recursion.  The estimate is eps
    times z^2 for the rounding of the exponent where one is evaluated, plus
    a few ulps; an A that double precision cannot hold raises
    `OdeDivergence`.
    """
    t1, t2 = theta.coeffs
    c = -t2
    half_line = theta.support is Support.HALF_LINE
    z = -t1 / (2.0 * math.sqrt(c))
    if half_line and z > _ERFCX_SERIES_FROM:
        # erfcx(z) = (1 - w + 3w^2 - 15w^3 + ...) / (z sqrt(pi)), w = 1/(2 z^2),
        # so A is the series over -theta_1, with no exponential at all
        w = 2.0 * c / (t1 * t1)
        series = 1.0
        for k in range(13, 0, -2):
            series = 1.0 - k * w * series
        exponent, A = 0.0, -series / t1
    elif half_line and z > 0.0:
        # exp and erfc of the same rounded z, so their errors in z cancel
        exponent = z * z
        A = math.sqrt(math.pi / c) / 2.0 * math.exp(exponent) * math.erfc(z)
    else:
        exponent = t1 * t1 / (4.0 * c)  # z^2 to within eps * z^2
        factor = math.erfc(z) if half_line else 2.0
        try:
            # in two halves: exp(z^2) overflows before A does when c is large
            root = math.exp(exponent / 2.0)
            A = math.sqrt(math.pi / c) / 2.0 * factor * root * root
        except OverflowError:
            A = math.inf
    F = _extend(theta.coeffs, theta.support, [A], 1)
    if not (A > 0.0 and all(map(math.isfinite, F))):
        raise OdeDivergence(
            f"normalizing constant at {tuple(theta.coeffs)} is not representable "
            "in double precision"
        )
    return HoloStateUni._built(theta, F, _EPS * (exponent + 8.0))


def _condition(state: HoloStateUni) -> float:
    """`transport_condition` of a transported state; infinite unless its
    entries are finite and could be moments of a positive density."""
    F = state.F.tolist()
    if not (all(map(math.isfinite, F)) and _moment_like(F, state.support)):
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
    *,
    support: Support = Support.HALF_LINE,
) -> np.ndarray:
    """A(theta) and its theta_1-derivatives up to order M, via `state_at`.

    Boundary parameters (trailing zero coefficients over an interior core)
    are reduced to their effective order first; the derivative values agree
    because differentiating under the integral sign only sees theta_1.
    Parameters follow the `state_at` policy: closed form at order 2, retry
    and refusal of ill-conditioned points from order 3 on.
    """
    return extend_derivatives(state_at(theta, support=support), M)

