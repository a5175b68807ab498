"""Holonomic transport for bivariate densities on the positive quadrant.

For g(x, y) = sum of theta_ij x^i y^j over 1 <= i+j <= d, differentiating the
normalizing constant A(theta) by theta_ij is the same as applying
d^i/d theta_10^i d^j/d theta_01^j, so the derivative structure lives on a
two-dimensional table T[i, j].  Integration by parts in x (resp. y) ties the
table to the axis-restricted univariate constants A_x, A_y; applying all
mixed derivatives of a fixed total order q to those two identities yields
2(q+1) linear equations for the order-(q+d-1) diagonal of the table.  At
q = d-2 the system is square with matrix P(theta), and det P vanishes exactly
on the discriminant locus of the top-degree form, which partitions the proper
parameter region into chambers; transport must stay inside one chamber.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import _ode, holo_uni, polyalg
from .domain import Membership, Support, ThetaBi, ThetaUni, classify_theta_uni, monomials_bi
from .errors import (
    AxisOutsideDomain,
    InconsistentExtension,
    InputError,
    NonPositiveScale,
    OdeDivergence,
    PathCrossesSingularity,
    PathSingularity,
    SingularSystem,
    UnsupportedOrder,
)
from .holo_uni import HoloStateUni, OdeOptions, _extend, extend_derivatives, state_length

# Axis constants go through `holo_uni.state_at` alone; this binding is kept
# only because bench/tracing.py wraps `holo_bi.transport` by name.
from .holo_uni import transport  # noqa: F401
from .oracle import QuadOptions, quad_A_bi

_DETP_RTOL = 1e-12
_EXTENSION_RTOL = 1e-6


def _require_order(d: int) -> None:
    if d < 2:
        raise UnsupportedOrder(f"bivariate engine needs degree >= 2, got {d}")


def base_indices(d: int) -> list[tuple[int, int]]:
    """Canonical layout of the transported table entries, total order <= 2d-4."""
    out = [(0, 0)]
    for total in range(1, 2 * d - 3):
        out.extend((total - j, j) for j in range(total + 1))
    return out


class DerivTableBi:
    """Mixed-derivative table T[(i, j)] = d^{i+j} A / d theta_10^i d theta_01^j.

    Entries cover all i+j <= max_order (at least 2d-4, the transported
    state).  Values are plain floats keyed by (i, j).
    """

    __slots__ = ("theta", "values", "max_order", "last_transport_error")

    def __init__(
        self,
        theta: ThetaBi,
        values: Mapping[tuple[int, int], float],
        last_transport_error: float = 0.0,
    ):
        _require_order(theta.d)
        vals = {(int(i), int(j)): float(v) for (i, j), v in values.items()}
        orders = sorted({i + j for i, j in vals})
        max_order = orders[-1] if orders else -1
        if max_order < 2 * theta.d - 4:
            raise InputError(f"table must be filled through order {2 * theta.d - 4}")
        for total in range(max_order + 1):
            for j in range(total + 1):
                if (total - j, j) not in vals:
                    raise InputError(f"table is missing entry {(total - j, j)}")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "max_order", max_order)
        object.__setattr__(self, "last_transport_error", float(last_transport_error))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("DerivTableBi is immutable")

    @property
    def d(self) -> int:
        return self.theta.d

    @property
    def T(self) -> Mapping[tuple[int, int], float]:
        return dict(self.values)

    @property
    def norm_const(self) -> float:
        return self.values[(0, 0)]

    def entry(self, i: int, j: int) -> float:
        return self.values[(i, j)]

    def __repr__(self) -> str:
        return (
            f"DerivTableBi(d={self.d}, max_order={self.max_order}, "
            f"A={self.norm_const!r})"
        )


@dataclass(frozen=True)
class PfaffianSystemBi:
    """Square linear system P X = Q for the order-(2d-3) table diagonal."""

    P: np.ndarray
    Q: np.ndarray
    det_p: float

    def __post_init__(self) -> None:
        self.P.flags.writeable = False
        self.Q.flags.writeable = False

    def solve(self) -> np.ndarray:
        return np.linalg.solve(self.P, self.Q)


def initial_state_bi(d: int, c1: float, c2: float) -> DerivTableBi:
    """Product-point table at theta_d0 = -c1, theta_0d = -c2, all else zero.

    The density factors, so every entry is a product of two univariate gamma
    moments: T[i, j] = (Gamma((i+1)/d) c1^{-(i+1)/d} / d) * (same in j, c2).
    """
    _require_order(d)
    for name, c in (("c1", c1), ("c2", c2)):
        if not (isinstance(c, (int, float)) and math.isfinite(c) and c > 0):
            raise NonPositiveScale(f"{name} must be positive and finite, got {c!r}")
    theta = ThetaBi(d, {(d, 0): -float(c1), (0, d): -float(c2)})

    def gamma_moment(m: int, c: float) -> float:
        return c ** (-(m + 1) / d) * math.gamma((m + 1) / d) / d

    values = {
        (i, j): gamma_moment(i, c1) * gamma_moment(j, c2)
        for (i, j) in base_indices(d)
    }
    return DerivTableBi(theta, values)


def table_from_oracle(theta: ThetaBi, opts: QuadOptions | None = None) -> DerivTableBi:
    """Seed a transport state by direct quadrature of every base entry.

    Intended for starting points in chambers that contain no product point,
    where `initial_state_bi` cannot be used; one quadrature pass here replaces
    per-iteration integration later.
    """
    _require_order(theta.d)
    if opts is None:
        opts = QuadOptions()
    values = {st: quad_A_bi(theta, st, opts) for st in base_indices(theta.d)}
    return DerivTableBi(theta, values)


def boundary_consts(
    theta: ThetaBi,
    M: int,
    opts: OdeOptions | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Axis constants (A_x and theta_10-derivatives, A_y and theta_01-derivatives).

    A_x integrates the density restricted to y = 0 and depends only on the
    x-axis coefficients theta_i0, so it is a univariate problem of the same
    degree; symmetrically for A_y.  Both follow the `state_at` retry and
    refusal policy.
    """
    ax = extend_derivatives(_axis_state(theta.x_axis_coeffs(), opts), M)
    ay = extend_derivatives(_axis_state(theta.y_axis_coeffs(), opts), M)
    return ax, ay


def _level_system(
    d: int,
    k: int,
    theta_map: Mapping[tuple[int, int], float],
    T: np.ndarray,
    ax: Sequence[float],
    ay: Sequence[float],
) -> tuple[np.ndarray, np.ndarray]:
    """Equations for the order-k diagonal X[col] = T[k-col, col].

    Applying each mixed derivative of total order q = k-d+1 to the two
    integration-by-parts identities gives rows indexed by (s, t), s+t = q:

      x-family: sum_{i+j=d, i>=1} i theta_ij X[t+j] = -([s=0] ay[t] + phi(s,t)A)
      y-family: sum_{i+j=d, j>=1} j theta_ij X[t+j-1] = -([t=0] ax[s] + psi(s,t)A)

    where phi/psi collect the lower-order terms (including the Leibniz term
    from differentiating the theta_10 / theta_01 coefficient itself).
    """
    q = k - d + 1
    n_rows = 2 * (q + 1)
    mat = np.zeros((n_rows, k + 1))
    rhs = np.zeros(n_rows)
    interior = [(i, j) for (i, j) in monomials_bi(d) if 2 <= i + j <= d - 1]
    for r in range(q + 1):
        s, t = q - r, r
        # x-family row
        for i in range(1, d + 1):
            j = d - i
            mat[r, t + j] = i * theta_map[(i, j)]
        acc = ay[t] if s == 0 else 0.0
        if s >= 1:
            acc += s * T[s - 1, t]
        acc += theta_map[(1, 0)] * T[s, t]
        for i, j in interior:
            if i >= 1:
                acc += i * theta_map[(i, j)] * T[s + i - 1, t + j]
        rhs[r] = -acc
        # y-family row
        for j in range(1, d + 1):
            i = d - j
            mat[q + 1 + r, t + j - 1] = j * theta_map[(i, j)]
        acc = ax[s] if t == 0 else 0.0
        if t >= 1:
            acc += t * T[s, t - 1]
        acc += theta_map[(0, 1)] * T[s, t]
        for i, j in interior:
            if j >= 1:
                acc += j * theta_map[(i, j)] * T[s + i, t + j - 1]
        rhs[q + 1 + r] = -acc
    return mat, rhs


def _solve_level(
    d: int,
    k: int,
    theta_map: Mapping[tuple[int, int], float],
    T: np.ndarray,
    ax: Sequence[float],
    ay: Sequence[float],
    strict: bool = True,
) -> np.ndarray:
    """Solve one diagonal.  `strict` asserts least-squares consistency; the
    transport RHS turns that off because integrator trial stages sit slightly
    off the holonomic manifold by construction."""
    mat, rhs = _level_system(d, k, theta_map, T, ax, ay)
    if mat.shape[0] == mat.shape[1]:
        det = float(np.linalg.det(mat))
        scale = max(1.0, float(np.linalg.norm(mat)))
        if abs(det) < _DETP_RTOL * scale:
            raise SingularSystem(
                f"level-{k} system is numerically singular (det {det:.3e}); "
                "parameter is on or near the discriminant locus"
            )
        return np.linalg.solve(mat, rhs)
    sol, _, _, _ = np.linalg.lstsq(mat, rhs, rcond=None)
    if strict:
        resid = float(np.linalg.norm(mat @ sol - rhs))
        if resid > _EXTENSION_RTOL * max(1.0, float(np.linalg.norm(rhs))):
            raise InconsistentExtension(
                f"order-{k} extension equations are inconsistent (residual {resid:.3e})"
            )
    return sol


def _table_array(d: int, M: int, values: Mapping[tuple[int, int], float]) -> np.ndarray:
    T = np.zeros((M + 1, M + 1))
    for (i, j), v in values.items():
        if i + j <= M:
            T[i, j] = v
    return T


def _extend_array(
    d: int,
    T: np.ndarray,
    from_order: int,
    to_order: int,
    theta_map: Mapping[tuple[int, int], float],
    ax: Sequence[float],
    ay: Sequence[float],
    strict: bool = True,
) -> None:
    for k in range(from_order + 1, to_order + 1):
        X = _solve_level(d, k, theta_map, T, ax, ay, strict)
        for col in range(k + 1):
            T[k - col, col] = X[col]


def pfaffian_det(theta: ThetaBi) -> float:
    """det P of the square order-(2d-3) system; depends on theta alone.

    Equals d^(d-2) times the discriminant of the dehomogenized top form
    p(t) = sum_i theta_{i,d-i} t^i, so its zero set is the chamber walls;
    no transport is involved.
    """
    d = theta.d
    T = np.zeros((2 * d - 2, 2 * d - 2))
    zeros = np.zeros(d - 1)
    mat, _ = _level_system(d, 2 * d - 3, theta.coeffs, T, zeros, zeros)
    return float(np.linalg.det(mat))


def assemble_system(
    table: DerivTableBi,
    opts: OdeOptions | None = None,
) -> PfaffianSystemBi:
    """The square order-(2d-3) system P X = Q at the table's parameter point."""
    d = table.d
    k = 2 * d - 3
    ax, ay = boundary_consts(table.theta, d - 2, opts)
    T = _table_array(d, max(table.max_order, k), table.values)
    P, Q = _level_system(d, k, table.theta.coeffs, T, ax, ay)
    det = float(np.linalg.det(P))
    scale = max(1.0, float(np.linalg.norm(P)))
    if abs(det) < _DETP_RTOL * scale:
        raise SingularSystem(
            f"det P = {det:.3e} is below threshold; parameter lies on or near "
            "the discriminant locus"
        )
    return PfaffianSystemBi(P, Q, det)


def extend_table(table: DerivTableBi, M: int, opts: OdeOptions | None = None) -> DerivTableBi:
    """Fill the table through total order M by successive level solves."""
    if M <= table.max_order:
        return table
    d = table.d
    ax, ay = boundary_consts(table.theta, max(M - d + 1, d - 2), opts)
    T = _table_array(d, M, table.values)
    _extend_array(d, T, table.max_order, M, table.theta.coeffs, ax, ay)
    values = {
        (total - j, j): float(T[total - j, j])
        for total in range(M + 1)
        for j in range(total + 1)
    }
    return DerivTableBi(table.theta, values, table.last_transport_error)


def transport_bi(
    table: DerivTableBi,
    theta_target: ThetaBi,
    opts: OdeOptions | None = None,
) -> DerivTableBi:
    """Move the table along the straight segment to `theta_target`.

    The base entries obey dT[i,j]/ds = sum_ab h_ab T[i+a, j+b], with entries
    above order 2d-4 supplied by level solves at the moving parameter; the
    two univariate axis states ride along in the same ODE so the level solves
    always have current boundary constants.  The segment must not meet the
    discriminant locus: the sign of D is monitored at every accepted step.
    """
    if opts is None:
        opts = OdeOptions()
    d = table.d
    src = table.theta
    if theta_target.d != d:
        raise InputError("transport endpoints must have the same degree")
    from .domain import in_proper_bivariate_space

    for theta, name in ((src, "source"), (theta_target, "target")):
        if not in_proper_bivariate_space(theta):
            raise PathSingularity(f"{name} parameter is outside the proper region")

    monos = monomials_bi(d)
    src_vec = src.as_vector()
    h_vec = theta_target.as_vector() - src_vec
    if not np.any(h_vec):
        return DerivTableBi(theta_target, table.values, 0.0)

    base = base_indices(d)
    nb = len(base)
    Lu = state_length(d)
    M_tab = 3 * d - 4
    M_ax = max(Lu - 1 + d, 2 * d - 3)
    x_idx = [monos.index((i, 0)) for i in range(1, d + 1)]
    y_idx = [monos.index((0, j)) for j in range(1, d + 1)]
    h_x = [h_vec[i] for i in x_idx]
    h_y = [h_vec[i] for i in y_idx]

    fx0 = _axis_state(src.x_axis_coeffs(), opts).F
    fy0 = _axis_state(src.y_axis_coeffs(), opts).F
    y0 = np.concatenate([[table.values[st] for st in base], fx0, fy0])

    src_top = np.array(src.top_coeffs())
    h_top = np.array(theta_target.top_coeffs()) - src_top
    sign0 = math.copysign(1.0, polyalg.discriminant(src_top))

    def check_discriminant(s: float, _y: np.ndarray = None) -> None:
        D = polyalg.discriminant(src_top + s * h_top)
        if D == 0.0 or math.copysign(1.0, D) != sign0:
            raise PathCrossesSingularity(
                f"discriminant changes sign at s={s:.4f} along the segment; "
                "endpoints lie in different chambers, use another initial point"
            )

    check_discriminant(1.0)

    def rhs(s: float, y: np.ndarray) -> np.ndarray:
        if not np.all(np.isfinite(y)):
            # overflowing trial stage; report non-finite so the step is rejected
            return np.full_like(y, np.nan)
        coeffs_s = src_vec + s * h_vec
        theta_map = dict(zip(monos, coeffs_s))
        x_ax = [coeffs_s[i] for i in x_idx]
        y_ax = [coeffs_s[i] for i in y_idx]
        Fx = y[nb : nb + Lu]
        Fy = y[nb + Lu :]
        ax = _extend(x_ax, Support.HALF_LINE, Fx, M_ax)
        ay = _extend(y_ax, Support.HALF_LINE, Fy, M_ax)
        T = np.zeros((M_tab + 1, M_tab + 1))
        for idx, (i, j) in enumerate(base):
            T[i, j] = y[idx]
        _extend_array(d, T, 2 * d - 4, M_tab, theta_map, ax, ay, strict=False)
        dy = np.empty_like(y)
        for idx, (i, j) in enumerate(base):
            dy[idx] = sum(
                h_vec[m] * T[i + a, j + b] for m, (a, b) in enumerate(monos)
            )
        for m in range(Lu):
            dy[nb + m] = sum(h_x[i - 1] * ax[m + i] for i in range(1, d + 1))
            dy[nb + Lu + m] = sum(h_y[j - 1] * ay[m + j] for j in range(1, d + 1))
        return dy

    try:
        if opts.method == "rk4":
            seg_len = float(np.linalg.norm(h_vec))
            n_steps = max(2, math.ceil(opts.step_density * seg_len))
            yf, est = _ode.rk4_with_estimate(rhs, y0, n_steps, check_discriminant)
        else:
            yf, est = _ode.dopri45(rhs, y0, opts.rel_tol, opts.max_steps, check_discriminant)
    except SingularSystem as exc:
        raise PathCrossesSingularity(
            f"transport hit a singular level system: {exc}"
        ) from exc
    except OdeDivergence:
        # distinguish a genuine stiffness failure from stalling against the
        # chamber wall, which endpoint sign checks alone can miss when the
        # segment crosses the locus an even number of times
        for s in np.linspace(0.0, 1.0, 201):
            check_discriminant(float(s))
        raise

    values = {st: float(yf[idx]) for idx, st in enumerate(base)}
    moved = DerivTableBi(theta_target, values, est)
    if table.max_order > moved.max_order:
        moved = extend_table(moved, table.max_order, opts)
        moved = DerivTableBi(theta_target, moved.values, est)
    return moved


def _axis_state(coeffs: Sequence[float], opts: OdeOptions | None) -> HoloStateUni:
    axis = ThetaUni(coeffs, Support.HALF_LINE)
    if classify_theta_uni(axis).membership is not Membership.INTERIOR:
        raise AxisOutsideDomain(
            f"axis restriction {tuple(coeffs)} is not an interior univariate parameter"
        )
    return holo_uni.state_at(axis, opts)
