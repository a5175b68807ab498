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

Every level has P(theta) as its square windows: row t of either family
involves only the diagonal entries t..t+d-1, with coefficients that do not
depend on t.  So each level is solved as a few square windows against one
factor of P; `extend_table` then checks the whole level system, rows no
window used included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetri

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


def _flat(i: int, j: int) -> int:
    """Position of T[i, j] in the layout of `base_indices`, extended to any order."""
    n = i + j
    return n * (n + 1) // 2 + j


class AxisStates(NamedTuple):
    """Axis states that `holo_uni.state_at` accepted under `opts`."""

    opts: OdeOptions
    x: HoloStateUni
    y: HoloStateUni


class DerivTableBi:
    """Mixed-derivative table T[(i, j)] = d^{i+j} A / d theta_10^i d theta_01^j.

    Entries cover all i+j <= max_order (at least 2d-4, the transported
    state).  Values are plain floats keyed by (i, j).

    Tables made by `transport_bi` and `extend_table` also carry `axes`: the
    x- and y-axis states that `holo_uni.state_at` accepted at theta, with
    the options they were computed under.  `extend_table`, `boundary_consts`
    and the next `transport_bi` from the table reuse them when called with
    the same options, instead of transporting both axes again from their
    gamma points.  Other tables carry None.
    """

    __slots__ = ("theta", "values", "max_order", "last_transport_error", "axes")

    def __init__(
        self,
        theta: ThetaBi,
        values: Mapping[tuple[int, int], float],
        last_transport_error: float = 0.0,
        axes: AxisStates | None = None,
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
        if axes is not None and (
            axes.x.theta.coeffs != theta.x_axis_coeffs()
            or axes.y.theta.coeffs != theta.y_axis_coeffs()
        ):
            raise InputError("axis states do not belong to the table's parameter")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "max_order", max_order)
        object.__setattr__(self, "last_transport_error", float(last_transport_error))
        object.__setattr__(self, "axes", axes)

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
    theta: ThetaBi | DerivTableBi,
    M: int,
    opts: OdeOptions | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Axis constants (A_x and theta_10-derivatives, A_y and theta_01-derivatives).

    A_x integrates the density restricted to y = 0 and depends only on the
    x-axis coefficients theta_i0, so it is a univariate problem of the same
    degree; symmetrically for A_y.  Both follow the `state_at` retry and
    refusal policy.  Given a table, the axis states it carries are reused.
    """
    axes = _axes_for(theta, opts)
    return extend_derivatives(axes.x, M), extend_derivatives(axes.y, M)


def _level_matrix(top: Sequence, k: int) -> list[list]:
    """Matrix of the order-k level system, in closed form from the top coefficients.

    `top` is (theta_d0, theta_{d-1,1}, ..., theta_0d).  Columns are the
    diagonal X[col] = T[k-col, col]; rows are the x-family equations
    t = 0..q, then the y-family ones, q = k-d+1.  Row t of either family
    involves X[t..t+d-1] only, with coefficients independent of t:

      x-family: sum_c (d-c) theta_{d-c,c} X[t+c]
      y-family: sum_c (c+1) theta_{d-1-c,c+1} X[t+c]

    so rows t0..t0+d-2 of both families form the same square matrix acting
    on X[t0..t0+2d-3] at every level; at k = 2d-3 that is all of P(theta).
    Entries are built by arithmetic alone, so symbolic coefficients work too.
    """
    d = len(top) - 1
    q = k - d + 1
    mat = [[0] * (k + 1) for _ in range(2 * (q + 1))]
    for t in range(q + 1):
        for c in range(d):
            mat[t][t + c] = (d - c) * top[c]
            mat[q + 1 + t][t + c] = (c + 1) * top[c + 1]
    return mat


def _pfaffian_matrix(top: Sequence[float]) -> np.ndarray:
    return np.array(_level_matrix(top, 2 * len(top) - 5), dtype=float)


def _factor(P: np.ndarray) -> tuple[float, np.ndarray]:
    """det P and its transposed inverse, from one LU factorisation.

    Refuses a numerically singular P (|det P| below 1e-12 of its Frobenius
    norm, floored at one) with `SingularSystem`.
    """
    lu, piv, _ = dgetrf(P)
    det = math.prod(lu.diagonal().tolist())
    if sum(i != p for i, p in enumerate(piv.tolist())) % 2:
        det = -det
    if abs(det) < _DETP_RTOL * max(1.0, math.sqrt(float(np.vdot(P, P)))):
        raise SingularSystem(
            f"det P = {det:.3e} is below threshold; parameter lies on or near "
            "the discriminant locus"
        )
    inv, _ = dgetri(lu, piv)
    return det, inv.T


class _LevelPlan:
    """The level solves for orders lo..hi along theta(s) = theta0 + s*h.

    The plan owns a value vector V: the axis constants ax[0..m_ax] and
    ay[0..m_ax], then the table entries in `_flat` layout from offset
    `t_off`.  A level's equations read lower orders and axis constants only,
    so their right-hand sides are G(s) @ V with G(s) = G0 + s*Gh affine in s;
    G0, Gh and P(theta0), P(h) are built once, here.  Each level is solved as
    square windows against one inverse of P(theta(s)): window t0 takes rows
    t0..t0+d-2 of both families and yields X[t0..t0+2d-3].  Windows start
    every 2d-2 columns and the last one ends at column k; where two windows
    overlap, the later one's values are kept.
    """

    def __init__(
        self, d: int, lo: int, hi: int, m_ax: int, theta0: Sequence[float], h: Sequence[float]
    ):
        monos = monomials_bi(d)
        n = 2 * d - 2
        self.hi = hi
        self.m_ax = m_ax
        self.t_off = t_off = 2 * (m_ax + 1)
        self.V = np.zeros(t_off + _flat(0, hi) + 1)
        top = [monos.index((d - c, c)) for c in range(d + 1)]
        self.top0 = [theta0[m] for m in top]
        self.P0 = _pfaffian_matrix(self.top0)
        self.Ph = _pfaffian_matrix([h[m] for m in top])
        lower = [(m, i, j) for m, (i, j) in enumerate(monos) if i + j < d]
        self.levels = []  # (k, G0 in natural row order, slice of V)
        self._steps = []  # (G0, Gh in window row order, windows, gather, view of V)
        for k in range(lo, hi + 1):
            q = k - d + 1
            G0 = np.zeros((2 * (q + 1), self.V.size))
            Gh = np.zeros_like(G0)
            for t in range(q + 1):
                a = q - t  # row (a, t): derivative order a in theta_10, t in theta_01
                rx, ry = t, q + 1 + t
                if a == 0:
                    G0[rx, m_ax + 1 + t] = -1.0  # boundary term ay[t]
                else:
                    G0[rx, t_off + _flat(a - 1, t)] = -a
                if t == 0:
                    G0[ry, a] = -1.0  # boundary term ax[a]
                else:
                    G0[ry, t_off + _flat(a, t - 1)] = -t
                for m, i, j in lower:
                    if i:
                        col = t_off + _flat(a + i - 1, t + j)
                        G0[rx, col] -= i * theta0[m]
                        Gh[rx, col] -= i * h[m]
                    if j:
                        col = t_off + _flat(a + i, t + j - 1)
                        G0[ry, col] -= j * theta0[m]
                        Gh[ry, col] -= j * h[m]
            starts = list(range(0, k - n + 2, n))
            if starts[-1] != k - n + 1:
                starts.append(k - n + 1)
            rows = [
                r for t0 in starts for r in (*range(t0, t0 + d - 1), *range(q + 1 + t0, q + d + t0))
            ]
            asm = np.empty(k + 1, dtype=np.intp)
            for w, t0 in enumerate(starts):
                asm[t0 : t0 + n] = range(w * n, (w + 1) * n)
            cols = slice(t_off + _flat(k, 0), t_off + _flat(0, k) + 1)
            self._steps.append((G0[rows], Gh[rows], len(starts), asm, self.V[cols]))
            self.levels.append((k, G0, cols))

    def factor(self, s: float) -> np.ndarray:
        """Transposed inverse of P(theta(s)), after the singularity test."""
        return _factor(self.P0 + s * self.Ph)[1]

    def solve(self, s: float, pinv_t: np.ndarray) -> None:
        """Fill the levels' entries of V from the lower orders already in it."""
        V = self.V
        for G0, Gh, n_win, asm, out in self._steps:
            rhs = G0.dot(V) + s * Gh.dot(V)
            out[:] = rhs.reshape(n_win, -1).dot(pinv_t).ravel()[asm]

    def check_residuals(self) -> None:
        """Every equation of every level at theta0, windows' or not, must hold."""
        for k, G0, cols in self.levels:
            rhs = G0 @ self.V
            mat = np.array(_level_matrix(self.top0, k), dtype=float)
            resid = float(np.linalg.norm(mat @ self.V[cols] - rhs))
            if resid > _EXTENSION_RTOL * max(1.0, float(np.linalg.norm(rhs))):
                raise InconsistentExtension(
                    f"order-{k} extension equations are inconsistent (residual {resid:.3e})"
                )


def pfaffian_det(theta: ThetaBi) -> float:
    """det P of the square order-(2d-3) system; depends on theta alone.

    Equals d^(d-2) times the discriminant of the dehomogenized top form
    p(t) = sum_i theta_{i,d-i} t^i, so its zero set is the chamber walls;
    no transport is involved.
    """
    return float(np.linalg.det(_pfaffian_matrix(theta.top_coeffs())))


def _load_table(plan: _LevelPlan, table: DerivTableBi, axes: AxisStates) -> None:
    """Put the axis constants and the table's entries into the plan's V."""
    m_ax = plan.m_ax
    plan.V[: m_ax + 1] = extend_derivatives(axes.x, m_ax)
    plan.V[m_ax + 1 : plan.t_off] = extend_derivatives(axes.y, m_ax)
    for (i, j), v in table.values.items():
        if i + j <= plan.hi:
            plan.V[plan.t_off + _flat(i, j)] = v


def assemble_system(
    table: DerivTableBi,
    opts: OdeOptions | None = None,
) -> PfaffianSystemBi:
    """The square order-(2d-3) system P X = Q at the table's parameter point."""
    d = table.d
    k = 2 * d - 3
    theta0 = table.theta.as_vector()
    plan = _LevelPlan(d, k, k, d - 2, theta0, np.zeros_like(theta0))
    _load_table(plan, table, _axes_for(table, opts))
    _, G0, _ = plan.levels[0]
    return PfaffianSystemBi(plan.P0, G0 @ plan.V, _factor(plan.P0)[0])


def extend_table(table: DerivTableBi, M: int, opts: OdeOptions | None = None) -> DerivTableBi:
    """Fill the table through total order M by successive level solves.

    Each level is solved as square windows against one inverse of P(theta);
    the whole level system, rows the windows did not use included, is then
    checked against the result (`InconsistentExtension` past a relative
    residual of 1e-6).  The axis states the table carries are reused.
    """
    if M <= table.max_order:
        return table
    d = table.d
    axes = _axes_for(table, opts)
    m_ax = M - d + 1
    theta0 = table.theta.as_vector()
    plan = _LevelPlan(d, table.max_order + 1, M, m_ax, theta0, np.zeros_like(theta0))
    _load_table(plan, table, axes)
    plan.solve(0.0, plan.factor(0.0))
    plan.check_residuals()
    values = {
        (total - j, j): float(plan.V[plan.t_off + _flat(total - j, j)])
        for total in range(M + 1)
        for j in range(total + 1)
    }
    return DerivTableBi(table.theta, values, table.last_transport_error, axes)


def transport_bi(
    table: DerivTableBi,
    theta_target: ThetaBi,
    opts: OdeOptions | None = None,
) -> DerivTableBi:
    """Move the table along the straight segment to `theta_target`.

    The base entries obey dT[i,j]/ds = sum_ab h_ab T[i+a, j+b], with entries
    above order 2d-4 supplied by level solves at the moving parameter; the
    two univariate axis states ride along in the same ODE so the level solves
    always have current boundary constants.  Each right-hand side evaluation
    builds P(theta(s)) once, tests it for singularity, inverts it and solves
    every level 2d-3..3d-4 as square windows against that inverse, using a
    `_LevelPlan` built once per transport.  The segment must not meet the
    discriminant locus: the sign of D is monitored at every accepted step.

    The source's axis states come from the table when it carries them for
    `opts`; the result carries the states `holo_uni.state_at` accepts at the
    target, so a following `extend_table` or transport needs no axis work.
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
        return DerivTableBi(theta_target, table.values, 0.0, table.axes)

    base = base_indices(d)
    nb = len(base)
    Lu = state_length(d)
    M_ax = max(Lu - 1 + d, 2 * d - 3)
    plan = _LevelPlan(d, 2 * d - 3, 3 * d - 4, M_ax, src_vec, h_vec)
    t_off = plan.t_off
    x_idx = [monos.index((i, 0)) for i in range(1, d + 1)]
    y_idx = [monos.index((0, j)) for j in range(1, d + 1)]
    src_list, h_list = src_vec.tolist(), h_vec.tolist()
    x_pairs = [(src_list[m], h_list[m]) for m in x_idx]
    y_pairs = [(src_list[m], h_list[m]) for m in y_idx]

    # dy = D @ V: the table rows sum h_ab T[i+a, j+b], the axis rows are the
    # univariate transport RHS on the axis constants
    V = plan.V
    D = np.zeros((nb + 2 * Lu, V.size))
    for row, (i, j) in enumerate(base):
        for m, (a, b) in enumerate(monos):
            D[row, t_off + _flat(i + a, j + b)] = h_vec[m]
    for m in range(Lu):
        for i in range(1, d + 1):
            D[nb + m, m + i] = h_vec[x_idx[i - 1]]
            D[nb + Lu + m, M_ax + 1 + m + i] = h_vec[y_idx[i - 1]]

    axes = _axes_for(table, opts)
    y0 = [table.values[st] for st in base] + axes.x.F.tolist() + axes.y.F.tolist()

    src_top = np.array(src.top_coeffs())
    h_top = np.array(theta_target.top_coeffs()) - src_top
    sign0 = math.copysign(1.0, polyalg.discriminant(src_top))

    def check_discriminant(s: float, _y: np.ndarray = None) -> None:
        disc = polyalg.discriminant(src_top + s * h_top)
        if disc == 0.0 or math.copysign(1.0, disc) != sign0:
            raise PathCrossesSingularity(
                f"discriminant changes sign at s={s:.4f} along the segment; "
                "endpoints lie in different chambers, use another initial point"
            )

    check_discriminant(1.0)

    n_y = len(y0)

    def rhs(s: float, y: list[float]) -> list[float]:
        if not all(map(math.isfinite, y)):
            # overflowing trial stage; report non-finite so the step is rejected
            return [math.nan] * n_y
        V[: M_ax + 1] = _extend(
            [c + s * dc for c, dc in x_pairs], Support.HALF_LINE, y[nb : nb + Lu], M_ax
        )
        V[M_ax + 1 : t_off] = _extend(
            [c + s * dc for c, dc in y_pairs], Support.HALF_LINE, y[nb + Lu :], M_ax
        )
        V[t_off : t_off + nb] = y[:nb]
        plan.solve(s, plan.factor(s))
        return D.dot(V).tolist()

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

    values = {st: float(v) for st, v in zip(base, yf)}
    moved = DerivTableBi(theta_target, values, est, _axes_for(theta_target, opts))
    if table.max_order > moved.max_order:
        moved = extend_table(moved, table.max_order, opts)
    return moved


def _axes_for(source: ThetaBi | DerivTableBi, opts: OdeOptions | None) -> AxisStates:
    """Axis states at the source's parameter: a table's own when they were
    accepted under the same options, else fresh ones from `holo_uni.state_at`."""
    if opts is None:
        opts = OdeOptions()
    if isinstance(source, DerivTableBi):
        if source.axes is not None and source.axes.opts == opts:
            return source.axes
        source = source.theta
    return AxisStates(
        opts,
        _axis_state(source.x_axis_coeffs(), opts),
        _axis_state(source.y_axis_coeffs(), opts),
    )


def _axis_state(coeffs: Sequence[float], opts: OdeOptions) -> HoloStateUni:
    axis = ThetaUni(coeffs, Support.HALF_LINE)
    if classify_theta_uni(axis).membership is not Membership.INTERIOR:
        raise AxisOutsideDomain(
            f"axis restriction {tuple(coeffs)} is not an interior univariate parameter"
        )
    return holo_uni.state_at(axis, opts)
