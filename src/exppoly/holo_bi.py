"""Holonomic transport for bivariate densities on the positive quadrant.

For g(x, y) = sum of theta_ij x^i y^j over 1 <= i+j <= d, differentiating the
normalizing constant A(theta) by theta_ij is the same as applying
d^i/d theta_10^i d^j/d theta_01^j, so the derivative structure lives on a
two-dimensional table T[i, j].  Integration by parts in x (resp. y) ties the
table to the axis-restricted univariate constants A_x, A_y; applying all
mixed derivatives of a fixed total order q to those two identities yields
2(q+1) linear equations for the order-(q+d-1) diagonal of the table, which
is stored flat, diagonal after diagonal (`DerivTableBi.F`).  At q = d-2 the
system is square with matrix P(theta), and det P vanishes exactly on the
discriminant locus of the top-degree form, which partitions the proper
parameter region into chambers; transport must stay inside one chamber.

Every level has P(theta) as its square windows: row t of either family
involves only the diagonal entries t..t+d-1, with coefficients that do not
depend on t.  So each level is solved as a few square windows against one
factor of P; `extend_table` then checks the whole level system, rows no
window used included.

`transport_bi` steps the table by Taylor series: along a segment P and the
levels' right-hand sides are affine in the parameter, so each row of Taylor
coefficients follows from the previous one by the same window solves, against
one factor of P per step.  The two axis states ride in the same series, and
at the end they go through the univariate acceptance step, not a second
transport.  Before any step, the discriminant along the segment, a polynomial
of degree 2d-2, is interpolated and its real roots in [0, 1] are counted, so
a path that meets a wall anywhere is refused.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from . import _ode, holo_uni, polyalg
from .domain import (
    Membership,
    Support,
    ThetaBi,
    ThetaUni,
    classify_theta_uni,
    in_proper_bivariate_space,
    monomials_bi,
)
from .errors import (
    AxisOutsideDomain,
    InconsistentExtension,
    InputError,
    NonPositiveScale,
    NonSquarefree,
    OdeDivergence,
    PathCrossesSingularity,
    PathSingularity,
    SingularSystem,
    UnsupportedOrder,
)
from .holo_uni import (
    HoloStateUni,
    OdeOptions,
    _extend,
    _series,
    extend_derivatives,
    state_length,
)

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
    return _indices(2 * d - 4)


def _indices(order: int) -> list[tuple[int, int]]:
    """The (i, j) of every entry through total `order`, in `_flat` order."""
    return [(n - j, j) for n in range(order + 1) for j in range(n + 1)]


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
    """Mixed-derivative table T[i, j] = d^{i+j} A / d theta_10^i d theta_01^j.

    `F` is a read-only vector, like `HoloStateUni.F`, with T[i, j] at
    `_flat(i, j)` (by total order, then by j) for every i+j <= max_order,
    at least 2d-4 (the transported state).  `entry`, `norm_const` and
    `values`, a dict keyed by (i, j), read it.

    Tables made by `transport_bi` and `extend_table` also carry `axes`: the
    x- and y-axis states that `holo_uni.state_at` accepted at theta, with
    the options they were computed under.  `extend_table`, `boundary_consts`
    and the next `transport_bi` from the table reuse them when called with
    the same options, instead of transporting both axes again from their
    gamma points.  Other tables carry None.
    """

    __slots__ = ("theta", "F", "max_order", "last_transport_error", "axes")

    def __init__(
        self,
        theta: ThetaBi,
        F: Sequence[float] | np.ndarray,
        last_transport_error: float = 0.0,
        axes: AxisStates | None = None,
    ):
        _require_order(theta.d)
        try:
            arr = np.array(F, dtype=float)
        except (TypeError, ValueError) as exc:
            raise InputError(f"table entries must be a float vector: {exc}") from exc
        n = arr.shape[0] if arr.ndim == 1 else 0
        max_order = (math.isqrt(8 * n + 1) - 3) // 2
        if max_order < 2 * theta.d - 4 or _flat(0, max_order) + 1 != n:
            raise InputError(f"table needs (m+1)(m+2)/2 entries in a vector, m >= {2 * theta.d - 4}")
        if axes is not None and (
            axes.x.theta.coeffs != theta.x_axis_coeffs()
            or axes.y.theta.coeffs != theta.y_axis_coeffs()
        ):
            raise InputError("axis states do not belong to the table's parameter")
        arr.flags.writeable = False
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "F", arr)
        object.__setattr__(self, "max_order", max_order)
        object.__setattr__(self, "last_transport_error", float(last_transport_error))
        object.__setattr__(self, "axes", axes)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("DerivTableBi is immutable")

    @property
    def d(self) -> int:
        return self.theta.d

    @property
    def values(self) -> dict[tuple[int, int], float]:
        return dict(zip(_indices(self.max_order), self.F.tolist()))

    @property
    def norm_const(self) -> float:
        return float(self.F[0])

    def entry(self, i: int, j: int) -> float:
        if min(i, j) < 0 or i + j > self.max_order:
            raise KeyError((i, j))
        return float(self.F[_flat(i, j)])

    def __repr__(self) -> str:
        return (
            f"DerivTableBi(d={self.d}, max_order={self.max_order}, "
            f"A={self.norm_const!r})"
        )


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

    return DerivTableBi(
        theta, [gamma_moment(i, c1) * gamma_moment(j, c2) for i, j in base_indices(d)]
    )


def table_from_oracle(theta: ThetaBi, opts: QuadOptions | None = None) -> DerivTableBi:
    """Seed a transport state by direct quadrature of every base entry.

    Intended for starting points in chambers that contain no product point,
    where `initial_state_bi` cannot be used; one quadrature pass here replaces
    per-iteration integration later.
    """
    _require_order(theta.d)
    if opts is None:
        opts = QuadOptions()
    return DerivTableBi(theta, [quad_A_bi(theta, st, opts) for st in base_indices(theta.d)])


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
    """det P and its inverse, by `np.linalg.det` and `np.linalg.inv`.

    Refuses a numerically singular P (|det P| below 1e-12 of its Frobenius
    norm, floored at one) with `SingularSystem` before inverting it.  Each
    call factors P twice, about 10 us more than one LU shared by both at
    n <= 2d-2; in return the transport path does not load scipy.
    """
    det = float(np.linalg.det(P))
    if abs(det) < _DETP_RTOL * max(1.0, math.sqrt(float(np.vdot(P, P)))):
        raise SingularSystem(
            f"det P = {det:.3e} is below threshold; parameter lies on or near "
            "the discriminant locus"
        )
    return det, np.linalg.inv(P)


class _LevelPlan:
    """The level solves for orders lo..hi along theta(s) = theta0 + s*h.

    Values live in a vector V: the axis constants ax[0..m_ax] and ay[0..m_ax],
    then the table entries in `_flat` layout from offset `t_off`.  A level's
    equations read lower orders and axis constants only, so they read
    P(theta(s)) X = G(s) V with G(s) = G0 + s*Gh affine in s; G0, Gh and
    P(theta0), P(h) are built once, here.  Each level is solved as square
    windows against one inverse of P(theta(s)): window t0 takes rows
    t0..t0+d-2 of both families and yields X[t0..t0+2d-3].  Windows start
    every 2d-2 columns and the last one ends at column k; where two windows
    overlap, the later one's values are kept.

    Along the segment, the Taylor coefficients V_n of V in t at
    theta(s + t*H) obey, order by order, the same windows:

        P(theta(s)) X_n = G(s) V_n + H*Gh V_{n-1} - H*P(h) X_{n-1}.

    `solvers` folds that, for one step start s and scale H, into one matrix
    per level acting on the pair (V_{n-1}, V_n), with the inverse already
    applied; a single solve at theta0 is the case n = 0 with H = 0.
    """

    def __init__(
        self, d: int, lo: int, hi: int, m_ax: int, theta0: Sequence[float], h: Sequence[float]
    ):
        monos = monomials_bi(d)
        self.n = n = 2 * d - 2
        self.m_ax = m_ax
        self.t_off = t_off = 2 * (m_ax + 1)
        self.n_v = n_v = t_off + _flat(0, hi) + 1
        top = [monos.index((d - c, c)) for c in range(d + 1)]
        self.top0 = [theta0[m] for m in top]
        self.P0 = _pfaffian_matrix(self.top0)
        self.Ph = _pfaffian_matrix([h[m] for m in top])
        lower = [(m, i, j) for m, (i, j) in enumerate(monos) if i + j < d]
        self.levels = []  # (k, G0 in natural row order, slice of V)
        self._blocks = []  # (G0, Gh, Gh - P(h) X, in window row order; windows, gather, slice)
        for k in range(lo, hi + 1):
            q = k - d + 1
            G0 = np.zeros((2 * (q + 1), n_v))
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
            Gx = Gh[rows]
            for w, t0 in enumerate(starts):
                Gx[w * n : (w + 1) * n, cols.start + t0 : cols.start + t0 + n] -= self.Ph
            self._blocks.append((G0[rows], Gh[rows], Gx, len(starts), asm, cols))
            self.levels.append((k, G0, cols))

    def factor(self, s: float) -> np.ndarray:
        """Inverse of P(theta(s)), after the singularity test."""
        return _factor(self.P0 + s * self.Ph)[1]

    def solvers(self, s: float, H: float, pinv: np.ndarray) -> list[tuple[np.ndarray, slice]]:
        """Per level, the matrix taking (V_{n-1}, V_n) to the level's X_n, and
        the level's slice of V; `pinv` is the inverse of P(theta(s))."""
        out = []
        for G0, Gh, Gx, n_win, asm, cols in self._blocks:
            M = np.hstack((H * Gx, G0 + s * Gh)).reshape(n_win, self.n, -1)
            out.append((np.matmul(pinv, M).reshape(n_win * self.n, -1)[asm], cols))
        return out

    def fill(self, rows: np.ndarray, n: int, solvers: list[tuple[np.ndarray, slice]]) -> None:
        """Solve every level of V_n = rows[n + 1], given rows[n] = V_{n-1}.

        `rows` is C-contiguous, so rows[n : n + 2] is the pair (V_{n-1}, V_n)
        as one vector, and each level sees the ones solved before it.
        """
        pair = rows[n : n + 2].ravel()
        for K, cols in solvers:
            rows[n + 1, cols] = K.dot(pair)

    def check_residuals(self, V: np.ndarray) -> None:
        """Every equation of every level at theta0, windows' or not, must hold."""
        for k, G0, cols in self.levels:
            rhs = G0 @ V
            mat = np.array(_level_matrix(self.top0, k), dtype=float)
            resid = float(np.linalg.norm(mat @ V[cols] - rhs))
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
    t_off = plan.t_off
    rows = np.zeros((2, plan.n_v))
    V = rows[1]
    V[: m_ax + 1] = extend_derivatives(axes.x, m_ax)
    V[m_ax + 1 : t_off] = extend_derivatives(axes.y, m_ax)
    V[t_off : t_off + len(table.F)] = table.F
    plan.fill(rows, 0, plan.solvers(0.0, 0.0, plan.factor(0.0)))
    plan.check_residuals(V)
    return DerivTableBi(table.theta, V[t_off:], table.last_transport_error, axes)


def transport_bi(
    table: DerivTableBi,
    theta_target: ThetaBi,
    opts: OdeOptions | None = None,
) -> DerivTableBi:
    """Move the table along the straight segment to `theta_target`; a table
    already at `theta_target` is returned as it is.

    The base entries obey dT[i,j]/ds = sum_ab h_ab T[i+a, j+b], with entries
    above order 2d-4 supplied by level solves at the moving parameter; the
    free entries of the two univariate axis states ride along in the same
    ODE, so the level solves always have current boundary constants.  The
    ODE steps by Taylor series (`_ode.taylor`, order
    `holo_uni._TAYLOR_ORDER`), whose rows are built exactly at each step
    start s: the axis rows by `holo_uni._series`, the base rows from
    (n+1) T_{n+1}[i,j] = sum_ab H h_ab T_n[i+a, j+b], and the level rows
    window by window against one inverse of P(theta(s)) (`_LevelPlan`),
    which `_factor` tests for singularity first.

    The segment must not meet the discriminant locus; `_check_wall` counts
    the roots of D along it exactly, once, before any step.  The source's
    axis states come from the table when it carries them for `opts`; the
    ODE's final axis states go through the `holo_uni.state_at` acceptance
    (condition, moment check, retry, refusal) and ride on the result, so a
    following `extend_table` or transport needs no axis work.
    """
    if opts is None:
        opts = OdeOptions()
    d = table.d
    src = table.theta
    if theta_target.d != d:
        raise InputError("transport endpoints must have the same degree")
    for theta, name in ((src, "source"), (theta_target, "target")):
        if not in_proper_bivariate_space(theta):
            raise PathSingularity(f"{name} parameter is outside the proper region")

    monos = monomials_bi(d)
    src_vec = src.as_vector()
    h_vec = theta_target.as_vector() - src_vec
    if not np.any(h_vec):
        return table

    src_top = np.array(src.top_coeffs())
    _check_wall(src_top, np.array(theta_target.top_coeffs()) - src_top)

    base = base_indices(d)
    nb = len(base)
    free = d - 1  # free entries of an axis state
    m_ax = 2 * d - 3  # axis orders the levels read
    plan = _LevelPlan(d, 2 * d - 3, 3 * d - 4, m_ax, src_vec, h_vec)
    t_off = plan.t_off
    tab = slice(t_off, t_off + nb)
    carried = [*range(t_off, t_off + nb), *range(free), *range(m_ax + 1, m_ax + 1 + free)]
    src_list, h_list = src_vec.tolist(), h_vec.tolist()
    axis_pairs = [
        (lo, [(src_list[m], h_list[m]) for m in idx])
        for lo, idx in (
            (0, [monos.index((i, 0)) for i in range(1, d + 1)]),
            (m_ax + 1, [monos.index((0, j)) for j in range(1, d + 1)]),
        )
    ]

    # the base rows of dV/ds: sum h_ab T[i+a, j+b]
    D = np.zeros((nb, plan.n_v))
    for row, (i, j) in enumerate(base):
        for m, (a, b) in enumerate(monos):
            D[row, t_off + _flat(i + a, j + b)] = h_vec[m]

    axes = _axes_for(table, opts)
    y0 = table.F[:nb].tolist() + axes.x.F[:free].tolist() + axes.y.F[:free].tolist()
    order = holo_uni._TAYLOR_ORDER

    def series(s: float, y: list[float], H: float) -> np.ndarray:
        # rows[n + 1] holds V_n, the t^n coefficients at theta(s + t*H);
        # rows[0] stays zero as V_{-1}
        rows = np.zeros((order + 2, plan.n_v))
        for (lo, pairs), F in zip(axis_pairs, (y[nb : nb + free], y[nb + free :])):
            coeffs = [c + s * dc for c, dc in pairs]
            ax = _extend(coeffs, Support.HALF_LINE, F, m_ax)
            rows[1:, lo : lo + m_ax + 1] = _series(
                coeffs, [H * dc for _, dc in pairs], 1.0, ax, order
            )
        rows[1, tab] = y[:nb]
        solvers = plan.solvers(s, H, plan.factor(s))
        DH = H * D
        for n in range(order):
            plan.fill(rows, n, solvers)
            rows[n + 2, tab] = DH.dot(rows[n + 1]) / (n + 1)
        return rows[1:, carried]

    try:
        yf, est = _ode.taylor(series, y0, opts.rel_tol, opts.max_steps)
    except SingularSystem as exc:
        raise PathCrossesSingularity(
            f"transport hit a singular level system: {exc}"
        ) from exc

    moved_axes = AxisStates(
        opts,
        _accept_axis(axes.x, theta_target.x_axis_coeffs(), yf[nb : nb + free], est, opts),
        _accept_axis(axes.y, theta_target.y_axis_coeffs(), yf[nb + free :], est, opts),
    )
    moved = DerivTableBi(theta_target, yf[:nb], est, moved_axes)
    if table.max_order > moved.max_order:
        moved = extend_table(moved, table.max_order, opts)
    return moved


def table_at(
    theta: ThetaBi,
    opts: OdeOptions | None = None,
    start: DerivTableBi | None = None,
) -> DerivTableBi:
    """Transported table at theta, the bivariate twin of `holo_uni.state_at`.

    Transport (`transport_bi`) starts from `start` when it has theta's
    order (a request at its own parameter returns it unchanged), else from
    the product point `initial_state_bi(d, |theta_d0|, |theta_0d|)`.  A
    start in another chamber than theta is refused with
    `PathCrossesSingularity`.  A table whose entries are not finite, or
    whose A is not positive, lost its accuracy on the way and raises
    `OdeDivergence`.
    """
    if start is None or start.d != theta.d:
        top = theta.top_coeffs()
        start = initial_state_bi(theta.d, abs(top[0]), abs(top[-1]))
    table = transport_bi(start, theta, opts)
    if not (np.all(np.isfinite(table.F)) and table.norm_const > 0.0):
        raise OdeDivergence(f"transport lost accuracy (A = {table.norm_const!r})")
    return table


def _accept_axis(
    start: HoloStateUni, coeffs: Sequence[float], F: Sequence[float], est: float, opts: OdeOptions
) -> HoloStateUni:
    """An axis state moved from `start` inside `transport_bi`'s ODE: its free
    entries F are re-derived at the target, as `holo_uni.transport` does,
    then put through the `state_at` acceptance."""
    L = state_length(len(coeffs))
    theta = ThetaUni(coeffs, Support.HALF_LINE)
    moved = HoloStateUni(theta, _extend(coeffs, Support.HALF_LINE, F, L - 1), est)
    return holo_uni._accept(start, moved, opts)


def _wall_poly(top0: np.ndarray, h_top: np.ndarray) -> tuple[list[float], list[float]]:
    """D(s) = discriminant(top0 + s*h_top) at the Chebyshev points on [0, 1],
    and its interpolant in u = 2s - 1, descending coefficients.

    D is a polynomial of degree at most 2d-2 in s, so its values at the
    2d-1 points u_k = cos(k pi / (2d-2)), both ends included, determine it
    up to rounding.  All 2d-1 samples go through the batched discriminant
    kernel as one stack, bit for bit what one `polyalg.discriminant` call
    per point returns.
    """
    n = 2 * len(top0) - 3
    u = np.cos(np.arange(n) * math.pi / (n - 1))
    vals = polyalg._discriminants(top0 + (0.5 + 0.5 * u)[:, None] * h_top)
    return vals.tolist(), np.linalg.solve(np.vander(u), vals).tolist()


def _check_wall(top0: np.ndarray, h_top: np.ndarray) -> None:
    """Refuse the segment top0 + s*h_top, s in [0, 1], if it meets a chamber wall.

    The walls are the zeros of the discriminant D.  D vanishing at a sample
    point of `_wall_poly` (the endpoints among them) or changing sign between
    two refuses the segment outright; otherwise a Sturm count of the
    interpolant's roots in [0, 1] decides, which also finds a wall the
    segment enters and leaves between two samples.  Leading coefficients
    below `_DETP_RTOL` of the largest are rounding and are dropped first (a
    top form that does not move leaves D constant).  A repeated root makes
    the Sturm chain degenerate: the count is then taken on the square-free
    part, and a chain that degenerates there as well counts as a crossing,
    since a tangency to the wall is as singular as a crossing.  A D that
    overflows (a sample or a coefficient not finite) cannot be tested and
    refuses the segment too.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        vals, coeffs = _wall_poly(top0, h_top)
    if not all(map(math.isfinite, vals + coeffs)):
        raise PathCrossesSingularity("the discriminant along the segment overflows")
    if min(vals) <= 0.0 <= max(vals):
        n_roots = 1
    else:
        scale = max(map(abs, coeffs))
        while abs(coeffs[0]) <= _DETP_RTOL * scale:
            coeffs.pop(0)
        try:
            n_roots = polyalg.count_real_roots(coeffs, -1.0, 1.0)
        except NonSquarefree:
            try:
                n_roots = polyalg.count_real_roots(polyalg.squarefree_part(coeffs), -1.0, 1.0)
            except NonSquarefree:
                n_roots = 1
    if n_roots:
        raise PathCrossesSingularity(
            "the discriminant vanishes along the segment; the endpoints lie in "
            "different chambers or the path leaves one and returns, use another "
            "initial point"
        )


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
