"""Holonomic transport for bivariate densities on the positive quadrant.

For g(x, y) = sum of theta_ij x^i y^j over 1 <= i+j <= d, differentiating the
normalizing constant A(theta) by theta_ij is the same as applying
d^i/d theta_10^i d^j/d theta_01^j, so the derivative structure lives on a
two-dimensional table T[i, j].  Integration by parts in x (resp. y) ties the
table to the axis-restricted univariate constants A_x, A_y; applying all
mixed derivatives of a fixed total order q to those two identities yields
2(q+1) linear equations for the order-(q+d-1) diagonal of the table, which
is stored flat, diagonal after diagonal (`DerivTableBi.F`).  At q = d-2 the
system is square with matrix P(theta), the Sylvester matrix of the partial
derivatives F_a, F_b of the top form F(a, b) = sum_c theta_{d-c,c}
a^(d-c) b^c.  So det P = Res(F_a, F_b) = d^(d-2) D vanishes exactly on the
discriminant locus, which partitions the proper parameter region into
chambers; transport must stay inside one chamber.

Every level has P(theta) as its square windows: row t of the x-family is
sum_c F_a[c] X[t+c] on the level's diagonal X, of the y-family the same
with F_b.  So each level is solved as a few square windows against one
factor of P; `extend_table` then checks the whole level system, rows no
window used included.  Which entry of which level system a coefficient
lands in depends only on the shape (d and the orders involved), so that
structure is built once per shape (`_level_shape`, `_transport_shape`) and
a plan only puts theta into it.

`transport_bi` steps the table by Taylor series: along a segment P and the
levels' right-hand sides are affine in the parameter, so each row of Taylor
coefficients follows from the previous one by the same window solves, against
one factor of P per step.  The two axis states ride in the same series, and
at the end they go through the univariate acceptance step, not a second
transport.  The window solves of all levels, the next base row and the axis
states' next rows are composed into one matrix per step, so each row costs
one matrix-vector product, and the rows stop at the first order that
reaches the segment's end.  Along the segment P(theta(s)) = P0 + s P(h) is
a pencil, and the walls it meets are its generalized eigenvalues: before any
step they are found as -1/lambda over the eigenvalues lambda of
P0^-1 P(h), complex ones included, so a path that meets a wall anywhere is
refused.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, NamedTuple, Sequence

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
    OdeDivergence,
    PathCrossesSingularity,
    PathSingularity,
    SingularSystem,
    UnsupportedOrder,
)
from .holo_uni import (
    _REL_TOL,
    HoloStateUni,
    _extend,
    _order_arg,
    _scale_arg,
    extend_derivatives,
    state_length,
)

# Axis constants go through `holo_uni.state_at` alone; this binding is kept
# only because bench/tracing.py wraps `holo_bi.transport` by name.
from .holo_uni import transport  # noqa: F401

_EXTENSION_RTOL = 1e-6
# A level matrix P is refused as singular when its 1-norm condition
# kappa = |P|_1 |P^-1|_1 passes this.  Kappa does not change when P is
# scaled; on random proper top forms of degree 2 to 4 it stays below 1e4,
# and below 30 along the benchmark's transports.
_FACTOR_COND = 1e12
# A segment is refused when a zero of D(theta(s)) lies this close to the
# real interval [0, 1].  The zeros are eigenvalues, rounded at about eps
# times the pencil's condition, and a double zero (a segment tangent to a
# wall) splits under rounding into a pair about sqrt(eps) times the square
# root of that condition off the real axis: up to 2.4e-7 on 6000 tangent
# segments of degree 2 to 4.  The margin takes in both, and refusing such
# a pair is safe.
_WALL_MARGIN = 1e-6


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
    """Axis states that `holo_uni.state_at` accepted."""

    x: HoloStateUni
    y: HoloStateUni


class DerivTableBi:
    """Mixed-derivative table T[i, j] = d^{i+j} A / d theta_10^i d theta_01^j.

    `F` is a read-only vector, like `HoloStateUni.F`, with T[i, j] at
    `_flat(i, j)` (by total order, then by j) for every i+j <= max_order,
    at least 2d-4 (the transported state).  `entry`, `norm_const` and
    `values`, a dict keyed by (i, j), read it.

    Tables made by `initial_state_bi`, `transport_bi` and `extend_table`
    also carry `axes`: the x- and y-axis states that `holo_uni.state_at`
    accepted at theta (at a product point, the gamma-point states it
    returns there).  `extend_table`, `boundary_consts` and the next
    `transport_bi` from the table always reuse them, instead of transporting
    both axes again from their gamma points.  Tables from the constructor
    carry None unless given them.
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
    The axes are gamma points too, so the table carries their states:
    `holo_uni.initial_state` at c1 and c2, bit for bit what
    `holo_uni.state_at` returns there.
    """
    _require_order(d)
    c1, c2 = _scale_arg(c1, "c1"), _scale_arg(c2, "c2")
    theta = ThetaBi(d, {(d, 0): -c1, (0, d): -c2})

    def gamma_moment(m: int, c: float) -> float:
        return c ** (-(m + 1) / d) * math.gamma((m + 1) / d) / d

    axes = AxisStates(holo_uni.initial_state(d, c1), holo_uni.initial_state(d, c2))
    return DerivTableBi(
        theta, [gamma_moment(i, c1) * gamma_moment(j, c2) for i, j in base_indices(d)], 0.0, axes
    )


def boundary_consts(theta: ThetaBi | DerivTableBi, M: int) -> tuple[np.ndarray, np.ndarray]:
    """Axis constants (A_x and theta_10-derivatives, A_y and theta_01-derivatives).

    A_x integrates the density restricted to y = 0 and depends only on the
    x-axis coefficients theta_i0, so it is a univariate problem of the same
    degree; symmetrically for A_y.  Both follow the `state_at` retry and
    refusal policy.  Given a table, the axis states it carries are reused.
    """
    M = _order_arg(M)
    axes = _axes_for(theta)
    return extend_derivatives(axes.x, M), extend_derivatives(axes.y, M)


def _p_matrix(top: Sequence[float]) -> np.ndarray:
    """P at the top form (theta_d0, ..., theta_0d), by `polyalg`'s Sylvester
    builder: d-1 shifted rows of F_a above d-1 of F_b."""
    return polyalg._sylvester(*polyalg._partials(top))


def _factor(P: np.ndarray) -> np.ndarray:
    """The inverse of P, by `np.linalg.inv`, refused with `SingularSystem`
    when P is numerically singular: when the inversion fails, or the 1-norm
    condition of P is not finite or passes `_FACTOR_COND`."""
    try:
        inv = np.linalg.inv(P)
    except np.linalg.LinAlgError:
        kappa = math.inf
    else:
        with np.errstate(over="ignore"):  # a norm that overflows refuses P
            kappa = float(np.abs(P).sum(axis=0).max() * np.abs(inv).sum(axis=0).max())
    if not kappa <= _FACTOR_COND:
        raise SingularSystem(
            f"P has condition number {kappa:.3e}; parameter lies on or near "
            "the discriminant locus"
        )
    return inv


# Level shapes are built once per (d, lo, hi, m_ax) and shared by every plan
# of that shape: one per d for transport, a few per d for extension.
_SHAPE_CACHE = 32


class _Scatter(NamedTuple):
    """Entries of a flat array that are linear in a coefficient vector c:
    entry `at[e]` is `by[e] * c[of[e]]`, each position at most once."""

    at: np.ndarray
    of: np.ndarray
    by: np.ndarray

    def put(self, out: np.ndarray, c: np.ndarray) -> np.ndarray:
        out[self.at] = self.by * c[self.of]
        return out


def _scatter(entries: list[tuple[int, int, float]]) -> _Scatter:
    at, of, by = zip(*entries) if entries else ((), (), ())
    out = _Scatter(
        np.array(at, dtype=np.intp), np.array(of, dtype=np.intp), np.array(by, dtype=float)
    )
    for arr in out:
        arr.flags.writeable = False  # shared by every caller through the cache
    return out


class _Level(NamedTuple):
    """One level of a `_LevelShape`: its order k, its columns of V and its
    rows in the natural-order G."""

    k: int
    cols: slice
    rows: slice


class _LevelShape(NamedTuple):
    """What the level solves for orders lo..hi do not take from theta.

    G (the right-hand sides, natural row order: x-family rows t = 0..q,
    then y-family, level after level) has constant entries `g_const` (a
    `_Scatter` over the vector [1]) and entries linear in the full
    coefficient vector, `g_lin`; every entry gets one term at most.
    `win_rows` lists, window after window and level after level, the
    natural row behind each window row.  In window row order, `x_lin`
    places -P(h) on each window's own columns (h the direction, indexed
    like theta).  `asm` picks, for each level entry of V in order, the
    window row that solves it (the later window where two overlap).
    No left-hand side is stored: each window is P (`_p_matrix`) and each
    level row a banded product with F_a or F_b.  Entries are kept as index
    lists, not dense tensors: a level's rows hold a few terms each among
    n_v columns.
    """

    n: int
    t_off: int
    n_v: int
    top: np.ndarray
    levels: tuple[_Level, ...]
    g_rows: int
    g_const: _Scatter
    g_lin: _Scatter
    win_rows: np.ndarray
    x_lin: _Scatter
    asm: np.ndarray


@functools.lru_cache(maxsize=_SHAPE_CACHE)
def _level_shape(d: int, lo: int, hi: int, m_ax: int) -> _LevelShape:
    """The `_LevelShape` of levels lo..hi reading axis orders 0..m_ax."""
    monos = monomials_bi(d)
    top = np.array([monos.index((d - c, c)) for c in range(d + 1)], dtype=np.intp)
    lower = [(m, i, j) for m, (i, j) in enumerate(monos) if i + j < d]
    n = 2 * d - 2
    t_off = 2 * (m_ax + 1)
    n_v = t_off + _flat(0, hi) + 1
    # P = sum_c top[c] P_c: (c, row, col, factor) of every entry
    units = np.array([_p_matrix(unit) for unit in np.eye(d + 1).tolist()])
    p_entries = [(*e, units[e]) for e in zip(*np.nonzero(units))]
    g_const, g_lin, x_lin = [], [], []
    win_rows, asm, levels = [], [], []
    row0 = 0
    for k in range(lo, hi + 1):
        q = k - d + 1
        for t in range(q + 1):
            a = q - t  # row (a, t): derivative order a in theta_10, t in theta_01
            rx, ry = (row0 + t) * n_v, (row0 + q + 1 + t) * n_v
            if a == 0:
                g_const.append((rx + m_ax + 1 + t, 0, -1.0))  # boundary term ay[t]
            else:
                g_const.append((rx + t_off + _flat(a - 1, t), 0, -a))
            if t == 0:
                g_const.append((ry + a, 0, -1.0))  # boundary term ax[a]
            else:
                g_const.append((ry + t_off + _flat(a, t - 1), 0, -t))
            for m, i, j in lower:
                if i:
                    g_lin.append((rx + t_off + _flat(a + i - 1, t + j), m, -i))
                if j:
                    g_lin.append((ry + t_off + _flat(a + i, t + j - 1), m, -j))
        starts = list(range(0, k - n + 2, n))
        if starts[-1] != k - n + 1:
            starts.append(k - n + 1)
        col0 = t_off + _flat(k, 0)
        solved_by = [0] * (k + 1)
        for t0 in starts:
            w0 = len(win_rows)
            win_rows += [row0 + r for r in (*range(t0, t0 + d - 1), *range(q + 1 + t0, q + d + t0))]
            for c, r, col, f in p_entries:
                x_lin.append(((w0 + r) * n_v + col0 + t0 + col, top[c], -f))
            solved_by[t0 : t0 + n] = range(w0, w0 + n)
        asm += solved_by
        n_rows = 2 * (q + 1)
        cols, rows = slice(col0, col0 + k + 1), slice(row0, row0 + n_rows)
        levels.append(_Level(k, cols, rows))
        row0 += n_rows
    win_rows = np.array(win_rows, dtype=np.intp)
    asm = np.array(asm, dtype=np.intp)
    win_rows.flags.writeable = asm.flags.writeable = top.flags.writeable = False
    return _LevelShape(
        n, t_off, n_v, top, tuple(levels), row0, _scatter(g_const), _scatter(g_lin), win_rows,
        _scatter(x_lin), asm
    )


class _LevelPlan:
    """The level solves for orders lo..hi along theta(s) = theta0 + s*h.

    Values live in a vector V: the axis constants ax[0..m_ax] and ay[0..m_ax],
    then the table entries in `_flat` layout from offset `t_off`.  A level's
    equations read lower orders and axis constants only, so they read
    P(theta(s)) X = G(s) V with G(s) = G0 + s*Gh affine in s.  Everything
    about them that does not depend on theta is the `_LevelShape`, built
    once per shape; a plan only puts theta0 and h into it: P(theta0) and
    P(h), and G0, Gh and Gx (below) in window row order.  Each level is
    solved as square windows against one inverse of P(theta(s)): window t0
    takes rows t0..t0+d-2 of both families and yields X[t0..t0+2d-3].
    Windows start every 2d-2 columns and the last one ends at column k;
    where two windows overlap, the later one's values are kept.

    Along the segment, the Taylor coefficients V_n of V in t at
    theta(s + t*H) obey, order by order, the same windows:

        P(theta(s)) X_n = G(s) V_n + H*Gx V_{n-1},  Gx = Gh - P(h) on the level.

    For one step start s and scale H, each level's windows give a matrix
    acting on the pair (V_{n-1}, V_n), with the inverse already applied;
    `composed` folds the levels into each other, for one product per order.
    A plan without h serves the single solve at theta0 (`solve`, the case
    n = 0 with H = 0) and `check_residuals`.
    """

    def __init__(
        self, d: int, lo: int, hi: int, m_ax: int, theta0: np.ndarray, h: np.ndarray | None = None
    ):
        self.shape = shape = _level_shape(d, lo, hi, m_ax)
        self.n, self.t_off, self.n_v = shape.n, shape.t_off, shape.n_v
        self.top0 = theta0[shape.top]
        self.P0 = _p_matrix(self.top0.tolist())
        self._inv0 = None
        G0 = shape.g_const.put(np.zeros(shape.g_rows * self.n_v), np.ones(1))
        self.G0 = shape.g_lin.put(G0, theta0).reshape(shape.g_rows, self.n_v)
        self.G0w = self.G0[shape.win_rows]
        if h is None:
            self.Ph = self.Ghw = self.Gx = None
            return
        self.Ph = _p_matrix(h[shape.top].tolist())
        Gh = shape.g_lin.put(np.zeros(shape.g_rows * self.n_v), h).reshape(shape.g_rows, self.n_v)
        self.Ghw = Gh[shape.win_rows]
        self.Gx = shape.x_lin.put(self.Ghw.copy().ravel(), h).reshape(self.Ghw.shape)

    def factor(self, s: float) -> np.ndarray:
        """Inverse of P(theta(s)), after the singularity test.  The inverse
        of P0 is kept: `zeros` and the first step both use it."""
        if s != 0.0:
            return _factor(self.P0 + s * self.Ph)
        if self._inv0 is None:
            self._inv0 = _factor(self.P0)
        return self._inv0

    def zeros(self) -> list[complex]:
        """The s, complex in general, at which P(theta(s)) = P0 + s P(h) is
        singular.

        det P(theta(s)) = det P0 prod(1 + s lambda) over the eigenvalues
        lambda of P0^-1 P(h), so the zeros are -1/lambda for each nonzero
        lambda, with multiplicity: the zeros of D(theta(s)), since
        det P = d^(d-2) D.  A singular P0 raises `SingularSystem`.  A list,
        not an array: at most 2d-2 numbers, which numpy's per-call cost
        would dominate.
        """
        lam = np.linalg.eigvals(self.factor(0.0).dot(self.Ph))
        return [-1.0 / v for v in lam.tolist() if v != 0.0]

    def _windows(self, s: float, H: float, pinv: np.ndarray) -> np.ndarray:
        """The matrix taking (V_{n-1}, V_n) to every level entry of X_n, each
        from its own window, with the inverse of P(theta(s)) applied."""
        M = np.hstack((H * self.Gx, self.G0w + s * self.Ghw)).reshape(-1, self.n, 2 * self.n_v)
        return np.matmul(pinv, M).reshape(-1, 2 * self.n_v)[self.shape.asm]

    def composed(self, s: float, H: float, pinv: np.ndarray, DH: np.ndarray) -> np.ndarray:
        """One matrix taking (V_{n-1}, V_n), levels of V_n not yet solved, to
        all of those levels and then to DH V_n.

        Each level reads the levels below it in V_n; substituting their
        window matrices, level by level, leaves every level a function of the
        pair's other entries alone, and DH V_n with them.  So one product per
        order does the work of one product per level and one with DH.
        """
        K = self._windows(s, H, pinv)
        n_v, n_lev = self.n_v, len(K)
        first = self.shape.levels[0].cols.start
        W = np.zeros((n_lev + len(DH), 2 * n_v))
        Kc = W[:n_lev]
        Kc[:, : n_v + first] = K[:, : n_v + first]
        for lv in self.shape.levels[1:]:
            lo, hi = lv.cols.start - first, lv.cols.stop - first
            Kc[lo:hi] += K[lo:hi, n_v + first : n_v + lv.cols.start].dot(Kc[:lo])
        W[n_lev:, n_v : n_v + first] = DH[:, :first]
        W[n_lev:] += DH[:, first:].dot(Kc)
        return W

    def solve(self, V: np.ndarray) -> None:
        """Fill every level of V at theta0 in place, level after level."""
        G = self.G0w.reshape(-1, self.n, self.n_v)
        K = np.matmul(self.factor(0.0), G).reshape(-1, self.n_v)[self.shape.asm]
        first = self.shape.levels[0].cols.start
        for lv in self.shape.levels:
            V[lv.cols] = K[lv.cols.start - first : lv.cols.stop - first].dot(V)

    def lhs(self, V: np.ndarray) -> list[np.ndarray]:
        """Each level's left-hand side at theta0, level after level, as two
        banded products of its diagonal X with F_a and with F_b."""
        fa, fb = polyalg._partials(self.top0.tolist())
        return [
            np.concatenate((np.correlate(V[lv.cols], fa), np.correlate(V[lv.cols], fb)))
            for lv in self.shape.levels
        ]

    def check_residuals(self, V: np.ndarray) -> None:
        """Every equation of every level at theta0, windows' or not, must hold."""
        for lv, lhs in zip(self.shape.levels, self.lhs(V)):
            rhs = self.G0[lv.rows] @ V
            resid = float(np.linalg.norm(lhs - rhs))
            if resid > _EXTENSION_RTOL * max(1.0, float(np.linalg.norm(rhs))):
                raise InconsistentExtension(
                    f"order-{lv.k} extension equations are inconsistent (residual {resid:.3e})"
                )


def pfaffian_det(theta: ThetaBi) -> float:
    """det P of the square order-(2d-3) system; depends on theta alone.

    det P = Res(F_a, F_b) equals d^(d-2) times the discriminant of the
    dehomogenized top form p(t) = sum_i theta_{i,d-i} t^i, so its zero set
    is the chamber walls; no transport is involved.  d < 2 raises
    `UnsupportedOrder`.
    """
    _require_order(theta.d)
    return float(np.linalg.det(_p_matrix(theta.top_coeffs())))


def extend_table(table: DerivTableBi, M: int) -> DerivTableBi:
    """Fill the table through total order M by successive level solves.

    Each level is solved as square windows against one inverse of P(theta);
    the whole level system, rows the windows did not use included, is then
    checked against the result (`InconsistentExtension` past a relative
    residual of 1e-6).  The axis states the table carries are reused.
    """
    M = _order_arg(M)
    if M <= table.max_order:
        return table
    d = table.d
    axes = _axes_for(table)
    m_ax = M - d + 1
    theta0 = table.theta.as_vector()
    plan = _LevelPlan(d, table.max_order + 1, M, m_ax, theta0)
    t_off = plan.t_off
    V = np.zeros(plan.n_v)
    V[: m_ax + 1] = extend_derivatives(axes.x, m_ax)
    V[m_ax + 1 : t_off] = extend_derivatives(axes.y, m_ax)
    V[t_off : t_off + len(table.F)] = table.F
    plan.solve(V)
    plan.check_residuals(V)
    return DerivTableBi(table.theta, V[t_off:], table.last_transport_error, axes)


class _TransportShape(NamedTuple):
    """What `transport_bi` at degree d does not take from theta.

    `shift` puts the base rows of dV/ds, sum_ab h_ab T[i+a, j+b], into the
    (nb, n_v) matrix D as a `_Scatter` over h.  The Taylor rows live in one
    flat buffer, a block of n_c + n_v entries per order: the carries of the
    two axis lanes (`holo_uni._StepMap`'s c, x lane then y lane, n_c of
    them), then V in `_LevelPlan`'s layout (axis constants, base entries,
    levels).  `lanes` holds where each entry of the lanes' states (a, then
    c, x lane then y lane) sits in a block, `lane_put` where the lanes'
    step matrix goes in the per-order matrix (flat), `carried` where the
    carried entries sit (base table, then the free entries of the x- and
    y-axis states), and `scale[n]` the factor of order n+1's entries
    through the last of `_ode._ORDERS`: 1/(n+1) on axis constants and base
    entries, 1 on levels and carries.
    `axes` holds the monomial indices of (theta_10, ..., theta_d0) above
    those of (theta_01, ..., theta_0d).
    """

    nb: int
    n_c: int
    shift: _Scatter
    lanes: np.ndarray
    lane_put: np.ndarray
    carried: np.ndarray
    scale: np.ndarray
    axes: np.ndarray


@functools.lru_cache(maxsize=_SHAPE_CACHE)
def _transport_shape(d: int) -> _TransportShape:
    monos = monomials_bi(d)
    base = base_indices(d)
    nb, free, m_ax = len(base), d - 1, 2 * d - 3
    shape = _level_shape(d, 2 * d - 3, 3 * d - 4, m_ax)
    t_off, n_v = shape.t_off, shape.n_v
    shift = _scatter(
        [
            (row * n_v + t_off + _flat(i + a, j + b), m, 1.0)
            for row, (i, j) in enumerate(base)
            for m, (a, b) in enumerate(monos)
        ]
    )
    w = m_ax + 1  # entries of an axis lane, each with w + 1 carries
    n_c = 2 * (w + 1)
    n_lev = n_v - t_off - nb
    n_in = 2 * n_c + n_v + t_off + nb  # a block and the next one's entries below the levels
    lanes = np.array(
        [n_c + lane * w + i if i < w else lane * (w + 1) + i - w for lane in (0, 1) for i in range(2 * w + 1)]
    )
    lane_put = ((n_lev + lanes)[:, None] * n_in + n_c + n_v + lanes).ravel()
    carried = n_c + np.array([*range(t_off, t_off + nb), *range(free), *range(w, w + free)])
    order = _ode._ORDERS[-1]
    scale = np.ones((order, n_c + n_v))
    scale[:, n_lev + n_c :] = 1.0 / np.arange(1.0, order + 1)[:, None]
    axes = np.array([[monos.index(ij) for ij in ((k, 0), (0, k))] for k in range(1, d + 1)]).T
    for arr in (lanes, lane_put, carried, scale, axes):
        arr.flags.writeable = False  # shared through the cache
    return _TransportShape(nb, n_c, shift, lanes, lane_put, carried, scale, axes)


def _refuse_walls(plan: _LevelPlan) -> None:
    """Refuse the plan's segment, s in [0, 1], if it meets a chamber wall:
    if a zero of D(theta(s)) (`_LevelPlan.zeros`) lies within `_WALL_MARGIN`
    of [0, 1], or if P0 is singular, the source on a wall."""
    try:
        zeros = plan.zeros()
    except SingularSystem as exc:
        raise PathCrossesSingularity(f"the source lies on a chamber wall: {exc}") from exc
    if any(abs(z - min(max(z.real, 0.0), 1.0)) <= _WALL_MARGIN for z in zeros):
        raise PathCrossesSingularity(
            "the discriminant vanishes along the segment; the endpoints lie in "
            "different chambers or the path leaves one and returns, use another "
            "initial point"
        )


def _transport_series(
    d: int, src_vec: np.ndarray, h_vec: np.ndarray
) -> Callable[[float, list[float], float], Callable[[int], np.ndarray]]:
    """`transport_bi`'s series builder along src_vec + s*h_vec for
    `_ode.taylor`: the step's `rows(N)`, rows 0..N of the carried entries
    at theta(s + t*H), from their values y at theta(s).

    Each step forms one matrix Z, which takes (V_{n-1} with its carries,
    the carries, axis constants and base entries of V_n) to (the levels of
    V_n, the carries, axis constants and base entries of V_{n+1}): the
    level and base rows of `_LevelPlan.composed` and the axis lanes' step
    matrix of `holo_uni._StepMap.step`.  Block n of the flat row buffer
    holds order n, so each order is one product between contiguous slices
    and one multiply by that order's scale; `rows(N)` runs them from where
    the last call stopped.  A segment that meets a wall is refused
    (`_refuse_walls`) before the builder is returned, and the first step
    reuses the inverse of P0 that the wall test took.
    """
    shape = _transport_shape(d)
    nb, n_c = shape.nb, shape.n_c
    m_ax = 2 * d - 3  # axis orders the levels read
    plan = _LevelPlan(d, 2 * d - 3, 3 * d - 4, m_ax, src_vec, h_vec)
    _refuse_walls(plan)
    n_v = plan.n_v
    first = plan.t_off + nb  # V's entries below the levels
    n_lev = n_v - first
    n_b, n_e = n_c + n_v, n_c + first  # a block, and its entries below the levels
    base = n_b - nb  # the base rows of Z
    axis_map = holo_uni._StepMap(src_vec[shape.axes], h_vec[shape.axes], 1.0, m_ax + 1)
    D = shape.shift.put(np.zeros(nb * n_v), h_vec).reshape(nb, n_v)

    def series(s: float, y: list[float], H: float) -> Callable[[int], np.ndarray]:
        W = plan.composed(s, H, plan.factor(s), H * D)
        M, x0 = axis_map.step(s, y[nb:], H)
        Z = np.zeros((n_b, n_b + n_e))
        for at, W_rows in ((slice(0, n_lev), W[:n_lev]), (slice(base, n_b), W[n_lev:])):
            Z[at, n_c:n_b] = W_rows[:, :n_v]
            Z[at, n_b + n_c :] = W_rows[:, n_v : n_v + first]
        Z.flat[shape.lane_put] = M.ravel()
        scale = shape.scale
        buf = np.empty((len(scale) + 2) * n_b)  # block n+1 holds order n
        buf[:n_b] = 0.0  # order -1
        buf[n_b + shape.lanes] = x0
        buf[n_b + n_e - nb : n_b + n_e] = y[:nb]
        blocks = buf.reshape(-1, n_b)
        done = 0

        def rows(N: int) -> np.ndarray:
            nonlocal done
            for n in range(done, N):
                i = (n + 1) * n_b
                out = buf[i + n_e : i + n_e + n_b]
                np.dot(Z, buf[i - n_b : i + n_e], out=out)
                out *= scale[n]
            done = max(done, N)
            return blocks[1 : N + 2, shape.carried]

        return rows

    return series


def transport_bi(table: DerivTableBi, theta_target: ThetaBi) -> DerivTableBi:
    """Move the table along the straight segment to `theta_target`; a table
    already at `theta_target` is returned as it is.

    The base entries obey dT[i,j]/ds = sum_ab h_ab T[i+a, j+b], with entries
    above order 2d-4 supplied by level solves at the moving parameter; the
    free entries of the two univariate axis states ride along in the same
    ODE, so the level solves always have current boundary constants.  The
    ODE steps by Taylor series (`_ode.taylor`), whose rows are built exactly
    at each step start s (`_transport_series`): the axis rows by one
    `holo_uni._StepMap` with a lane per axis, built once per segment, the
    base rows from (n+1) T_{n+1}[i,j] = sum_ab H h_ab T_n[i+a, j+b], and the
    level rows window by window against one inverse of P(theta(s))
    (`_LevelPlan`), which `_factor` tests for singularity first.  All three
    are composed once per step into one matrix, so every level of one order
    and the next axis and base rows come from one product.  `_ode.taylor`
    stops the rows as it stops the univariate ones, at the first of the
    orders `_ode._ORDERS` (16 to 48) whose last two rows reach the
    segment's end.  The shift D and the layout of the rows are built once
    per d (`_transport_shape`).

    The segment must not meet the discriminant locus: before any step, the
    zeros of D along it, the pencil's eigenvalues (`_LevelPlan.zeros`), are
    found once, and one within `_WALL_MARGIN` of [0, 1] refuses the segment
    with `PathCrossesSingularity`, as a source on a wall does.  The source's
    axis states come from the table when it carries them; the
    ODE's final axis states go through the `holo_uni.state_at` acceptance
    (condition, moment check, retry, refusal) and ride on the result, so a
    following `extend_table` or transport needs no axis work.
    """
    d = table.d
    src = table.theta
    if theta_target.d != d:
        raise InputError("transport endpoints must have the same degree")
    for theta, name in ((src, "source"), (theta_target, "target")):
        if not in_proper_bivariate_space(theta):
            raise PathSingularity(f"{name} parameter is outside the proper region")

    src_vec = src.as_vector()
    h_vec = theta_target.as_vector() - src_vec
    if not np.any(h_vec):
        return table

    nb = _transport_shape(d).nb
    free = d - 1  # free entries of an axis state
    series = _transport_series(d, src_vec, h_vec)
    axes = _axes_for(table)
    y0 = table.F[:nb].tolist() + axes.x.F[:free].tolist() + axes.y.F[:free].tolist()
    try:
        yf, est = _ode.taylor(series, y0, _REL_TOL)
    except SingularSystem as exc:
        raise PathCrossesSingularity(
            f"transport hit a singular level system: {exc}"
        ) from exc

    moved_axes = AxisStates(
        _accept_axis(axes.x, theta_target.x_axis_coeffs(), yf[nb : nb + free], est),
        _accept_axis(axes.y, theta_target.y_axis_coeffs(), yf[nb + free :], est),
    )
    moved = DerivTableBi(theta_target, yf[:nb], est, moved_axes)
    if table.max_order > moved.max_order:
        moved = extend_table(moved, table.max_order)
    return moved


def table_at(theta: ThetaBi, *, start: DerivTableBi | None = None) -> DerivTableBi:
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
    table = transport_bi(start, theta)
    if not (np.all(np.isfinite(table.F)) and table.norm_const > 0.0):
        raise OdeDivergence(f"transport lost accuracy (A = {table.norm_const!r})")
    return table


def _accept_axis(
    start: HoloStateUni, coeffs: Sequence[float], F: Sequence[float], est: float
) -> HoloStateUni:
    """An axis state moved from `start` inside `transport_bi`'s ODE: its free
    entries F are re-derived at the target, as `holo_uni.transport` does,
    then put through the `state_at` acceptance."""
    L = state_length(len(coeffs))
    theta = ThetaUni(coeffs, Support.HALF_LINE)
    moved = HoloStateUni(theta, _extend(coeffs, Support.HALF_LINE, F, L - 1), est)
    return holo_uni._accept(start, moved)


def _axes_for(source: ThetaBi | DerivTableBi) -> AxisStates:
    """Axis states at the source's parameter: a table's own when it carries
    them, else fresh ones from `holo_uni.state_at`."""
    if isinstance(source, DerivTableBi):
        if source.axes is not None:
            return source.axes
        source = source.theta
    return AxisStates(_axis_state(source.x_axis_coeffs()), _axis_state(source.y_axis_coeffs()))


def _axis_state(coeffs: Sequence[float]) -> HoloStateUni:
    axis = ThetaUni(coeffs, Support.HALF_LINE)
    if classify_theta_uni(axis).membership is not Membership.INTERIOR:
        raise AxisOutsideDomain(
            f"axis restriction {tuple(coeffs)} is not an interior univariate parameter"
        )
    return holo_uni.state_at(axis)
