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
refused.  A move from a table whose own estimate or either axis state's
is nonzero steps the unit columns of its carried entries in the same rows,
so that each start's error is carried through the move's Jacobian into the
moved estimates (`holo_uni._carried`), and `table_at` redoes from the
product point a move whose carried error outweighs a fresh transport's, as
`holo_uni` does for the univariate engine.
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
    ToleranceNotMet,
    UnsupportedOrder,
)
from .holo_uni import (
    _REL_TOL,
    HoloStateUni,
    _order_arg,
    _scale_arg,
    extend_derivatives,
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

    `last_transport_error` is the relative error estimate of the carried
    entries (base entries and the axis states' free entries), in units of
    the largest of them: zero at a product point, the Taylor estimate for a
    move from there, and for a move from any other table that plus the
    table's error carried through the move's Jacobian (`transport_bi`),
    zero where the table's own estimate is.  It covers the base entries
    only; the orders `extend_table` adds carry no estimate of their own.
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
    natural row behind each window row.  `asm` picks, for each level entry
    of V in order, the window row that solves it (the later window where
    two overlap).
    The left-hand sides L, in natural row order, are `lhs`, a `_Scatter`
    over (F_a, F_b): each level row a banded product of its diagonal with
    F_a or F_b, on columns that G leaves empty, since a level's right-hand
    side reads lower orders only.  `row_starts` holds each level's first
    row.  Entries are kept as index lists, not dense tensors: a level's
    rows hold a few terms each among n_v columns.
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
    asm: np.ndarray
    lhs: _Scatter
    row_starts: np.ndarray


@functools.lru_cache(maxsize=_SHAPE_CACHE)
def _level_shape(d: int, lo: int, hi: int, m_ax: int) -> _LevelShape:
    """The `_LevelShape` of levels lo..hi reading axis orders 0..m_ax."""
    monos = monomials_bi(d)
    top = np.array([monos.index((d - c, c)) for c in range(d + 1)], dtype=np.intp)
    lower = [(m, i, j) for m, (i, j) in enumerate(monos) if i + j < d]
    n = 2 * d - 2
    t_off = 2 * (m_ax + 1)
    n_v = t_off + _flat(0, hi) + 1
    g_const, g_lin, lhs = [], [], []
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
        col0 = t_off + _flat(k, 0)
        for t in range(q + 1):  # F_a on the x-family rows, F_b on the y-family
            for c in range(d):
                lhs.append(((row0 + t) * n_v + col0 + t + c, c, 1.0))
                lhs.append(((row0 + q + 1 + t) * n_v + col0 + t + c, d + c, 1.0))
        starts = list(range(0, k - n + 2, n))
        if starts[-1] != k - n + 1:
            starts.append(k - n + 1)
        solved_by = [0] * (k + 1)
        for t0 in starts:
            w0 = len(win_rows)
            win_rows += [row0 + r for r in (*range(t0, t0 + d - 1), *range(q + 1 + t0, q + d + t0))]
            solved_by[t0 : t0 + n] = range(w0, w0 + n)
        asm += solved_by
        n_rows = 2 * (q + 1)
        cols, rows = slice(col0, col0 + k + 1), slice(row0, row0 + n_rows)
        levels.append(_Level(k, cols, rows))
        row0 += n_rows
    win_rows = np.array(win_rows, dtype=np.intp)
    asm = np.array(asm, dtype=np.intp)
    row_starts = np.array([lv.rows.start for lv in levels], dtype=np.intp)
    for arr in (win_rows, asm, top, row_starts):
        arr.flags.writeable = False
    return _LevelShape(
        n, t_off, n_v, top, tuple(levels), row0, _scatter(g_const), _scatter(g_lin), win_rows,
        asm, _scatter(lhs), row_starts
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
        Gh = shape.g_lin.put(np.zeros(shape.g_rows * self.n_v), h)
        self.Ghw = Gh.reshape(shape.g_rows, self.n_v)[shape.win_rows]
        # Gh - L(h): the level rows of h's top form go on columns Gh leaves empty
        fa, fb = polyalg._partials(h[shape.top].tolist())
        Gx = shape.lhs.put(Gh, -np.array(fa + fb)).reshape(shape.g_rows, self.n_v)
        self.Gx = Gx[shape.win_rows]

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

    def system(self) -> np.ndarray:
        """The level systems at theta0 in natural row order, stacked: L - G0
        above G0, so that one product with V gives every row's residual
        and its right-hand side."""
        shape = self.shape
        fa, fb = polyalg._partials(self.top0.tolist())
        out = np.empty((2, shape.g_rows, self.n_v))
        np.negative(self.G0, out=out[0])
        shape.lhs.put(out[0].reshape(-1), np.array(fa + fb))
        out[1] = self.G0
        return out.reshape(-1, self.n_v)

    def check_residuals(self, V: np.ndarray) -> None:
        """Every equation of every level at theta0, windows' or not, must
        hold: each level's residual (L - G0) V, by one product with
        `system`, within 1e-6 of its right-hand side G0 V, both in 2-norm."""
        both = np.square(self.system().dot(V)).reshape(2, -1)
        norms = np.sqrt(np.add.reduceat(both, self.shape.row_starts, axis=1)).tolist()
        for lv, resid, rhs in zip(self.shape.levels, *norms):
            if resid > _EXTENSION_RTOL * max(1.0, rhs):
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
    two axis maps (`holo_uni._StepMap`'s c, x axis then y axis, n_c of
    them), then V in `_LevelPlan`'s layout (axis constants, base entries,
    levels).  Row k of `lanes` holds where each entry of axis k's map state
    (a, then c) sits in a block, row k of `lane_put` where that map's step
    matrix goes in the per-order matrix (flat), `carried` where the
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
    w = m_ax + 1  # entries of an axis map, each with w + 1 carries
    n_c = 2 * (w + 1)
    n_lev = n_v - t_off - nb
    n_in = 2 * n_c + n_v + t_off + nb  # a block and the next one's entries below the levels
    lanes = np.array(
        [[n_c + ax * w + i if i < w else ax * (w + 1) + i - w for i in range(2 * w + 1)] for ax in (0, 1)]
    )
    lane_put = np.array([((n_lev + row)[:, None] * n_in + n_c + n_v + row).ravel() for row in lanes])
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
    d: int, src_vec: np.ndarray, h_vec: np.ndarray, jacobian: bool = False
) -> Callable[[float, list[float], float], Callable[[int], np.ndarray]]:
    """`transport_bi`'s series builder along src_vec + s*h_vec for
    `_ode.taylor`: the step's `rows(N)`, rows 0..N of the carried entries
    at theta(s + t*H), from their values y at theta(s).

    Each step forms one matrix Z, which takes (V_{n-1} with its carries,
    the carries, axis constants and base entries of V_n) to (the levels of
    V_n, the carries, axis constants and base entries of V_{n+1}): the
    level and base rows of `_LevelPlan.composed` and the step matrix of
    each axis's `holo_uni._StepMap`.  Block n of the flat row buffer
    holds order n, so each order is one product between contiguous slices
    and one multiply by that order's scale; `rows(N)` runs them from where
    the last call stopped.  Z and the row buffer are this thread's for the
    degree (`_RowBuffers`), so the rows hold until its next step.  A
    segment that meets a wall is refused (`_refuse_walls`) before the
    builder is returned, and the first step reuses the inverse of P0 that
    the wall test took.

    With `jacobian` the row buffer has a trailing column axis: the state,
    then a unit column per carried entry (base entries, then the x- and
    y-axis free entries), which the same products step through the
    variational equations, so each row is a matrix as `_ode.taylor` takes
    it with its `jacobian`.  The axis maps then return x_0 with a unit
    column per free entry, placed in that entry's column.
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
    free = d - 1  # free entries of an axis state
    axis_maps = [
        holo_uni._StepMap(src_vec[ax], h_vec[ax], 1.0, m_ax + 1, jacobian) for ax in shape.axes
    ]
    D = shape.shift.put(np.zeros(nb * n_v), h_vec).reshape(nb, n_v)
    # where each axis map's x_0 goes in block 1: its rows, and with
    # `jacobian` the state's column and its free entries' unit columns
    n_cols = 1 + nb + 2 * free if jacobian else 0
    places = [
        (at[:, None], [0, *range(1 + nb + k * free, 1 + nb + (k + 1) * free)]) if jacobian else at
        for k, at in enumerate(shape.lanes)
    ]
    base_at = slice(n_e - nb, n_e)  # order 0 of the base entries in block 1
    unit = np.eye(nb)

    def series(s: float, y: list[float], H: float) -> Callable[[int], np.ndarray]:
        W = plan.composed(s, H, plan.factor(s), H * D)
        rb = holo_uni._buffers(_RowBuffers, d, n_b, n_e, n_cols)
        Z, order0 = rb.Z, rb.blocks[1]
        for at, W_rows in ((slice(0, n_lev), W[:n_lev]), (slice(base, n_b), W[n_lev:])):
            Z[at, n_c:n_b] = W_rows[:, :n_v]
            Z[at, n_b + n_c :] = W_rows[:, n_v : n_v + first]
        for k, (axis_map, put, at) in enumerate(zip(axis_maps, shape.lane_put, places)):
            # the two maps share one scratch: M is placed before the next step
            M, x0 = axis_map.step(s, y[nb + k * free : nb + (k + 1) * free], H)
            Z.flat[put] = M.ravel()
            order0[at] = x0
        if jacobian:
            order0[base_at, 0] = y[:nb]
            order0[base_at, 1 : nb + 1] = unit
        else:
            order0[base_at] = y[:nb]
        Z_dot, products, blocks = Z.dot, rb.products, rb.blocks
        done = 0

        def rows(N: int) -> np.ndarray:
            nonlocal done
            for window, out, scale_n in products[done:N]:
                Z_dot(window, out=out)
                out *= scale_n
            done = max(done, N)
            return blocks[1 : N + 2, shape.carried]

        return rows

    return series


class _RowBuffers:
    """Where `_transport_series` builds a step's rows at degree d, with
    blocks of n_b entries of which the first n_e feed the next order: Z,
    whose entries outside the rows each step writes stay zero; the row
    buffer, block n+1 holding order n (block 0, order -1, is zero), flat
    or with n_cols columns per entry where the rows carry a Jacobian
    (n_cols > 0); and, per order n, the views (the product's input window,
    its output, the scale of order n+1's entries).  One per thread and
    shape (`holo_uni._buffers`)."""

    def __init__(self, d: int, n_b: int, n_e: int, n_cols: int):
        scale = _transport_shape(d).scale
        cols = (n_cols,) if n_cols else ()
        if n_cols:
            scale = scale[:, :, None]
        self.Z = np.zeros((n_b, n_b + n_e))
        buf = np.zeros(((len(scale) + 2) * n_b, *cols))
        self.blocks = buf.reshape(-1, n_b, *cols)
        self.products = [
            (buf[i - n_b : i + n_e], buf[i + n_e : i + n_e + n_b], scale[n])
            for n, i in enumerate(range(n_b, (len(scale) + 1) * n_b, n_b))
        ]


def transport_bi(table: DerivTableBi, theta_target: ThetaBi) -> DerivTableBi:
    """Move the table along the straight segment to `theta_target`; a table
    already at `theta_target` is returned as it is.

    The base entries obey dT[i,j]/ds = sum_ab h_ab T[i+a, j+b], with entries
    above order 2d-4 supplied by level solves at the moving parameter; the
    free entries of the two univariate axis states ride along in the same
    ODE, so the level solves always have current boundary constants.  The
    ODE steps by Taylor series (`_ode.taylor`), whose rows are built exactly
    at each step start s (`_transport_series`): the axis rows by one
    `holo_uni._StepMap` per axis, built once per segment, the
    base rows from (n+1) T_{n+1}[i,j] = sum_ab H h_ab T_n[i+a, j+b], and the
    level rows window by window against one inverse of P(theta(s))
    (`_LevelPlan`), which `_factor` tests for singularity first.  All three
    are composed once per step into one matrix, so every level of one order
    and the next axis and base rows come from one product.  `_ode.taylor`
    stops the rows as it stops the univariate ones, at the first of the
    orders `_ode._ORDERS` (16 to 48) whose last two rows reach the
    segment's end.  The shift D and the layout of the rows are built once
    per d (`_transport_shape`).

    From a table whose own estimate or either axis state's is nonzero (any
    table but a product point's) the move also steps the unit columns of
    the carried entries (the base entries, then each axis state's free
    entries) through the same rows, which gives the segment's Jacobian Phi,
    as `holo_uni.transport` does.  The moved table's estimate is then the
    Taylor estimate plus the table's error carried through Phi
    (`holo_uni._carried`: |Phi| times the table's estimate times its
    largest carried entry, over the moved table's largest carried entry).
    Each axis state's block of Phi carries that state's own estimate the
    same way into its acceptance.  A move from a table and axis states
    whose estimates are all zero steps no Jacobian and carries nothing.

    The segment must not meet the discriminant locus: before any step, the
    zeros of D along it, the pencil's eigenvalues (`_LevelPlan.zeros`), are
    found once, and one within `_WALL_MARGIN` of [0, 1] refuses the segment
    with `PathCrossesSingularity`, as a source on a wall does.  The source's
    axis states come from the table when it carries them; the
    ODE's final axis states go through the `holo_uni.state_at` acceptance
    (condition, moment check, retry, refusal) and ride on the result, so a
    following `extend_table` or transport needs no axis work.
    """
    return _move(table, theta_target)[0]


def _move(table: DerivTableBi, theta_target: ThetaBi) -> tuple[DerivTableBi, float]:
    """`transport_bi`, and the part of the moved table's estimate carried
    from the start through Phi (0.0 where nothing was carried)."""
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
        return table, 0.0

    nb = _transport_shape(d).nb
    free = d - 1  # free entries of an axis state
    axes = _axes_for(table)
    starts = (table, *axes)
    carry = any(start.last_transport_error > 0.0 for start in starts)
    series = _transport_series(d, src_vec, h_vec, carry)
    y0 = table.F[:nb].tolist() + axes.x.F[:free].tolist() + axes.y.F[:free].tolist()
    try:
        yf, est, *phi = _ode.taylor(series, y0, _REL_TOL, carry)
    except SingularSystem as exc:
        raise PathCrossesSingularity(
            f"transport hit a singular level system: {exc}"
        ) from exc

    # the table's entries are all of y, an axis state's its own free entries
    # (whose rows of Phi read its own columns only)
    blocks = (slice(0, len(y0)), slice(nb, nb + free), slice(nb + free, len(y0)))
    carried = [
        holo_uni._carried(phi[0][at], start.last_transport_error, y0[at], yf[at]) if carry else 0.0
        for start, at in zip(starts, blocks)
    ]
    moved_axes = AxisStates(
        *(
            holo_uni._accept(HoloStateUni._moved(ThetaUni(coeffs), yf[at], est, part))
            for coeffs, at, part in zip(
                (theta_target.x_axis_coeffs(), theta_target.y_axis_coeffs()),
                blocks[1:],
                carried[1:],
            )
        )
    )
    moved = DerivTableBi(theta_target, yf[:nb], est + carried[0], moved_axes)
    if table.max_order > moved.max_order:
        moved = extend_table(moved, table.max_order)
    return moved, carried[0]


def table_at(theta: ThetaBi, *, start: DerivTableBi | None = None) -> DerivTableBi:
    """Transported table at theta, the bivariate twin of `holo_uni.state_at`.

    Transport (`transport_bi`) starts from `start` when it has theta's
    order (a request at its own parameter returns it unchanged), else from
    the product point `initial_state_bi(d, |theta_d0|, |theta_0d|)`.  A
    start in another chamber than theta is refused with
    `PathCrossesSingularity`.  A move from a start with a nonzero estimate
    carries that estimate through the move's Jacobian (`transport_bi`);
    where the carried part exceeds the per-step tolerance (1e-10), the move
    is redone from the product point, as `state_at` redoes one from the
    gamma point, and the carried table is kept only where that fresh
    transport is refused.  A table whose entries are not finite, or whose A
    is not positive, lost its accuracy on the way and raises
    `OdeDivergence`.
    """
    if start is None or start.d != theta.d:
        return _checked(_from_product_point(theta))
    table, carried = _move(start, theta)
    if carried > _REL_TOL:
        # the start's error, carried through the move, outweighs what a
        # fresh transport commits
        try:
            return _checked(_from_product_point(theta))
        except (PathCrossesSingularity, OdeDivergence, ToleranceNotMet):
            pass  # the product point cannot reach theta; keep the carried table
    return _checked(table)


def _from_product_point(theta: ThetaBi) -> DerivTableBi:
    top = theta.top_coeffs()
    return transport_bi(initial_state_bi(theta.d, abs(top[0]), abs(top[-1])), theta)


def _checked(table: DerivTableBi) -> DerivTableBi:
    """The table, unless its entries are not finite or its A is not
    positive (`OdeDivergence`)."""
    if not (np.all(np.isfinite(table.F)) and table.norm_const > 0.0):
        raise OdeDivergence(f"transport lost accuracy (A = {table.norm_const!r})")
    return table


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
