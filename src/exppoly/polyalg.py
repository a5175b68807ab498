"""Resultants, discriminants, and real-root counting.

Polynomials are passed as coefficient sequences in descending powers,
``[a_m, ..., a_0]`` for ``a_m x^m + ... + a_0``.  The resultant uses the
Sylvester layout with ``deg g`` rows of ``f`` stacked above ``deg f`` rows of
``g``; the discriminant of a degree-d form is ``R(p, p') / p_lead`` in that
layout.  This convention is what makes ``det P = d^(d-2) * discriminant`` an
exact identity for the bivariate derivative-completion matrix ``P``; it
differs from the school-book discriminant by the sign ``(-1)^(d(d-1)/2)``
(e.g. it is ``4ac - b^2`` for quadratics, not ``b^2 - 4ac``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    InputError,
    LeadingCoefficientZero,
    NonSquarefree,
    OnDiscriminant,
    UnsupportedOrder,
    ZeroPolynomial,
)

_DEGENERACY_TOL = 1e-12


def _trim_exact(coeffs: Sequence[float]) -> list[float]:
    c = [float(v) for v in coeffs]
    i = 0
    while i < len(c) and c[i] == 0.0:
        i += 1
    return c[i:]


def poly_derivative(coeffs: Sequence[float]) -> list[float]:
    """Derivative, descending coefficients."""
    c = list(coeffs)
    m = len(c) - 1
    return [c[i] * (m - i) for i in range(m)]


def poly_eval(coeffs: Sequence[float], x: float) -> float:
    acc = 0.0
    for c in coeffs:
        acc = acc * x + c
    return acc


def cauchy_root_bound(coeffs: Sequence[float]) -> float:
    """Upper bound on the magnitude of every root (Cauchy bound)."""
    c = _trim_exact(coeffs)
    if not c:
        raise ZeroPolynomial("zero polynomial has no root bound")
    if len(c) == 1:
        return 0.0
    return 1.0 + max(abs(v) for v in c[1:]) / abs(c[0])


def sylvester_matrix(f: Sequence[float], g: Sequence[float]) -> np.ndarray:
    """Sylvester matrix: deg(g) shifted rows of f above deg(f) rows of g."""
    f = _trim_exact(f)
    g = _trim_exact(g)
    if not f or not g:
        raise ZeroPolynomial("resultant of the zero polynomial is undefined")
    m, n = len(f) - 1, len(g) - 1
    if m < 1 or n < 1:
        raise UnsupportedOrder("both polynomials must have degree >= 1")
    s = np.zeros((m + n, m + n))
    for r in range(n):
        s[r, r : r + m + 1] = f
    for r in range(m):
        s[n + r, r : r + n + 1] = g
    return s


def sylvester_resultant(f: Sequence[float], g: Sequence[float]) -> float:
    return float(np.linalg.det(sylvester_matrix(f, g)))


def discriminant(theta_top: Sequence[float]) -> float:
    """Discriminant R(p, p')/lead(p) of the top form, theorem convention.

    ``theta_top`` is ``(theta_d0, theta_{d-1,1}, ..., theta_0d)``, i.e. the
    coefficients of ``p(a)`` in descending powers.
    """
    top = [float(v) for v in theta_top]
    d = len(top) - 1
    if d < 2:
        raise UnsupportedOrder("discriminant requires degree d >= 2")
    if top[0] == 0.0:
        raise LeadingCoefficientZero("theta_d0 must be non-zero")
    return sylvester_resultant(top, poly_derivative(top)) / top[0]


def _sturm_chain(coeffs: Sequence[float]) -> list[list[float]]:
    p0 = _trim_exact(coeffs)
    if not p0:
        raise ZeroPolynomial("Sturm chain of the zero polynomial")
    if len(p0) == 1:
        return [p0]
    scale = max(abs(v) for v in p0)
    p0 = [v / scale for v in p0]
    der = poly_derivative(p0)
    der_scale = max(abs(v) for v in der)
    chain = [p0, [v / der_scale for v in der]]
    while len(chain[-1]) > 1:
        rem = _poly_remainder(chain[-2], chain[-1])
        mag = max((abs(v) for v in rem), default=0.0)
        if mag <= _DEGENERACY_TOL:
            raise NonSquarefree("Sturm sequence degenerated: repeated root")
        # Positive scaling preserves every sign pattern in the chain.
        chain.append([-v / mag for v in rem])
    return chain


def _poly_remainder(f: list[float], g: list[float]) -> list[float]:
    """Remainder of f by g (descending coefficients), tiny leads trimmed."""
    r = list(f)
    dg = len(g) - 1
    while len(r) - 1 >= dg:
        q = r[0] / g[0]
        for i in range(dg + 1):
            r[i] -= q * g[i]
        r.pop(0)
        mag = max((abs(v) for v in r), default=0.0)
        while r and abs(r[0]) <= 1e-13 * max(mag, 1e-300):
            r.pop(0)
    return r


def _sign_at(coeffs: list[float], x: float) -> int:
    if math.isinf(x):
        lead = coeffs[0]
        s = 1 if lead > 0 else -1 if lead < 0 else 0
        if x < 0 and (len(coeffs) - 1) % 2 == 1:
            s = -s
        return s
    v = poly_eval(coeffs, x)
    return 1 if v > 0 else -1 if v < 0 else 0


def _variations(chain: list[list[float]], x: float) -> int:
    signs = [s for s in (_sign_at(c, x) for c in chain) if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_real_roots(coeffs: Sequence[float], a: float = -math.inf, b: float = math.inf) -> int:
    """Number of distinct real roots in (a, b], Sturm's theorem.

    Raises NonSquarefree when the polynomial has a repeated root (within
    floating-point tolerance), in which case the count is not defined by this
    routine; see count_positive_roots_squarefree for a total variant.
    """
    if not a < b:
        raise InputError("interval must satisfy a < b")
    chain = _sturm_chain(coeffs)
    if len(chain) == 1:
        return 0
    return _variations(chain, a) - _variations(chain, b)


def squarefree_part(coeffs: Sequence[float]) -> list[float]:
    """p / gcd(p, p'): same distinct roots, all simple."""
    p = _trim_exact(coeffs)
    if not p:
        raise ZeroPolynomial("zero polynomial")
    if len(p) <= 2:
        return p
    g = _poly_gcd(p, poly_derivative(p))
    if len(g) == 1:
        return p
    q, _ = _poly_divmod(p, g)
    return q


def _poly_gcd(f: list[float], g: list[float]) -> list[float]:
    fscale = max(abs(v) for v in f)
    gscale = max(abs(v) for v in g)
    a = [v / fscale for v in f]
    b = [v / gscale for v in g]
    while True:
        r = _poly_remainder(a, b)
        mag = max((abs(v) for v in r), default=0.0)
        if mag <= _DEGENERACY_TOL:
            return b
        a, b = b, [v / mag for v in r]
        if len(b) == 1:
            return b


def _poly_divmod(f: list[float], g: list[float]) -> tuple[list[float], list[float]]:
    r = list(f)
    q = []
    dg = len(g) - 1
    while len(r) - 1 >= dg:
        c = r[0] / g[0]
        q.append(c)
        for i in range(dg + 1):
            r[i] -= c * g[i]
        r.pop(0)
    return (q if q else [0.0]), r


def count_positive_roots_squarefree(coeffs: Sequence[float]) -> int:
    """Distinct roots in (0, inf); falls back to the squarefree part when the
    Sturm chain degenerates on a repeated root."""
    try:
        return count_real_roots(coeffs, 0.0, math.inf)
    except NonSquarefree:
        return count_real_roots(squarefree_part(coeffs), 0.0, math.inf)


@dataclass(frozen=True)
class ChamberLabel:
    """Real-root signature of the top form on one discriminant chamber."""

    n_positive: int
    n_negative: int
    n_complex_pairs: int
    proper: bool

    @property
    def degree(self) -> int:
        return self.n_positive + self.n_negative + 2 * self.n_complex_pairs

    @property
    def letter(self) -> str | None:
        """Figure labels for the cubic slice: A, B, or C (None otherwise)."""
        if self.degree != 3:
            return None
        return {
            (2, 1, 0): "A",
            (0, 1, 1): "B",
            (0, 3, 0): "C",
        }.get((self.n_positive, self.n_negative, self.n_complex_pairs))


def classify_chamber(theta_top: Sequence[float], tol: float = _DEGENERACY_TOL) -> ChamberLabel:
    """Root signature of the top form p and properness of its chamber.

    Raises OnDiscriminant when theta_top lies on the discriminant zero set
    within ``tol * scale`` (scale grows like coeff^(2d-2), matching the
    degree of the discriminant polynomial), or when the Sturm chain finds a
    repeated root there.
    """
    top = [float(v) for v in theta_top]
    d = len(top) - 1
    if d < 2:
        raise UnsupportedOrder("chamber classification requires degree d >= 2")
    if top[0] == 0.0:
        raise LeadingCoefficientZero("theta_d0 must be non-zero")
    disc = discriminant(top)
    scale = max(1.0, max(abs(v) for v in top)) ** (2 * d - 2)
    if abs(disc) <= tol * scale:
        raise OnDiscriminant(f"discriminant {disc:.3e} within tolerance of zero")
    try:
        n_pos = count_real_roots(top, 0.0, math.inf)
        n_neg = count_real_roots(top, -math.inf, 0.0)
    except NonSquarefree as exc:
        # a discriminant just above the tolerance can still hide a double
        # root that the Sturm chain resolves as degenerate
        raise OnDiscriminant(
            f"discriminant {disc:.3e} is off zero but the root count sees a repeated root"
        ) from exc
    if top[-1] == 0.0:
        # A root at exactly zero is counted by the (-inf, 0] interval.
        n_neg -= 1
    pairs, rem = divmod(d - n_pos - n_neg - (1 if top[-1] == 0.0 else 0), 2)
    if rem != 0:
        raise NonSquarefree("inconsistent root count; polynomial is ill-conditioned")
    proper = top[0] < 0.0 and top[-1] < 0.0 and n_pos == 0
    return ChamberLabel(n_pos, n_neg, pairs, proper)
