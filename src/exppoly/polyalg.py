"""Resultants, discriminants, and real-root counting.

Polynomials are passed as coefficient sequences in descending powers,
``[a_m, ..., a_0]`` for ``a_m x^m + ... + a_0``.  The resultant uses the
Sylvester layout with ``deg g`` rows of ``f`` stacked above ``deg f`` rows of
``g``; the discriminant of a degree-d form is ``R(p, p') / p_lead`` in that
layout; it differs from the school-book discriminant by the sign
``(-1)^(d(d-1)/2)`` (e.g. it is ``4ac - b^2`` for quadratics, not
``b^2 - 4ac``).  The bivariate matrix ``P`` is the Sylvester matrix of the
partials ``F_a``, ``F_b`` of the top form (`_partials`), so
``det P = Res(F_a, F_b) = d^(d-2) * discriminant`` in this convention.

Every question about one form -- its resultant, its discriminant, its
chamber, its root count, or P at one theta -- builds the row
``[0, f, g]`` as one Python list, gathers it into the matrix with one
numpy call from the cached layout (`_sylvester_layout`) and takes one
``np.linalg.det``; the derivative coefficients, the coefficient checks and
the Sturm chain run on Python floats, since numpy's per-call cost would
dominate on a few coefficients.  Callers with many forms (the chamber
grid, the level shapes' unit matrices) ask once per form.  One Sturm chain
gives the sign changes at every point, so `classify_chamber` builds one
chain for both its positive and its negative root count, and reads its
sign changes at 0, +inf and -inf in one pass (`_variation_counts`).

Every public entry point converts its coefficients once (`_floats`) and
raises `InputError` there for a coefficient that is not a finite number.
"""

from __future__ import annotations

import functools
import math
import sys
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


def _floats(coeffs: Sequence[float]) -> list[float]:
    """The coefficients as Python floats; `InputError` unless each one is a
    finite number."""
    try:
        c = [float(v) for v in coeffs]
    except (TypeError, ValueError) as exc:
        raise InputError(f"coefficients must be numbers: {exc}") from exc
    if not all(map(math.isfinite, c)):
        raise InputError(f"coefficients must be finite, got {c!r}")
    return c


def _trim_exact(coeffs: Sequence[float]) -> list[float]:
    c = _floats(coeffs)
    i = 0
    while i < len(c) and c[i] == 0.0:
        i += 1
    return c[i:]


def poly_derivative(coeffs: Sequence[float]) -> list[float]:
    """Derivative, descending coefficients."""
    c = list(coeffs)
    m = len(c) - 1
    return [c[i] * (m - i) for i in range(m)]


def exponent(coeffs: Sequence[float], x: float | complex) -> float | complex:
    """g(x) = theta_1 x + ... + theta_d x^d by Horner's rule, for real or
    complex x.  ``coeffs`` ascend from theta_1 and there is no constant
    term."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = (acc + c) * x
    return acc


def sylvester_matrix(f: Sequence[float], g: Sequence[float]) -> np.ndarray:
    """Sylvester matrix: deg(g) shifted rows of f above deg(f) rows of g."""
    f = _trim_exact(f)
    g = _trim_exact(g)
    if not f or not g:
        raise ZeroPolynomial("resultant of the zero polynomial is undefined")
    if len(f) < 2 or len(g) < 2:
        raise UnsupportedOrder("both polynomials must have degree >= 1")
    return _sylvester(f, g)


@functools.lru_cache(maxsize=None)
def _sylvester_layout(m: int, n: int) -> np.ndarray:
    """The (m+n) x (m+n) Sylvester layout as indices into the row
    ``[0, f, g]`` (degrees m, n): index 0 is the zero entry."""
    idx = np.zeros((m + n, m + n), dtype=np.intp)
    for r in range(n):
        idx[r, r : r + m + 1] = range(1, m + 2)
    for r in range(m):
        idx[n + r, r : r + n + 1] = range(m + 2, m + n + 3)
    idx.flags.writeable = False  # shared by every caller through the cache
    return idx


def _sylvester(f: Sequence[float], g: Sequence[float]) -> np.ndarray:
    """The Sylvester matrix of one pair f, g (floats, degrees >= 1), by one
    gather from the row ``[0, f, g]``."""
    return np.array([0.0, *f, *g]).take(_sylvester_layout(len(f) - 1, len(g) - 1))


def sylvester_resultant(f: Sequence[float], g: Sequence[float]) -> float:
    return float(np.linalg.det(sylvester_matrix(f, g)))


def discriminant(theta_top: Sequence[float]) -> float:
    """Discriminant R(p, p')/lead(p) of the top form, theorem convention.

    ``theta_top`` is ``(theta_d0, theta_{d-1,1}, ..., theta_0d)``, i.e. the
    coefficients of ``p(a)`` in descending powers.  A coefficient that is
    not a finite number raises `InputError`, degree d < 2
    `UnsupportedOrder`, and a zero lead `LeadingCoefficientZero`.
    """
    return _discriminant(_checked_top(theta_top, "discriminant"))


def _checked_top(theta_top: Sequence[float], what: str) -> list[float]:
    """The top form as floats, checked: finite coefficients (`InputError`),
    degree >= 2 (`UnsupportedOrder`) and a non-zero lead
    (`LeadingCoefficientZero`)."""
    top = _floats(theta_top)
    if len(top) < 3:
        raise UnsupportedOrder(f"{what} requires degree d >= 2")
    if top[0] == 0.0:
        raise LeadingCoefficientZero("theta_d0 must be non-zero")
    return top


def _discriminant(top: Sequence[float]) -> float:
    """`discriminant` of a checked top form (floats, degree >= 2, lead
    non-zero): one Sylvester matrix of p and p', one det."""
    return float(np.linalg.det(_sylvester(top, poly_derivative(top)))) / top[0]


def _partials(top: Sequence[float]) -> tuple[list[float], list[float]]:
    """Partials of F(a, b) = sum_c top[c] a^(d-c) b^c at b = 1, in
    descending powers of a: F_a[c] = (d-c) top[c], F_b[c] = (c+1) top[c+1]."""
    return poly_derivative(top), [top[c + 1] * (c + 1) for c in range(len(top) - 1)]


def _sturm_chain(p0: Sequence[float]) -> list[list[float]]:
    """The Sturm chain of p0 (floats, no leading zero), each member scaled
    by a positive factor."""
    if not p0:
        raise ZeroPolynomial("Sturm chain of the zero polynomial")
    if len(p0) == 1:
        return [p0]
    scale = max(map(abs, p0))
    if abs(p0[0] / scale) < sys.float_info.min:
        # scaled, the lead is zero or subnormal, and the remainders divide by it
        raise LeadingCoefficientZero(
            f"leading coefficient {p0[0]!r} is negligible next to {scale!r}: "
            "a root lies beyond double range"
        )
    p0 = [v / scale for v in p0]
    der = poly_derivative(p0)
    der_scale = max(map(abs, der))
    chain = [p0, [v / der_scale for v in der]]
    while len(chain[-1]) > 1:
        rem = _poly_remainder(chain[-2], chain[-1])
        mag = max(map(abs, rem), default=0.0)
        if mag <= _DEGENERACY_TOL:
            raise NonSquarefree("Sturm sequence degenerated: repeated root")
        # Positive scaling preserves every sign pattern in the chain.
        chain.append([-v / mag for v in rem])
    return chain


def _poly_remainder(f: list[float], g: list[float]) -> list[float]:
    """Remainder of f by g (descending coefficients), tiny leads trimmed."""
    r = list(f)
    g0 = g[0]
    dg = len(g) - 1
    while len(r) > dg:
        # the lead cancels and is dropped
        q = r.pop(0) / g0
        for i in range(dg):
            r[i] -= q * g[i + 1]
        mag = max(map(abs, r), default=0.0)
        while r and abs(r[0]) <= 1e-13 * max(mag, 1e-300):
            r.pop(0)
    return r


def _variations(chain: list[list[float]], x: float) -> int:
    """Sign changes along the chain at x, zeros skipped.

    At +-inf each sign is the lead's, flipped at -inf for odd degree; at 0
    it is the constant term's, which is what Horner's rule returns there
    for finite coefficients.  Horner's rule (`exponent`) runs only at
    finite non-zero x.
    """
    if x == 0.0:
        values = [c[-1] for c in chain]
    elif x == math.inf:
        values = [c[0] for c in chain]
    elif x == -math.inf:
        values = [-c[0] if len(c) % 2 == 0 else c[0] for c in chain]
    else:
        values = [exponent(c[-2::-1], x) + c[-1] for c in chain]
    signs = [v > 0.0 for v in values if v > 0.0 or v < 0.0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _variation_counts(chain: list[list[float]]) -> tuple[int, int, int]:
    """`_variations` of the chain at 0, +inf and -inf, in one pass."""
    v_zero = v_pos = v_neg = 0
    # the last non-zero value at each point; 0.0 until there is one
    zero = pos = neg = 0.0
    for c in chain:
        x = c[-1]
        if x > 0.0 or x < 0.0:
            if zero and (x > 0.0) != (zero > 0.0):
                v_zero += 1
            zero = x
        x = c[0]
        if x > 0.0 or x < 0.0:
            if pos and (x > 0.0) != (pos > 0.0):
                v_pos += 1
            pos = x
            if len(c) % 2 == 0:  # odd degree: the sign flips at -inf
                x = -x
            if neg and (x > 0.0) != (neg > 0.0):
                v_neg += 1
            neg = x
    return v_zero, v_pos, v_neg


def count_real_roots(coeffs: Sequence[float], a: float = -math.inf, b: float = math.inf) -> int:
    """Number of distinct real roots in (a, b], Sturm's theorem.

    Raises NonSquarefree when the polynomial has a repeated root (within
    floating-point tolerance), in which case the count is not defined by this
    routine; see count_positive_roots_squarefree for a total variant.  A
    coefficient that is not a finite number raises `InputError`.
    """
    if not a < b:
        raise InputError("interval must satisfy a < b")
    chain = _sturm_chain(_trim_exact(coeffs))
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
    """Real-root signature of the top form on one discriminant chamber.

    ``n_zero`` is 1 when the form has a root at the origin (its last
    coefficient is exactly 0; a double root there lies on the discriminant),
    so ``degree`` counts every root.
    """

    n_positive: int
    n_negative: int
    n_complex_pairs: int
    proper: bool
    n_zero: int = 0

    @property
    def degree(self) -> int:
        return self.n_positive + self.n_negative + self.n_zero + 2 * self.n_complex_pairs

    @property
    def letter(self) -> str | None:
        """Figure labels for the cubic slice: A, B, or C (None otherwise).

        A cubic with a root at the origin gets None too: theta_03 = 0 lies on
        no chamber of the slice theta_30 = theta_03 = -1.
        """
        if self.degree != 3:
            return None
        return {
            (2, 1, 0): "A",
            (0, 1, 1): "B",
            (0, 3, 0): "C",
        }.get((self.n_positive, self.n_negative, self.n_complex_pairs))


def classify_chamber(theta_top: Sequence[float]) -> ChamberLabel:
    """Root signature of the top form p and properness of its chamber.

    Raises OnDiscriminant when theta_top lies on the discriminant zero set
    within ``_DEGENERACY_TOL * scale`` (scale = max(1, max|c|)^(2d-2),
    matching the degree of the discriminant polynomial), or when the Sturm
    chain finds a repeated root there.  Where that scale is beyond double
    range, both sides of the test are scaled by 2^(-e(2d-2)), with
    max|c| = m 2^e (0.5 <= m < 1): the same test, without the overflow.
    One Sturm chain of p gives both counts: with V(x) its sign changes at
    x, n_pos = V(0) - V(+inf) and n_neg = V(-inf) - V(0), a root at exactly
    zero taken out of the latter.
    A coefficient that is not a finite number raises `InputError`.
    """
    top = _checked_top(theta_top, "chamber classification")
    return _classify_with_discriminant(top, _discriminant(top))


def _classify_with_discriminant(top: Sequence[float], disc: float) -> ChamberLabel:
    """`classify_chamber` of a top form already checked (degree >= 2, lead
    non-zero, finite floats) whose discriminant ``disc`` is known."""
    d = len(top) - 1
    k = 2 * d - 2
    big = max(map(abs, top))
    try:
        on_wall = abs(disc) <= _DEGENERACY_TOL * max(1.0, big) ** k
    except OverflowError:
        # big = m 2^e: both sides scaled by 2^(-e k), exactly
        m, e = math.frexp(big)
        on_wall = abs(math.ldexp(disc, -e * k)) <= _DEGENERACY_TOL * m**k
    if on_wall:
        raise OnDiscriminant(f"discriminant {disc:.3e} within tolerance of zero")
    try:
        chain = _sturm_chain(top)
    except NonSquarefree as exc:
        # a discriminant just above the tolerance can still hide a double
        # root that the Sturm chain resolves as degenerate
        raise OnDiscriminant(
            f"discriminant {disc:.3e} is off zero but the root count sees a repeated root"
        ) from exc
    v_zero, v_pos, v_neg = _variation_counts(chain)
    n_pos = v_zero - v_pos
    n_neg = v_neg - v_zero
    # a root at exactly zero is counted by the (-inf, 0] interval
    n_zero = 1 if top[-1] == 0.0 else 0
    n_neg -= n_zero
    pairs, rem = divmod(d - n_pos - n_neg - n_zero, 2)
    if rem != 0:
        raise NonSquarefree("inconsistent root count; polynomial is ill-conditioned")
    proper = top[0] < 0.0 and top[-1] < 0.0 and n_pos == 0
    return ChamberLabel(n_pos, n_neg, pairs, proper, n_zero)
