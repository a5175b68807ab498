"""Parameter spaces and sufficient statistics.

Univariate densities are proportional to ``exp(theta_1 x + ... + theta_d x^d)``
on the half line ``x > 0`` or on the whole real line (even order only).  The
normalizing constant is finite exactly when the last non-zero coefficient is
negative (and of even index on the real line); those vectors form the interior
``Omega_d`` and its lower-order boundary strata.

Bivariate densities live on the positive quadrant with exponent
``sum theta_ij x^i y^j`` over ``1 <= i+j <= d``.  Integrability is governed by
the top-degree form ``p(a) = theta_d0 a^d + theta_{d-1,1} a^{d-1} + ... +
theta_0d``: the proper region requires ``p(a) < 0`` for every ``a >= 0``
together with negative axis coefficients.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import polyalg
from .errors import EmptySample, InputError, NegativeDatum, UnsupportedOrder


class Support(Enum):
    HALF_LINE = "halfline"
    REAL_LINE = "realline"


class Membership(Enum):
    INTERIOR = "interior"
    BOUNDARY = "boundary"
    OUTSIDE = "outside"


@dataclass(frozen=True)
class ThetaUni:
    """Coefficient vector (theta_1, ..., theta_d) of a univariate exponent.

    ``coeffs[k]`` multiplies ``x^(k+1)``; there is no constant term.  On
    REAL_LINE support the stored order must be even.  ``support`` may also
    be given by its value, ``"halfline"`` or ``"realline"``; it is stored as
    the `Support` member, and anything else raises `InputError`.
    """

    coeffs: tuple[float, ...]
    support: Support = Support.HALF_LINE

    def __post_init__(self) -> None:
        if not isinstance(self.support, Support):
            try:
                object.__setattr__(self, "support", Support(self.support))
            except ValueError:
                raise InputError(
                    f"support must be a Support or one of {[s.value for s in Support]}, "
                    f"got {self.support!r}"
                ) from None
        coeffs = tuple(float(c) for c in self.coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        if len(coeffs) < 1:
            raise UnsupportedOrder("theta must have order d >= 1")
        if not all(map(math.isfinite, coeffs)):
            raise InputError("theta coefficients must be finite")
        if self.support is Support.REAL_LINE and len(coeffs) % 2 != 0:
            raise UnsupportedOrder(
                "whole-line densities require an even polynomial order, "
                f"got d={len(coeffs)}"
            )

    @property
    def d(self) -> int:
        return len(self.coeffs)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.coeffs, dtype=float)


@dataclass(frozen=True)
class Classification:
    membership: Membership
    # Effective order k: index of the last non-zero coefficient.  Equals d in
    # the interior, k < d on a boundary stratum, None outside.
    effective_order: int | None
    # The same index wherever theta lies (0 when every coefficient is zero),
    # so a caller can say why a parameter is outside.
    leading_order: int = 0

    @property
    def is_interior(self) -> bool:
        return self.membership is Membership.INTERIOR


def classify_theta_uni(theta: ThetaUni) -> Classification:
    """Locate theta relative to the integrable region.

    Comparisons against zero are exact: boundary strata are defined by
    coefficients stored as literal 0.0, not by a tolerance.
    """
    coeffs = theta.coeffs
    k = len(coeffs)
    while k > 0 and coeffs[k - 1] == 0.0:
        k -= 1
    if k == 0 or coeffs[k - 1] > 0.0:
        return Classification(Membership.OUTSIDE, None, k)
    if theta.support is Support.REAL_LINE and k % 2 != 0:
        # A negative odd leading term still diverges as x -> -infinity.
        return Classification(Membership.OUTSIDE, None, k)
    if k == len(coeffs):
        return Classification(Membership.INTERIOR, k, k)
    return Classification(Membership.BOUNDARY, k, k)


def effective_theta(theta: ThetaUni) -> ThetaUni:
    """Drop trailing zero coefficients down to the effective order; theta
    itself when it is already there."""
    cls = classify_theta_uni(theta)
    if cls.effective_order is None:
        raise InputError("theta is outside the integrable region")
    if cls.effective_order == theta.d:
        return theta
    return ThetaUni(theta.coeffs[: cls.effective_order], theta.support)


def monomials_bi(d: int) -> list[tuple[int, int]]:
    """Canonical monomial order: by total degree, then decreasing x power.

    Degree-1 terms first ((1,0), (0,1)), the top block last
    ((d,0), (d-1,1), ..., (0,d)).
    """
    if d < 1:
        raise UnsupportedOrder("bivariate order d must be >= 1")
    return [(total - j, j) for total in range(1, d + 1) for j in range(total + 1)]


@functools.lru_cache(maxsize=None)
def _monomial_set(d: int) -> frozenset[tuple[int, int]]:
    """The keys a `ThetaBi` of order d accepts, built once per d."""
    return frozenset(monomials_bi(d))


@dataclass(frozen=True)
class ThetaBi:
    """Bivariate exponent coefficients theta_ij for 1 <= i+j <= d."""

    d: int
    coeffs: Mapping[tuple[int, int], float]

    def __post_init__(self) -> None:
        if self.d < 1:
            raise UnsupportedOrder("bivariate order d must be >= 1")
        wanted = _monomial_set(self.d)
        cleaned = {}
        for key, value in dict(self.coeffs).items():
            ij = (int(key[0]), int(key[1]))
            if ij not in wanted:
                raise InputError(f"coefficient index {ij} is not in 1 <= i+j <= {self.d}")
            cleaned[ij] = float(value)
        for ij in wanted:
            cleaned.setdefault(ij, 0.0)
        if not all(map(math.isfinite, cleaned.values())):
            raise InputError("theta coefficients must be finite")
        object.__setattr__(self, "coeffs", cleaned)

    def __getitem__(self, ij: tuple[int, int]) -> float:
        return self.coeffs[ij]

    def as_vector(self) -> np.ndarray:
        return np.array([self.coeffs[ij] for ij in monomials_bi(self.d)], dtype=float)

    @classmethod
    def from_vector(cls, d: int, vec: Sequence[float]) -> "ThetaBi":
        mons = monomials_bi(d)
        vec = list(vec)
        if len(vec) != len(mons):
            raise InputError(f"expected {len(mons)} coefficients for d={d}, got {len(vec)}")
        return cls(d, dict(zip(mons, vec)))

    def top_coeffs(self) -> tuple[float, ...]:
        """Top-degree coefficients (theta_d0, theta_{d-1,1}, ..., theta_0d)."""
        return tuple(self.coeffs[(self.d - j, j)] for j in range(self.d + 1))

    def x_axis_coeffs(self) -> tuple[float, ...]:
        """Coefficients (theta_10, theta_20, ..., theta_d0) of the x-axis restriction."""
        return tuple(self.coeffs[(i, 0)] for i in range(1, self.d + 1))

    def y_axis_coeffs(self) -> tuple[float, ...]:
        return tuple(self.coeffs[(0, j)] for j in range(1, self.d + 1))

    def transpose(self) -> "ThetaBi":
        """Swap the roles of x and y."""
        return ThetaBi(self.d, {(j, i): v for (i, j), v in self.coeffs.items()})


def in_proper_bivariate_space(theta: ThetaBi) -> bool:
    """Membership in the proper region.

    Requires theta_d0 < 0, theta_0d < 0, and the top form p(a) strictly
    negative on the closed ray a >= 0.  Given the endpoint signs, the ray
    condition is equivalent to p having no positive real root; a repeated
    positive root (a tangency with zero) also fails the strict inequality, so
    root counting is performed on the squarefree part.
    """
    top = theta.top_coeffs()
    if top[0] >= 0.0 or top[-1] >= 0.0:
        return False
    if theta.d == 1:
        # p(a) = theta_10 a + theta_01 with both coefficients negative.
        return True
    descending = top  # top_coeffs is already descending in the x power
    return polyalg.count_positive_roots_squarefree(descending) == 0


_MAX_MOMENT_ORDER = 64


@dataclass(frozen=True)
class SuffStats:
    """Sample size and raw moment averages.

    Univariate: ``moments[m-1]`` is the sample mean of ``x^m`` for
    ``m = 1..order``.  Bivariate: ``moments_bi[(s, t)]`` is the sample mean of
    ``x^s y^t`` for ``1 <= s+t <= order``.
    """

    n: int
    order: int
    support: Support | None = None
    moments: tuple[float, ...] = ()
    moments_bi: Mapping[tuple[int, int], float] = field(default_factory=dict)

    @property
    def is_bivariate(self) -> bool:
        return bool(self.moments_bi)

    def moment(self, m: int) -> float:
        if not 1 <= m <= self.order:
            raise InputError(f"moment order {m} not in 1..{self.order}")
        return self.moments[m - 1]

    def moment_bi(self, s: int, t: int) -> float:
        return self.moments_bi[(s, t)]


def suff_stats(sample: Iterable, order: int, support: Support | str = Support.HALF_LINE) -> SuffStats:
    """Compute moment statistics of a sample up to the given order.

    ``support`` may be a :class:`Support` value, or the string ``"bivariate"``
    for two-column positive-quadrant data.  An order-d univariate fit reads
    moments 1..d for its likelihood; it starts at the score-matching
    estimate only when the statistics also carry moments through 2d-1 on the
    half line, 2d-2 on the whole line (``inference.fit_mle``).
    """
    if not 1 <= order <= _MAX_MOMENT_ORDER:
        raise UnsupportedOrder(f"moment order must be in 1..{_MAX_MOMENT_ORDER}")
    arr = np.asarray(list(sample) if not isinstance(sample, np.ndarray) else sample, dtype=float)
    if support == "bivariate":
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise InputError("bivariate samples must be an (n, 2) array")
        if arr.shape[0] == 0:
            raise EmptySample("sample is empty")
        if not np.all(np.isfinite(arr)):
            raise InputError("sample contains non-finite values")
        if np.any(arr <= 0.0):
            raise NegativeDatum("positive-quadrant data must be strictly positive")
        d = order
        moments = {
            (s, t): float(np.mean(arr[:, 0] ** s * arr[:, 1] ** t))
            for (s, t) in monomials_bi(d)
        }
        return SuffStats(n=arr.shape[0], order=order, support=None, moments_bi=moments)

    support = Support(support)
    arr = arr.reshape(-1)
    if arr.size == 0:
        raise EmptySample("sample is empty")
    if not np.all(np.isfinite(arr)):
        raise InputError("sample contains non-finite values")
    if support is Support.HALF_LINE and np.any(arr <= 0.0):
        raise NegativeDatum("half-line data must be strictly positive")
    moments = tuple(float(np.mean(arr**m)) for m in range(1, order + 1))
    return SuffStats(n=arr.size, order=order, support=support, moments=moments)
