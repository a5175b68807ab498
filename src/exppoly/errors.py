"""Semantic exception hierarchy.

Every error raised by this package derives from :class:`ExpPolyError`, so
callers can catch one base class at an API boundary.  The leaf classes mirror
specific failure modes (bad input, leaving the parameter domain, numerical
breakdown of a transport or a quadrature) rather than the module that raised
them.
"""

from __future__ import annotations


class ExpPolyError(Exception):
    """Base class for all errors raised by exppoly."""


class InputError(ExpPolyError, ValueError):
    """Invalid argument values (shape, emptiness, unsupported order...)."""


class EmptySample(InputError):
    """A sample with zero observations was supplied."""


class NegativeDatum(InputError):
    """Half-line or positive-quadrant data contained a non-positive value."""


class UnsupportedOrder(InputError):
    """Polynomial order outside what the requested operation supports."""


class NonPositiveScale(InputError):
    """Initial-point scale c must be strictly positive."""


class DomainError(ExpPolyError):
    """Parameter lies outside the region where the object is defined."""


class SingularLeadingCoefficient(DomainError):
    """Leading coefficient vanished where the recursion divides by it."""


class AxisOutsideDomain(DomainError):
    """An axis restriction of a bivariate parameter is not integrable."""


class DivergentIntegral(DomainError):
    """The requested integral does not converge."""


class TransportError(ExpPolyError):
    """Failure while carrying a state along a parameter path."""


class PathSingularity(TransportError):
    """The straight path leaves the interior of the parameter domain."""


class PathCrossesSingularity(TransportError):
    """The path meets the discriminant hypersurface of the system."""


class OdeDivergence(TransportError):
    """Step-size underflow or step budget exhausted in the ODE solver."""


class LinearSystemError(ExpPolyError):
    """Failure while solving the derivative-completion linear systems."""


class SingularSystem(LinearSystemError):
    """Coefficient matrix numerically singular."""


class InconsistentExtension(LinearSystemError):
    """Overdetermined completion system had a residual above tolerance."""


class SingularInformation(LinearSystemError):
    """Fisher information (or a Schur complement of it) not invertible."""


class PolynomialError(ExpPolyError):
    """Errors from the resultant/discriminant/root-counting layer."""


class ZeroPolynomial(PolynomialError):
    """An identically-zero polynomial where a nonzero one is required."""


class LeadingCoefficientZero(PolynomialError):
    """Supplied coefficients have a vanishing leading term."""


class NonSquarefree(PolynomialError):
    """Sturm sequence degenerated: the polynomial has a repeated root."""


class OnDiscriminant(PolynomialError):
    """Parameter lies on the discriminant zero set within tolerance."""


class ToleranceNotMet(ExpPolyError):
    """A numerical routine could not reach its requested accuracy."""


class NotConverged(ExpPolyError):
    """Iteration budget exhausted before meeting the convergence test."""
