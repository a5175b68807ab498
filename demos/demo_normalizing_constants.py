"""
Normalizing constants by derivative-vector transport
====================================================

A density proportional to exp(theta_1 x + ... + theta_d x^d) has a
normalizing constant A(theta) with no closed form once d > 2.  The library
evaluates it by moving a small vector of derivatives of A along a segment in
parameter space, starting from a pure gamma integral where everything is
known exactly.
"""

import math

import numpy as np

from exppoly import (
    ThetaUni,
    ToleranceNotMet,
    closed_form_A,
    norm_const_and_derivs,
    quad_moment_uni,
    state_at,
)

# ------------------------------------------------------------------
# 1. Cases with closed forms, as a warm-up.  The exponential density on
#    the half line has A = 1/c; the half-Gaussian has A = sqrt(pi)/2.

for coeffs in [(-2.0,), (0.0, -1.0)]:
    th = ThetaUni(coeffs)
    a = norm_const_and_derivs(th)[0]
    print(f"theta = {coeffs}: A = {a:.12f}   closed form = {closed_form_A(th):.12f}")

# ------------------------------------------------------------------
# 2. A cubic with no closed form.  Transport and adaptive quadrature are
#    two completely independent evaluations; they agree to ~1e-10.

th = ThetaUni((-1.0, 3.0, -2.0))
a = norm_const_and_derivs(th)[0]
q = quad_moment_uni(th)
print(f"\ncubic {th.coeffs}: transport A = {a:.12f}, quadrature = {q:.12f}, "
      f"rel diff = {abs(a / q - 1):.2e}")

# ------------------------------------------------------------------
# 3. The same call returns theta_1-derivatives of A, which are exactly the
#    raw moment integrals of the unnormalized density: derivs[m] is the
#    integral of x^m exp(g).  Mean and variance of the density follow.

derivs = norm_const_and_derivs(th, M=2)
mean = derivs[1] / derivs[0]
var = derivs[2] / derivs[0] - mean**2
print(f"mean = {mean:.6f}, variance = {var:.6f}")

# ------------------------------------------------------------------
# 4. The transported state also carries an error estimate that accounts
#    for how much the homogeneous solutions of the system can amplify
#    integration error at the target parameter.

st = state_at(th)
print(f"error estimate at the target: {st.last_transport_error:.2e}")

# ------------------------------------------------------------------
# 5. Another path gives a cross-check: transport to the same target from a
#    nearby cubic instead of from the gamma point.  The start's own error
#    rides along in the estimate, so the two values should differ by no
#    more than the sum of the two estimates.

via = state_at(th, start=state_at(ThetaUni((-0.5, 2.0, -1.5))))
print(f"from the gamma point: A = {st.norm_const:.15f} (estimate {st.last_transport_error:.2e})")
print(f"via (-0.5, 2, -1.5):  A = {via.norm_const:.15f} (estimate {via.last_transport_error:.2e})")
diff = abs(via.norm_const / st.norm_const - 1)
print(f"relative difference {diff:.2e}")
assert diff <= st.last_transport_error + via.last_transport_error

# ------------------------------------------------------------------
# 6. Some parameters are beyond double precision: when the exponent has a
#    stationary point off the support whose exp-value dwarfs A, transported
#    constants lose all digits.  The engine detects this and refuses rather
#    than returning noise; quadrature still works there.

hopeless = (1.4434331851757087, -0.3798710314064899, -1.4700716549096162,
            0.9756049101446616, -0.9751711903114564, -0.4006502337667856)
try:
    norm_const_and_derivs(hopeless)
except ToleranceNotMet as exc:
    print(f"\nrefused: {exc}")
print(f"quadrature value there: {quad_moment_uni(ThetaUni(hopeless)):.12f}")
