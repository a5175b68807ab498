"""
Bivariate normalizing constants on the positive quadrant
========================================================

For exp(sum theta_ij x^i y^j) on the quadrant the derivative vector becomes
a table of mixed moment integrals T[s, t], transported along parameter
segments by the same mechanism as in one variable.  Starting tables come
from product parameters (no cross terms), where everything factors into two
one-dimensional problems.
"""

import math

import numpy as np

from exppoly import (
    PathCrossesSingularity,
    ThetaBi,
    extend_table,
    initial_state_bi,
    quad_A_bi,
    transport_bi,
)

# ------------------------------------------------------------------
# 1. A product start: exp(-x^2 - y^2) has A = pi/4, and the table entries
#    are products of one-dimensional gamma moments.

start = initial_state_bi(2, 1.0, 1.0)
print(f"product Gaussian: A = {start.norm_const:.12f}  (pi/4 = {math.pi / 4:.12f})")

# ------------------------------------------------------------------
# 2. Switch on a cross term and transport.  Quadrature over the quadrant
#    confirms the moved constant.

theta = ThetaBi(2, {(2, 0): -1.0, (1, 1): -0.8, (0, 2): -1.3})
table = transport_bi(start, theta)
q = quad_A_bi(theta)
print(f"with cross term: A = {table.norm_const:.12f}, quadrature = {q:.12f}, "
      f"rel diff = {abs(table.norm_const / q - 1):.2e}")

# ------------------------------------------------------------------
# 3. Higher moments come from extending the table through the level
#    recursions; T[1,0]/T[0,0] and T[0,1]/T[0,0] are the coordinate means.

table = extend_table(table, 2)
mean_x = table.entry(1, 0) / table.norm_const
mean_y = table.entry(0, 1) / table.norm_const
print(f"E[x] = {mean_x:.6f}, E[y] = {mean_y:.6f}, "
      f"E[xy] = {table.entry(1, 1) / table.norm_const:.6f}")

# ------------------------------------------------------------------
# 4. Linear terms tilt the density but keep the problem well posed; the
#    transported value still matches quadrature.

tilted = ThetaBi(2, {(1, 0): 0.7, (0, 1): -0.4, (2, 0): -1.0,
                     (1, 1): -0.8, (0, 2): -1.3})
moved = transport_bi(start, tilted)
q = quad_A_bi(tilted)
print(f"tilted: A = {moved.norm_const:.12f}, rel diff vs quadrature = "
      f"{abs(moved.norm_const / q - 1):.2e}")

# ------------------------------------------------------------------
# 5. Parameter segments may not cross the discriminant walls: the system's
#    coefficient matrix P degenerates there.  Along a segment P is a linear
#    pencil, and transport refuses, before any step, a segment on which one
#    of the pencil's zeros lies.  The wall for d = 2 sits at
#    theta_11^2 = 4 theta_20 theta_02.

beyond = ThetaBi(2, {(2, 0): -1.0, (1, 1): -3.0, (0, 2): -1.0})
try:
    transport_bi(start, beyond)
except PathCrossesSingularity as exc:
    print(f"\nrefused wall crossing: {exc}")
print(f"the constant there is still finite (quadrature): {quad_A_bi(beyond):.9f}")
