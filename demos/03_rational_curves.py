"""
Crisp rational B-spline curves
==============================

The curve engine underneath everything: clamped uniform knot vectors,
B-spline basis functions (de Boor's triangular table), and weighted
rational evaluation

    C(t) = sum_i w_i N_i(t) P_i / sum_r w_r N_r(t).
"""

import numpy as np

from t2spline import (
    RationalCurveModel,
    basis_row,
    clamped_uniform_knots,
    rational_point,
    sample_curve,
)

controls = np.array([[0.0, 0.0], [2.0, 4.0], [5.0, 5.0], [7.0, 1.0]])

# Order 3 (degree 2) over four control points: one interior knot at 0.5.
kv = clamped_uniform_knots(4, 3)
print("knot vector:", kv.knots)
print("domain:     ", kv.domain)

# The basis functions are non-negative and sum to one everywhere.
print("\n   t     N0      N1      N2      N3     sum")
for t in np.linspace(0, 1, 9):
    row = basis_row(kv, t)
    print(f"{t:5.3f}  " + "  ".join(f"{v:6.4f}" for v in row) + f"  {row.sum():.12f}")

# With clamped knots the curve interpolates its end control points.
model = RationalCurveModel.with_uniform_knots(controls, np.array([1.0, 1.0, 3.0, 1.0]), order=3)
print("\ncurve(0) =", rational_point(model, 0.0), " first control:", controls[0])
print("curve(1) =", rational_point(model, 1.0), " last control: ", controls[-1])

# Raising one weight pulls the curve toward that control point.
flat = RationalCurveModel.with_uniform_knots(controls, np.ones(4), order=3)
target = controls[2]
for label, m in (("weights (1,1,1,1)", flat), ("weights (1,1,3,1)", model)):
    line = sample_curve(m, 201)
    nearest = np.linalg.norm(line.points - target, axis=1).min()
    print(f"{label}: closest approach to P3 = {nearest:.4f}")

# Scaling ALL weights by any positive constant changes nothing: the
# evaluation is homogeneous of degree zero in the weights.
scaled = RationalCurveModel.with_uniform_knots(controls, 7.3 * np.array([1.0, 1.0, 3.0, 1.0]), order=3)
diff = np.abs(sample_curve(model, 101).points - sample_curve(scaled, 101).points).max()
print("\nmax |curve - curve_with_7.3x_weights| =", diff)
