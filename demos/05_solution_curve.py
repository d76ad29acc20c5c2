"""
Type-reduced curves and the crisp solution curve
================================================

Running every control point through cut -> type-reduce -> defuzzify gives
the crisp solution control polygon; the rational curve over it is the
crisp solution curve.  Because the demonstration model's spreads are NOT
mirror-symmetric, the solution curve misses the crisp curve by a small,
quantifiable margin -- symmetric spreads would close that gap to zero.

Writes t2spline_solution.svg into the current directory.
"""

from t2spline import (
    NT2FuzzyPoint,
    NT2FuzzyScalar,
    FuzzyCurveModel,
    Scene,
    component_polygons,
    defuzzified_curve,
    deviation,
    demo_document,
    reduced_curves,
    render_svg,
    sample_curve,
)
from t2spline.curves import evaluate

model = demo_document().to_model()
samples = 101

red = reduced_curves(model, samples)
crisp = sample_curve(model.crisp_model(), samples)
solution = defuzzified_curve(model, samples)

print("type-reduced curves bracket the crisp curve;")
print("x at t=0.5:  left", red.left.points[50, 0], " crisp", red.crisp.points[50, 0], " right", red.right.points[50, 0])

report = deviation(solution, crisp)
print("\nsolution-vs-crisp deviation (asymmetric spreads):")
print("  max  =", report.max_distance)
print("  mean =", report.mean_distance)

# The same model with mirror-symmetric spreads: the deviation collapses.
sym_points = [
    NT2FuzzyPoint(
        NT2FuzzyScalar.from_spreads(p.x.c, (0.8, 0.5, 0.2, 0.2, 0.5, 0.8), 0.6),
        NT2FuzzyScalar.from_spreads(p.y.c, (0.8, 0.5, 0.2, 0.2, 0.5, 0.8), 0.6),
    )
    for p in model.fuzzy_controls
]
sym_model = FuzzyCurveModel.with_uniform_knots(sym_points, weights=model.weights, order=3, alpha=0.8)
sym_report = deviation(defuzzified_curve(sym_model, samples), sample_curve(sym_model.crisp_model(), samples))
print("\nsame comparison with symmetric spreads:")
print("  max  =", sym_report.max_distance)

# The figure draws the labelled arrays of the type-reduced and defuzzified
# groups: tr_left, crisp, tr_right and defuzzified.
_, series = evaluate(model, ["reduced", "defuzzified"], samples)
render_svg(
    Scene(series, controls=component_polygons(model)["crisp"], title="crisp solution curve vs crisp curve"),
    "t2spline_solution.svg",
)
print("\nwrote t2spline_solution.svg")
