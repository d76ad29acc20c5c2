"""
The seven-curve uncertainty band
================================

Each fuzzy control point carries seven component positions, so the model
carries seven parallel control polygons.  Evaluating the rational curve
over each polygon (shared weights, shared knots) yields a nested band of
curves around the crisp one -- the picture of how coordinate uncertainty
propagates through the curve.

Writes t2spline_band.csv and t2spline_band.svg into the current directory.
"""

from t2spline import (
    COMPONENT_LABELS,
    Scene,
    component_polygons,
    demo_document,
    render_svg,
    write_csv,
)
from t2spline.curves import evaluate

model = demo_document().to_model()
print("fuzzy control points (crisp locations):")
for p in model.fuzzy_controls:
    print("  ", p.crisp_xy, " x-spreads:", p.x.spreads)

polygons = component_polygons(model)
print("\nseven control polygons, first control point of each:")
for label in COMPONENT_LABELS:
    print(f"  {label:>5}: {polygons[label][0]}")

# The seven curves, sampled at one shared parameter array ts, as labelled
# (101, 2) point arrays.
ts, band = evaluate(model, ["band"], samples=101)

# The band is ordered: at every parameter, the x-values of the seven
# curves respect the component order wherever spreads are axis-aligned,
# and the outer curves enclose the inner ones.
mid = 50
print(f"\nband x-values at t = {ts[mid]}:")
for label, points in band.items():
    print(f"  {label:>5}: {points[mid, 0]: .4f}")

write_csv(ts, band, "t2spline_band.csv")
render_svg(
    Scene(band, controls=polygons["crisp"], title="uncertainty band of the demonstration model"),
    "t2spline_band.svg",
)
print("\nwrote t2spline_band.csv and t2spline_band.svg")
