"""Normal type-2 triangular fuzzy data points on rational B-spline curves.

The package models planar data points whose coordinates carry complex
uncertainty as seven-component triangular type-2 fuzzy numbers, pushes them
through alpha-cut fuzzification, centroid-min type-reduction and
defuzzification, and evaluates rational B-spline curves over the resulting
control polygons: the seven-curve uncertainty band, the type-reduced curve
pair, and the crisp solution curve, plus deviation reports between curves.
"""

from .bspline import (
    KnotVector,
    RationalCurveModel,
    basis,
    basis_row,
    clamped_uniform_knots,
    deferred,
    rational_point,
    sample_curve,
)
from .curves import (
    COMPONENT_LABELS,
    FuzzyCurveModel,
    component_polygons,
    defuzzified_curve,
    deviation,
    fuzzy_curve_band,
    reduced_curves,
)
from .document import (
    ModelDocument,
    demo_document,
    document_to_json,
    load_document,
    load_model,
    parse_document,
    save_document,
)
from .errors import (
    AlphaOutOfRange,
    HeightOutOfRange,
    NegativeSpread,
    OrderExceedsControlCount,
    OrderingViolation,
    ParameterOutOfDomain,
    ParseError,
    SampleMismatch,
    SpreadOrderViolation,
    T2SplineError,
    TooFewSamples,
    ValidationError,
)
from .output import render_svg, svg_document, write_csv
from .pipeline import (
    alpha_cut_point,
    alpha_cut_scalar,
    defuzzify,
    pipeline_point,
    type_reduce,
)

__version__ = "0.1.0"

#: The record classes no command builds, which load from
#: :mod:`t2spline._records`, and the figure only ``plot`` draws, which loads
#: from :mod:`t2spline._svg`, on first access.
__getattr__, __dir__ = deferred(globals(), {
    "_records": (
        "NT2FuzzyScalar", "NT2FuzzyPoint", "AlphaCutScalar", "TRInterval", "Regime",
        "Polyline", "CurveBand", "ReducedCurves", "DeviationReport",
    ),
    "_svg": ("Scene",),
})
del deferred

__all__ = [
    "AlphaCutScalar",
    "AlphaOutOfRange",
    "COMPONENT_LABELS",
    "CurveBand",
    "DeviationReport",
    "FuzzyCurveModel",
    "HeightOutOfRange",
    "KnotVector",
    "ModelDocument",
    "NT2FuzzyPoint",
    "NT2FuzzyScalar",
    "NegativeSpread",
    "OrderExceedsControlCount",
    "OrderingViolation",
    "ParameterOutOfDomain",
    "ParseError",
    "Polyline",
    "RationalCurveModel",
    "ReducedCurves",
    "Regime",
    "SampleMismatch",
    "Scene",
    "SpreadOrderViolation",
    "T2SplineError",
    "TRInterval",
    "TooFewSamples",
    "ValidationError",
    "alpha_cut_point",
    "alpha_cut_scalar",
    "basis",
    "basis_row",
    "clamped_uniform_knots",
    "component_polygons",
    "defuzzified_curve",
    "defuzzify",
    "demo_document",
    "deviation",
    "document_to_json",
    "fuzzy_curve_band",
    "load_document",
    "load_model",
    "parse_document",
    "pipeline_point",
    "rational_point",
    "reduced_curves",
    "render_svg",
    "sample_curve",
    "save_document",
    "svg_document",
    "type_reduce",
    "write_csv",
]
