"""Layer hooks and the per-operation layer metrics derived from their spans.

The layers are the modules of ``t2spline``.  Each hook names a public
function, class constructor or classmethod; spans are per call or per
curve, never per sample (``rational_point`` and ``basis_row`` run inside
``sample_curve`` and count as its ``bspline`` self time).  Work counts are
taken at the same boundaries: *counted* values come from calls and their
results, *computed* values from sizes (argument or output lengths).

Only stdlib is imported here, so a fresh process can time
``import t2spline.cli`` before or after loading this module.
"""

from __future__ import annotations

from collections import Counter

from spans import self_times

LAYERS = ("cli", "document", "fuzzy", "pipeline", "bspline", "curves", "output")

_PUBLIC = {
    "cli": ("run",),
    "document": (
        "load_document",
        "parse_document",
        "load_model",
        "document_to_json",
        "save_document",
        "demo_document",
        "ModelDocument.to_model",
    ),
    "fuzzy": (
        "NT2FuzzyScalar.__init__",
        "NT2FuzzyScalar.from_spreads",
        "NT2FuzzyPoint.__init__",
        "NT2FuzzyPoint.crisp",
    ),
    "pipeline": ("alpha_cut_scalar", "alpha_cut_point", "type_reduce", "defuzzify", "pipeline_point"),
    "bspline": (
        "KnotVector.__init__",
        "clamped_uniform_knots",
        "RationalCurveModel.__init__",
        "RationalCurveModel.with_uniform_knots",
        "Polyline.__init__",
        "sample_curve",
    ),
    "curves": (
        "FuzzyCurveModel.__init__",
        "FuzzyCurveModel.with_uniform_knots",
        "FuzzyCurveModel.crisp_model",
        "CurveBand.__init__",
        "component_polygons",
        "fuzzy_curve_band",
        "reduced_curves",
        "defuzzified_curve",
        "deviation",
    ),
    "output": ("write_csv", "render_svg", "svg_document", "Scene.__init__"),
}

HOOKS = tuple((layer, f"t2spline.{layer}", name) for layer, names in _PUBLIC.items() for name in names)

#: Spans whose arguments and result are kept for the work counts below.
KEEP = (
    "document.parse_document",
    "pipeline.alpha_cut_scalar",
    "bspline.sample_curve",
    "curves.component_polygons",
    "curves.reduced_curves",
)

PROVENANCE = {
    "cli.import_ms": "timed in a fresh process",
    "document.bytes_in": "computed: UTF-8 length of the text given to parse_document",
    "document.points": "counted: points of each parse_document result",
    "fuzzy.scalars": "counted: NT2FuzzyScalar constructions",
    "pipeline.cuts": "counted: alpha_cut_scalar calls",
    "pipeline.regime_below_frac": "counted: alpha_cut_scalar results in the alpha <= h regime / cuts",
    "bspline.curves": "counted: sample_curve calls",
    "bspline.points": "computed: sum of the samples argument of sample_curve",
    "bspline.ns_per_point": "bspline self time / bspline.points",
    "bspline.unique_curve_frac": "counted: distinct (polygon, weights, knots, samples) / sample_curve calls",
    "bspline.unique_basis_frac": "counted: distinct (knots, order, samples) / sample_curve calls",
    "curves.polygons": "counted: polygons returned by component_polygons and reduced_curves, plus defuzzified_curve calls",
    "output.bytes_out": "computed: size of the output file when write_csv or render_svg ran",
    "output.rows": "computed: CSV data rows or SVG polylines of that file",
    "trace.overhead_frac": "traced op_ms_p50 / untraced op_ms_p50 - 1",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def op_metrics(spans, out_text: str) -> tuple[dict[str, float], bool, Counter]:
    """Layer metrics of one operation's spans.

    Returns the metrics, whether the layer self times sum exactly to a single
    root span, and the number of calls per hook.
    """
    per_layer, root = self_times(spans)
    roots = sum(1 for rec in spans if rec[4] < 0)
    consistent = roots == 1 and sum(per_layer.values()) == root
    calls = Counter(rec[1] for rec in spans)
    m = {f"{layer}.self_ms": per_layer.get(layer, 0) / 1e6 for layer in LAYERS}

    bytes_in = points = below = polygons = bpoints = 0
    curve_keys, basis_keys = set(), set()
    for _, name, _, _, _, payload in spans:
        if payload is None:
            continue
        args, kwargs, result = payload
        try:
            if name == "document.parse_document":
                bytes_in += len(args[0].encode("utf-8"))
                points += len(result.points)
            elif name == "pipeline.alpha_cut_scalar":
                below += result.regime.value == "below"
            elif name == "bspline.sample_curve":
                model = args[0] if args else kwargs["m"]
                samples = args[1] if len(args) > 1 else kwargs["samples"]
                knots = model.knots.knots.tobytes()
                bpoints += samples
                curve_keys.add((model.controls.tobytes(), model.weights.tobytes(), knots, samples))
                basis_keys.add((knots, model.order, samples))
            else:
                polygons += len(result)
        except (AttributeError, TypeError, KeyError, IndexError):
            # A refactor changed the call's shape: its counts are not observed.
            calls[name] = 0
    polygons += calls["curves.defuzzified_curve"]

    curves = calls["bspline.sample_curve"]
    cuts = calls["pipeline.alpha_cut_scalar"]
    wrote_csv = calls["output.write_csv"] > 0
    wrote_svg = calls["output.render_svg"] > 0
    m.update(
        {
            "document.bytes_in": bytes_in,
            "document.points": points,
            "fuzzy.scalars": calls["fuzzy.NT2FuzzyScalar.__init__"],
            "pipeline.cuts": cuts,
            "pipeline.regime_below_frac": _ratio(below, cuts),
            "bspline.curves": curves,
            "bspline.points": bpoints,
            "bspline.ns_per_point": _ratio(per_layer.get("bspline", 0), bpoints),
            "bspline.unique_curve_frac": _ratio(len(curve_keys), curves),
            "bspline.unique_basis_frac": _ratio(len(basis_keys), curves),
            "curves.polygons": polygons,
            "output.bytes_out": len(out_text.encode("utf-8")) if wrote_csv or wrote_svg else 0,
            "output.rows": (out_text.count("\n") - 1 if wrote_csv else 0)
            + (out_text.count("<polyline") if wrote_svg else 0),
        }
    )
    return m, consistent, calls


def hook_names() -> list[str]:
    return [f"{layer}.{name}" for layer, _, name in HOOKS]
