from decimal import Decimal

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from t2spline import (
    COMPONENT_LABELS,
    AlphaCutScalar,
    AlphaOutOfRange,
    CurveBand,
    FuzzyCurveModel,
    KnotVector,
    ModelDocument,
    NT2FuzzyPoint,
    NT2FuzzyScalar,
    Polyline,
    RationalCurveModel,
    ReducedCurves,
    SampleMismatch,
    T2SplineError,
    alpha_cut_scalar,
    basis,
    basis_row,
    clamped_uniform_knots,
    component_polygons,
    defuzzified_curve,
    demo_document,
    deviation,
    fuzzy_curve_band,
    pipeline_point,
    rational_point,
    reduced_curves,
    sample_curve,
)
from t2spline.bspline import check_order, check_samples
from t2spline.curves import GROUPS, SERIES, evaluate
from t2spline.fuzzy import as_coords
from t2spline.pipeline import solve

CRISP_XY = [(0.0, 0.0), (2.0, 4.0), (5.0, 5.0), (7.0, 1.0)]


def degenerate_model(alpha=0.8):
    points = [NT2FuzzyPoint.crisp(x, y) for x, y in CRISP_XY]
    return FuzzyCurveModel.with_uniform_knots(points, order=3, alpha=alpha)


def symmetric_model(alpha=0.8):
    spreads = (0.8, 0.5, 0.2, 0.2, 0.5, 0.8)
    points = [
        NT2FuzzyPoint(
            NT2FuzzyScalar.from_spreads(x, spreads, 0.6),
            NT2FuzzyScalar.from_spreads(y, spreads, 0.6),
        )
        for x, y in CRISP_XY
    ]
    return FuzzyCurveModel.with_uniform_knots(points, order=3, alpha=alpha)


def asymmetric_model(alpha=0.8):
    left, right = (0.9, 0.6, 0.3), (0.2, 0.3, 0.45)
    spreads = (*left, *right)
    points = [
        NT2FuzzyPoint(
            NT2FuzzyScalar.from_spreads(x, spreads, 0.6),
            NT2FuzzyScalar.from_spreads(y, spreads, 0.6),
        )
        for x, y in CRISP_XY
    ]
    return FuzzyCurveModel.with_uniform_knots(points, order=3, alpha=alpha)


def x_spread_model():
    # axis-aligned uncertainty on x only, distinct per component
    points = [
        NT2FuzzyPoint(
            NT2FuzzyScalar.from_spreads(x, (0.9, 0.6, 0.3, 0.25, 0.5, 0.85), 0.7),
            NT2FuzzyScalar.from_spreads(y, (0.0,) * 6, 0.7),
        )
        for x, y in CRISP_XY
    ]
    return FuzzyCurveModel.with_uniform_knots(points, order=3, alpha=0.5)


# --- component extraction -------------------------------------------------------

def test_component_polygons_degenerate_all_identical():
    polys = component_polygons(degenerate_model())
    assert list(polys) == list(COMPONENT_LABELS)
    for label in COMPONENT_LABELS:
        assert np.array_equal(polys[label], np.array(CRISP_XY))


def test_component_polygons_distinct_spreads():
    polys = component_polygons(asymmetric_model())
    assert np.array_equal(polys["crisp"], np.array(CRISP_XY))
    seen = [polys[label].tobytes() for label in COMPONENT_LABELS]
    assert len(set(seen)) == 7
    for label in COMPONENT_LABELS:
        assert polys[label].shape == (4, 2)


# --- curve band ------------------------------------------------------------------

def test_band_degenerate_controls_coincide():
    band = fuzzy_curve_band(degenerate_model(), 33)
    ref = band.crisp.points
    for _, line in band.items():
        assert np.array_equal(line.points, ref)


def test_band_shares_parameters():
    band = fuzzy_curve_band(symmetric_model(), 17)
    for _, line in band.items():
        assert np.array_equal(line.params, band.crisp.params)


def test_band_x_values_preserve_component_order():
    band = fuzzy_curve_band(x_spread_model(), 65)
    xs = [getattr(band, lbl).points[:, 0] for lbl in COMPONENT_LABELS]
    for lower, upper in zip(xs, xs[1:]):
        assert np.all(lower <= upper)


def test_band_y_untouched_for_x_only_spreads():
    band = fuzzy_curve_band(x_spread_model(), 33)
    ref = band.crisp.points[:, 1]
    for _, line in band.items():
        assert np.allclose(line.points[:, 1], ref, atol=1e-12)


# --- type-reduced curves -----------------------------------------------------------

def test_reduced_degenerate_controls_coincide():
    red = reduced_curves(degenerate_model(), 21)
    assert np.array_equal(red.left.points, red.crisp.points)
    assert np.array_equal(red.right.points, red.crisp.points)


def test_reduced_symmetric_mirror_offsets():
    red = reduced_curves(symmetric_model(alpha=0.4), 41)
    left_off = red.crisp.points - red.left.points
    right_off = red.right.points - red.crisp.points
    assert np.allclose(left_off, right_off, atol=1e-9)
    assert left_off.max() > 1e-3  # offsets are real, not degenerate


def test_reduced_between_regime_uses_two_term_means():
    model = symmetric_model(alpha=0.8)  # h = 0.6 < alpha
    red = reduced_curves(model, 5)
    # reproduce the left control polygon with two-term means by hand
    expected = []
    for p in model.fuzzy_controls:
        vals = []
        for s in (p.x, p.y):
            lo = s.ll + 0.8 * (s.c - s.ll)
            lp = s.l + 0.8 * (s.c - s.l)
            vals.append((lo + lp) / 2.0)
        expected.append(vals)
    hand = sample_curve(
        type(model.crisp_model())(np.array(expected), model.weights, model.order, model.knots), 5
    )
    assert np.allclose(red.left.points, hand.points, atol=1e-14)


# --- defuzzified curve ----------------------------------------------------------------

def test_defuzzified_degenerate_equals_crisp_exactly():
    model = degenerate_model()
    dfz = defuzzified_curve(model, 33)
    crisp = sample_curve(model.crisp_model(), 33)
    assert np.array_equal(dfz.points, crisp.points)


def test_defuzzified_symmetric_equals_crisp():
    model = symmetric_model()
    dfz = defuzzified_curve(model, 101)
    crisp = sample_curve(model.crisp_model(), 101)
    assert deviation(dfz, crisp).max_distance <= 1e-9


def test_defuzzified_asymmetric_differs_from_crisp():
    model = asymmetric_model()
    dfz = defuzzified_curve(model, 101)
    crisp = sample_curve(model.crisp_model(), 101)
    assert deviation(dfz, crisp).max_distance > 1e-6


def test_crisp_band_curve_independent_of_alpha_and_spreads():
    a = fuzzy_curve_band(symmetric_model(alpha=0.1), 21).crisp
    b = fuzzy_curve_band(asymmetric_model(alpha=0.9), 21).crisp
    c = fuzzy_curve_band(degenerate_model(alpha=0.5), 21).crisp
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(b.points, c.points)


def test_defuzzify_then_evaluate_is_exact():
    # the defuzzified curve point is the basis-weighted combination of the
    # defuzzified control points; no extra approximation step exists
    model = asymmetric_model()
    solution_polygon = np.array([oracles.pipeline_point(rows, model.alpha) for rows in model.coords.tolist()])
    dfz = defuzzified_curve(model, 11)
    for t, pt in zip(dfz.params, dfz.points):
        coeff = model.weights * basis_row(model.knots, t)
        num = den = 0.0
        for i in np.flatnonzero(coeff):  # the non-zero terms, in index order
            num, den = num + coeff[i] * solution_polygon[i], den + coeff[i]
        assert np.array_equal(pt, num / den)


# --- deviation --------------------------------------------------------------------------

def test_deviation_identical_is_zero():
    line = sample_curve(degenerate_model().crisp_model(), 21)
    rep = deviation(line, line)
    assert rep.max_distance == 0.0
    assert rep.mean_distance == 0.0
    assert np.all(rep.per_sample == 0.0)


def test_deviation_constant_offset():
    params = np.linspace(0, 1, 5)
    a = Polyline(np.zeros((5, 2)), params)
    b = Polyline(np.column_stack([np.full(5, 0.25), np.zeros(5)]), params)
    rep = deviation(a, b)
    assert rep.max_distance == 0.25
    assert rep.mean_distance == 0.25


def test_deviation_reports_compare_by_identity():
    line = sample_curve(degenerate_model().crisp_model(), 5)
    rep, again = deviation(line, line), deviation(line, line)
    assert rep == rep and rep != again
    assert rep in [again, rep] and again not in [rep]
    assert len({rep, again, rep}) == 2


def test_deviation_max_at_least_mean():
    model = asymmetric_model()
    rep = deviation(defuzzified_curve(model, 51), sample_curve(model.crisp_model(), 51))
    assert rep.max_distance >= rep.mean_distance >= 0.0


# Beside curves of 21 samples: one of 22 samples, and one of 21 at halved parameters.
MISMATCHED_SAMPLING = pytest.mark.parametrize("samples, scale", [(22, 1), (21, 0.5)], ids=["length", "same-length"])


@MISMATCHED_SAMPLING
def test_deviation_rejects_mismatched_sampling(samples, scale):
    m = degenerate_model().crisp_model()
    b = sample_curve(m, samples)
    with pytest.raises(SampleMismatch, match="^polyline b sampled at different parameters$"):
        deviation(sample_curve(m, 21), Polyline(b.points, b.params * scale))


@MISMATCHED_SAMPLING
def test_band_rejects_differently_sampled_components(samples, scale):
    lines = list(fuzzy_curve_band(asymmetric_model(), 21).items())
    r = fuzzy_curve_band(asymmetric_model(), samples).r
    lines[5] = ("r", Polyline(r.points, r.params * scale))
    with pytest.raises(SampleMismatch, match="^band component r sampled at different parameters$"):
        CurveBand(*(line for _, line in lines))


@pytest.mark.parametrize("other", ["x", np.zeros((5, 2)), None], ids=["string", "array", "none"])
def test_deviation_and_band_refuse_what_is_not_a_polyline(other):
    line = sample_curve(degenerate_model().crisp_model(), 5)
    kind = type(other).__name__
    with pytest.raises(T2SplineError, match=f"^polyline b must be a Polyline, got {kind}$"):
        deviation(line, other)
    with pytest.raises(T2SplineError, match=f"^polyline a must be a Polyline, got {kind}$"):
        deviation(other, line)
    with pytest.raises(T2SplineError, match=f"^band component ll must be a Polyline, got {kind}$"):
        CurveBand(other, *[line] * 6)
    with pytest.raises(T2SplineError, match=f"^reduced curve tr_left must be a Polyline, got {kind}$"):
        ReducedCurves(other, line, line)


@MISMATCHED_SAMPLING
def test_reduced_curves_reject_differently_sampled_curves(samples, scale):
    red = reduced_curves(asymmetric_model(), 21)
    right = reduced_curves(asymmetric_model(), samples).right
    with pytest.raises(SampleMismatch, match="^reduced curve tr_right sampled at different parameters$"):
        ReducedCurves(red.left, red.crisp, Polyline(right.points, right.params * scale))


def test_each_group_pairs_its_curves_with_its_series_labels():
    model = asymmetric_model()
    band, red = fuzzy_curve_band(model, 5), reduced_curves(model, 5)
    assert band.items() == tuple(zip(COMPONENT_LABELS, (band.ll, band.l, band.rl, band.crisp, band.lr, band.r, band.rr)))
    assert red.items() == (("tr_left", red.left), ("crisp", red.crisp), ("tr_right", red.right))
    left, crisp, right = red
    assert (left, crisp, right, len(red)) == (red.left, red.crisp, red.right, 3)


_CHOICES = "band, reduced, crisp, defuzzified, all"


def test_evaluate_rejects_unknown_groups():
    with pytest.raises(T2SplineError, match=rf"^unknown series \['bogus', 'tr_left'\]; choose from {_CHOICES}$"):
        evaluate(asymmetric_model(), ["band", "tr_left", "bogus"], 5)


@pytest.mark.parametrize(
    "request_, unknown",
    [(["bogus", "tr_left"], "'bogus', 'tr_left'"), (["all", "bogus"], "'bogus'"), ({"crisp", 7}, "7")],
    ids=["two-unknown", "all-and-unknown", "not-a-str"],
)
def test_evaluate_names_every_unknown_series(request_, unknown):
    with pytest.raises(T2SplineError, match=rf"^unknown series \[{unknown}\]; choose from {_CHOICES}$"):
        evaluate(asymmetric_model(), request_, 5)


@pytest.mark.parametrize(
    "request_", [[], set(), 0, None, "crisp", b"crisp", [["crisp"]]],
    ids=["empty-list", "empty-set", "int", "none", "str", "bytes", "unhashable-name"],
)
def test_evaluate_refuses_a_request_that_is_not_a_collection_of_names(request_):
    kind = type(request_).__name__
    with pytest.raises(T2SplineError, match=f"^series must be a non-empty collection of names from {_CHOICES}, got {kind}$"):
        evaluate(asymmetric_model(), request_, 5)


@pytest.mark.parametrize("request_", [["all"], ["all", "band"], ("defuzzified", "all", "crisp")])
def test_all_requests_every_group_also_beside_other_names(request_):
    model = asymmetric_model()
    ts, series = evaluate(model, request_, 5)
    every_ts, every = evaluate(model, GROUPS, 5)
    assert list(series) == list(every) == list(dict.fromkeys(label for group in GROUPS for label in SERIES[group]))
    assert np.array_equal(ts, every_ts)
    assert all(np.array_equal(series[label], every[label]) for label in every)


# --- model validation ---------------------------------------------------------------------

def test_fuzzy_model_validation():
    points = [NT2FuzzyPoint.crisp(x, y) for x, y in CRISP_XY]
    with pytest.raises(T2SplineError):
        FuzzyCurveModel.with_uniform_knots(points, order=3, alpha=1.0)
    with pytest.raises(T2SplineError):
        FuzzyCurveModel.with_uniform_knots(points, weights=np.array([1, 1, 1, -1.0]), order=3)
    with pytest.raises(T2SplineError):
        FuzzyCurveModel.with_uniform_knots(points[:2], order=3)


@pytest.mark.parametrize("alpha", [1.0, float("nan"), -0.1])
def test_fuzzy_model_alpha_is_checked_by_the_pipeline_rule(alpha):
    points = [NT2FuzzyPoint.crisp(x, y) for x, y in CRISP_XY]
    with pytest.raises(AlphaOutOfRange) as exc:
        FuzzyCurveModel.with_uniform_knots(points, order=3, alpha=alpha)
    assert str(exc.value) == f"alpha must lie in [0, 1), got {alpha!r}"


@pytest.mark.parametrize("order", [1, 4])
def test_fuzzy_model_order_must_match_the_knots(order):
    points = [NT2FuzzyPoint.crisp(x, y) for x, y in CRISP_XY]
    with pytest.raises(T2SplineError):
        FuzzyCurveModel(points, np.ones(4), order, clamped_uniform_knots(4, 3), 0.8)


@pytest.mark.parametrize(
    "build",
    [
        lambda: ModelDocument(np.array(0.5), [1], 2, 0.5, 5),
        lambda: FuzzyCurveModel.with_uniform_knots(np.array(0.5)),
    ],
    ids=["document", "with-uniform-knots"],
)
def test_a_zero_dimensional_coordinate_array_is_refused_by_its_shape(build):
    with pytest.raises(T2SplineError, match=r"^coordinates must be an \(n, 2, 8\) array, got shape \(\)$"):
        build()


_CRISP_COORDS = FuzzyCurveModel.with_uniform_knots([NT2FuzzyPoint.crisp(x, y) for x, y in CRISP_XY]).coords
_CRISP_CURVE = RationalCurveModel.with_uniform_knots(CRISP_XY)
_CRISP_POINT = NT2FuzzyPoint.crisp(*CRISP_XY[1])


@pytest.mark.parametrize(
    "build",
    [
        lambda: clamped_uniform_knots(4, 3.0),
        lambda: clamped_uniform_knots(4, True),
        lambda: demo_document().to_model(order=2.5),
        lambda: demo_document().to_model(order=3.0),
        lambda: ModelDocument(_CRISP_COORDS, np.ones(4), 3, 0.0, 101).to_model(alpha=False),
        lambda: RationalCurveModel.with_uniform_knots(CRISP_XY, order="3"),
        lambda: FuzzyCurveModel.with_uniform_knots(_CRISP_COORDS, order="3"),
        lambda: KnotVector([0, 0, 0, 0.5, 1, 1, 1], 3.7),
        lambda: KnotVector([0, 0, 0, 0.5, 1, 1, 1], None),
        lambda: RationalCurveModel(CRISP_XY, np.ones(4), 3.7, clamped_uniform_knots(4, 3)),
        lambda: FuzzyCurveModel(_CRISP_COORDS, np.ones(4), 3.0, clamped_uniform_knots(4, 3), 0.8),
        lambda: sample_curve(_CRISP_CURVE, 2.5),
        lambda: sample_curve(_CRISP_CURVE, None),
        lambda: sample_curve(_CRISP_CURVE, True),
        lambda: FuzzyCurveModel.with_uniform_knots(_CRISP_COORDS, alpha=None),
        lambda: FuzzyCurveModel.with_uniform_knots(_CRISP_COORDS, alpha="0.5"),
        lambda: FuzzyCurveModel.with_uniform_knots(_CRISP_COORDS, alpha=False),
        lambda: ModelDocument(5, np.ones(4), 3, 0.8, 101),
        lambda: FuzzyCurveModel(5, np.ones(4), 3, clamped_uniform_knots(4, 3), 0.8),
        lambda: FuzzyCurveModel.with_uniform_knots(5),
        lambda: as_coords(5),
        lambda: FuzzyCurveModel.with_uniform_knots(_CRISP_COORDS, alpha=10**400),
        lambda: ModelDocument(_CRISP_COORDS, np.ones(4), 3, 10**400, 101),
        lambda: demo_document().to_model(alpha=10**400),
        lambda: alpha_cut_scalar(_CRISP_POINT.x, 10**400),
        lambda: pipeline_point(_CRISP_POINT, 10**400),
        lambda: basis_row(clamped_uniform_knots(4, 3), "0.5"),
        lambda: basis(clamped_uniform_knots(4, 3), 0, 3, "0.25"),
        lambda: rational_point(_CRISP_CURVE, True),
        lambda: rational_point(_CRISP_CURVE, 10**400),
        lambda: _CRISP_POINT.x.membership_upper("0.1"),
        lambda: clamped_uniform_knots("4", 3),
        lambda: RationalCurveModel.with_uniform_knots(5),
        lambda: FuzzyCurveModel.with_uniform_knots(_CRISP_COORDS.astype(str)),
        lambda: FuzzyCurveModel.with_uniform_knots(_CRISP_COORDS.astype(complex)),
        lambda: as_coords(_CRISP_COORDS.astype(bool)),
    ],
    ids=[
        "knots-float-order",
        "knots-bool-order",
        "to-model-float-order",
        "to-model-float-order-equal-to-the-document-order",
        "to-model-bool-alpha-at-document-alpha-0",
        "rational-string-order",
        "fuzzy-string-order",
        "knot-vector-float-order",
        "knot-vector-none-order",
        "rational-float-order",
        "fuzzy-integral-float-order",
        "float-samples",
        "none-samples",
        "bool-samples",
        "none-alpha",
        "string-alpha",
        "bool-alpha",
        "document-int-points",
        "fuzzy-int-coords",
        "uniform-knots-int-points",
        "as-coords-int",
        "uniform-knots-overflowing-alpha",
        "document-overflowing-alpha",
        "to-model-overflowing-alpha",
        "cut-overflowing-alpha",
        "pipeline-point-overflowing-alpha",
        "basis-row-string-t",
        "basis-string-t",
        "rational-point-bool-t",
        "rational-point-overflowing-t",
        "membership-string-x",
        "uniform-knots-string-count",
        "rational-int-controls",
        "fuzzy-string-coords",
        "fuzzy-complex-coords",
        "as-coords-bool",
    ],
)
def test_integer_and_alpha_inputs_of_constructors_raise_the_package_error(build):
    with pytest.raises(T2SplineError):
        build()


_HUGE = 10**5000  # float() overflows on it, and repr() refuses it


@pytest.mark.parametrize(
    "build",
    [
        lambda: check_order(_HUGE, 4),
        lambda: check_samples(_HUGE, 3),
        lambda: basis(clamped_uniform_knots(4, 3), _HUGE, 3, 0.5),
        lambda: NT2FuzzyScalar(1, 2, 3, 4, 5, 6, _HUGE, 0.5),
        lambda: NT2FuzzyScalar.from_spreads(_HUGE, (1,) * 6, 0.5),
        lambda: NT2FuzzyScalar.from_spreads(5, (1, 1, 1, 1, 1, -_HUGE), 0.5),
        lambda: _CRISP_POINT.x.membership_upper(_HUGE),
        lambda: FuzzyCurveModel.with_uniform_knots(_CRISP_COORDS, order=_HUGE),
        lambda: FuzzyCurveModel.with_uniform_knots(_CRISP_COORDS, alpha=_HUGE),
        lambda: ModelDocument(_CRISP_COORDS, np.ones(4), _HUGE, 0.8, 101),
        lambda: ModelDocument(_CRISP_COORDS, np.ones(4), 3, 0.8, _HUGE),
        lambda: demo_document().to_model(order=_HUGE),
        lambda: demo_document().to_model(alpha=_HUGE),
        lambda: fuzzy_curve_band(demo_document().model, _HUGE),
        lambda: sample_curve(_CRISP_CURVE, _HUGE),
        lambda: alpha_cut_scalar(_CRISP_POINT.x, _HUGE),
        lambda: KnotVector([0, 0, 0, 1, 1, 1], _HUGE),
        lambda: NT2FuzzyScalar.from_spreads(5, _HUGE, 0.5),
        lambda: AlphaCutScalar(0.5, 1, 2, 3, 4, 5, 6, 7, _HUGE),
    ],
    ids=[
        "check-order",
        "check-samples",
        "basis-index",
        "scalar-component",
        "from-spreads-crisp",
        "from-spreads-spread",
        "membership-x",
        "uniform-knots-order",
        "uniform-knots-alpha",
        "document-order",
        "document-samples",
        "to-model-order",
        "to-model-alpha",
        "band-samples",
        "sample-curve-samples",
        "cut-alpha",
        "knot-vector-order",
        "from-spreads-spreads",
        "cut-regime",
    ],
)
def test_an_integer_too_long_to_print_is_shown_by_its_digit_count(build):
    with pytest.raises(T2SplineError) as exc:
        build()
    assert "a 5001-digit integer" in str(exc.value)


def test_numpy_integer_order_and_samples_are_taken_as_ints():
    knots = clamped_uniform_knots(np.int64(4), np.int64(3))
    assert type(knots.order) is int
    model = FuzzyCurveModel(_CRISP_COORDS, np.ones(4), np.int64(3), knots, np.float64(0.5))
    assert type(model.order) is int
    assert len(sample_curve(model.crisp_model(), np.int64(5))) == 5
    # Alpha is any number bspline.as_float takes, as the scalar fields are.
    assert FuzzyCurveModel(_CRISP_COORDS, np.ones(4), 3, knots, Decimal("0.5")).alpha == 0.5


# --- curve-level properties -------------------------------------------------------

_spreads = st.lists(st.floats(0, 50), min_size=3, max_size=3)
_scalars = st.builds(
    lambda c, left, right, h: NT2FuzzyScalar.from_spreads(c, (*sorted(left, reverse=True), *sorted(right)), h),
    st.floats(-100, 100),
    _spreads,
    _spreads,
    st.floats(0.01, 1.0),
)


@st.composite
def fuzzy_models(draw):
    """Random clamped knots of order 2 to 10, weights in [0.5, 3] and fuzzy
    controls drawn like the pipeline tests' scalars."""
    order = draw(st.integers(2, 10))
    n = draw(st.integers(order, order + 12))
    interior = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=n - order, max_size=n - order)))
    knots = KnotVector(np.concatenate([np.zeros(order), interior, np.ones(order)]), order)
    weights = draw(st.lists(st.floats(0.5, 3.0), min_size=n, max_size=n))
    points = [NT2FuzzyPoint(draw(_scalars), draw(_scalars)) for _ in range(n)]
    return FuzzyCurveModel(points, weights, order, knots, draw(st.floats(0.0, 0.999)))


@settings(deadline=None)
@given(model=fuzzy_models(), samples=st.integers(2, 60))
def test_band_curves_keep_component_order_exactly(model, samples):
    """Same non-negative coefficients, same summation order and monotone
    rounding: ll <= l <= rl <= crisp <= lr <= r <= rr at every sample."""
    _, points = evaluate(model, ["band"], samples)
    band = np.stack([points[label] for label in COMPONENT_LABELS])
    assert np.all(np.diff(band, axis=0) >= 0.0)


#: Largest distance, in ulps of the largest component magnitude of the
#: controls, between the defuzzified curve and the mean of the type-reduced
#: and crisp curves.  Measured: at most 3 ulps over 15,000 examples of this
#: property; at most 5 over 103,000 random models (orders 2-10, up to 39
#: controls, scales 1e-3 to 1e5, some far from the origin or with spreads
#: of 0 or 1e-12), where 5 models of order 7-9 reached 5 and 264 reached 4.
#: Ulps of each sample's own value are not bounded: the mean can cancel.
AFFINE_ULP_BOUND = 5


@settings(deadline=None)
@given(model=fuzzy_models(), samples=st.integers(2, 60))
def test_defuzzified_curve_is_the_mean_of_the_reduced_curves(model, samples):
    """Affine invariance: the curve over the (left + c + right) / 3 controls
    is the mean of the curves over left, c and right."""
    _, points = evaluate(model, {"reduced", "defuzzified"}, samples)
    mean = (points["tr_left"] + points["crisp"] + points["tr_right"]) / 3
    ulp = np.spacing(np.abs(model.coords[..., :7]).max())
    assert np.abs(points["defuzzified"] - mean).max() <= AFFINE_ULP_BOUND * ulp


@settings(deadline=None)
@given(model=fuzzy_models(), samples=st.integers(2, 60), data=st.data())
def test_reduced_curves_nest_in_alpha_within_a_regime(model, samples, data):
    """Alpha-nesting at curve level, exactly: for a1 < a2 with no coordinate
    changing regime, the type-reduced curves at a2 lie within those at a1.
    Each cut is monotone in alpha under rounding, each side mean is monotone
    in its terms, and the basis coefficients are non-negative."""
    a1 = model.alpha
    heights = model.coords[..., 7]
    # a2 in (a1, hi] keeps every coordinate in its regime: alpha <= h is
    # unchanged unless a1 <= h < a2.
    hi = min(heights[heights >= a1].min(initial=1.0), np.nextafter(1.0, 0.0))
    assume(a1 < hi)
    a2 = data.draw(st.floats(a1, hi, exclude_min=True))
    wider = evaluate(model, {"reduced"}, samples)[1]
    model2 = FuzzyCurveModel(model.coords, model.weights, model.order, model.knots, a2)
    assert np.array_equal(a1 <= heights, a2 <= heights)
    narrower = evaluate(model2, {"reduced"}, samples)[1]
    assert np.all(narrower["tr_left"] >= wider["tr_left"])
    assert np.all(narrower["tr_right"] <= wider["tr_right"])


def test_solved_is_kept_and_read_only(demo_model):
    solved = demo_model.solved
    assert demo_model.solved is solved
    for array, expected in zip(solved, solve(demo_model.coords, demo_model.alpha)):
        assert array.tobytes() == expected.tobytes()
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 0.0
