import tracemalloc
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from test_boundary import REFUSALS, refusal_tests
from t2spline import (
    COMPONENT_LABELS,
    FuzzyCurveModel,
    KnotVector,
    NT2FuzzyPoint,
    NT2FuzzyScalar,
    Polyline,
    basis_row,
    clamped_uniform_knots,
    component_polygons,
    defuzzified_curve,
    deviation,
    fuzzy_curve_band,
    reduced_curves,
    sample_curve,
)
from t2spline.curves import GROUPS, SERIES, evaluate
from t2spline.pipeline import solve

# The refusal tests of this module are rows of test_boundary.REFUSALS.
globals().update(refusal_tests(REFUSALS["test_curves"]))

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


def test_crisp_model_is_built_once_over_the_weights_and_knots_of_the_model():
    model = asymmetric_model()
    crisp = model.crisp_model()
    assert crisp is model.crisp_model()
    assert crisp.weights is model.weights and crisp.knots is model.knots and crisp.order == model.order
    assert np.array_equal(crisp.controls, component_polygons(model)["crisp"])


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


def test_each_group_pairs_its_curves_with_its_series_labels():
    model = asymmetric_model()
    band, red = fuzzy_curve_band(model, 5), reduced_curves(model, 5)
    assert band.items() == tuple(zip(COMPONENT_LABELS, (band.ll, band.l, band.rl, band.crisp, band.lr, band.r, band.rr)))
    assert red.items() == (("tr_left", red.left), ("crisp", red.crisp), ("tr_right", red.right))
    left, crisp, right = red
    assert (left, crisp, right, len(red)) == (red.left, red.crisp, red.right, 3)


@pytest.mark.parametrize("request_", [["all"], ["all", "band"], ("defuzzified", "all", "crisp")])
def test_all_requests_every_group_also_beside_other_names(request_):
    model = asymmetric_model()
    ts, series = evaluate(model, request_, 5)
    every_ts, every = evaluate(model, GROUPS, 5)
    assert list(series) == list(every) == list(dict.fromkeys(label for group in GROUPS for label in SERIES[group]))
    assert np.array_equal(ts, every_ts)
    assert all(np.array_equal(series[label], every[label]) for label in every)


# --- model validation ---------------------------------------------------------------------

_CRISP_COORDS = FuzzyCurveModel.with_uniform_knots([NT2FuzzyPoint.crisp(x, y) for x, y in CRISP_XY]).coords
def test_evaluate_holds_at_most_about_twice_its_result(demo_model):
    """Curve terms are summed in place: a new array per step peaked at 3.2 times."""
    tracemalloc.start()
    try:
        ts, series = evaluate(demo_model, ["all"], 2**16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * (ts.nbytes + sum(points.nbytes for points in series.values()))


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
