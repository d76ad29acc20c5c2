import functools
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import QUAD_BASIS, brute_force_rational, convex_hull, cox_de_boor, points_outside_hull
from test_boundary import REFUSALS, refusal_tests
from test_curves import fuzzy_models
from t2spline import (
    FuzzyCurveModel,
    KnotVector,
    NT2FuzzyPoint,
    ParameterOutOfDomain,
    Polyline,
    RationalCurveModel,
    T2SplineError,
    basis,
    basis_row,
    clamped_uniform_knots,
    demo_document,
    rational_point,
    sample_curve,
)
from t2spline.bspline import MAX_BASIS_WORK, MAX_SAMPLES, basis_rows, check_samples, sample_curves, shown
from t2spline.curves import GROUPS, component_polygons, evaluate

# The refusal tests of this module are rows of test_boundary.REFUSALS.
globals().update(refusal_tests(REFUSALS["test_bspline"]))

DEMO_CONTROLS = np.array([[0.0, 0.0], [2.0, 4.0], [5.0, 5.0], [7.0, 1.0]])
DEMO_WEIGHTS = np.array([1.0, 1.0, 3.0, 1.0])


def demo_rational():
    return RationalCurveModel.with_uniform_knots(DEMO_CONTROLS, DEMO_WEIGHTS, order=3)


def dense_rows(knots, order, ts):
    """The :func:`basis_rows` terms scattered into a dense ``(len(ts), n)`` matrix."""
    first, values = basis_rows(KnotVector(knots, order), ts)
    rows = np.zeros((values.shape[0], len(knots) - order))
    for row, i, terms in zip(rows, first, values):
        row[i : i + order] = terms
    return rows


@pytest.mark.parametrize(
    "value, text",
    [
        (10**400 - 1, "a 400-digit integer"),
        (10**400, "a 401-digit integer"),
        (-(10**5000), "a 5001-digit integer"),
        (2**1024 - 1, "a 309-digit integer"),
        (10**308, repr(10**308)),
        (np.int64(7), "np.int64(7)"),
        (True, "True"),
        (0.5, "0.5"),
        ([10**400], "[" + "1" + "0" * 400 + "]"),
        ([10**5000], "a list holding an integer too long to print"),
    ],
    ids=["400-digits", "401-digits", "5001-digits", "2**1024-1", "10**308", "numpy-int", "bool", "float", "list", "list-too-long-to-print"],
)
def test_a_refused_value_is_shown_by_its_repr_or_its_digit_count(value, text):
    assert shown(value) == text


# --- knot vectors --------------------------------------------------------------

def test_clamped_uniform_knots_one_interior():
    kv = clamped_uniform_knots(4, 3)
    assert np.array_equal(kv.knots, [0, 0, 0, 0.5, 1, 1, 1])
    assert kv.domain == (0.0, 1.0)
    assert kv.n_controls == 4


def test_clamped_uniform_knots_no_interior():
    kv = clamped_uniform_knots(3, 3)
    assert np.array_equal(kv.knots, [0, 0, 0, 1, 1, 1])


def test_clamped_uniform_knots_two_interior():
    kv = clamped_uniform_knots(5, 3)
    assert np.allclose(kv.knots, [0, 0, 0, 1 / 3, 2 / 3, 1, 1, 1], atol=1e-15)


# --- basis functions -------------------------------------------------------------

def test_basis_clamped_left_endpoint():
    kv = clamped_uniform_knots(4, 3)
    values = [basis(kv, i, 3, 0.0) for i in range(4)]
    assert values == [1.0, 0.0, 0.0, 0.0]


def test_basis_clamped_right_endpoint():
    kv = clamped_uniform_knots(4, 3)
    values = [basis(kv, i, 3, 1.0) for i in range(4)]
    assert values == [0.0, 0.0, 0.0, 1.0]


def test_basis_golden_values_at_quarter():
    # hand-expanded quadratic pieces: (1-2t)^2, 2t(2-3t), 2t^2 at t=0.25
    kv = clamped_uniform_knots(4, 3)
    assert basis(kv, 0, 3, 0.25) == pytest.approx(0.25, abs=1e-15)
    assert basis(kv, 1, 3, 0.25) == pytest.approx(0.625, abs=1e-15)
    assert basis(kv, 2, 3, 0.25) == pytest.approx(0.125, abs=1e-15)
    assert basis(kv, 3, 3, 0.25) == 0.0


def test_basis_matches_polynomial_expansion_everywhere():
    kv = clamped_uniform_knots(4, 3)
    for t in np.linspace(0, 1, 41):
        for i, poly in enumerate(QUAD_BASIS):
            assert basis(kv, i, 3, t) == pytest.approx(poly(t), abs=1e-14)


def test_basis_partition_of_unity_and_nonnegativity():
    for n, k in [(4, 2), (5, 3), (8, 4)]:
        kv = clamped_uniform_knots(n, k)
        for t in np.linspace(0, 1, 101):
            row = basis_row(kv, t)
            assert np.all(row >= 0.0)
            assert abs(row.sum() - 1.0) < 1e-12


def test_basis_zero_outside_support():
    kv = clamped_uniform_knots(6, 3)
    knots = kv.knots
    for i in range(6):
        lo, hi = knots[i], knots[i + 3]
        for t in np.linspace(0, 1, 101):
            if t < lo or t > hi:
                assert basis(kv, i, 3, t) == 0.0


# --- rational evaluation -----------------------------------------------------------

def test_rational_point_interpolates_endpoints():
    m = demo_rational()
    assert np.allclose(rational_point(m, 0.0), DEMO_CONTROLS[0], atol=1e-15)
    assert np.allclose(rational_point(m, 1.0), DEMO_CONTROLS[-1], atol=1e-15)


def test_equal_weights_reduce_to_plain_bspline():
    m = RationalCurveModel.with_uniform_knots(DEMO_CONTROLS, np.ones(4), order=3)
    for t in np.linspace(0, 1, 21):
        row = basis_row(m.knots, t)
        plain = row @ DEMO_CONTROLS
        assert np.allclose(rational_point(m, t), plain, atol=1e-14)


def test_rational_point_matches_brute_force_at_half():
    m = demo_rational()
    expected = brute_force_rational(DEMO_CONTROLS, DEMO_WEIGHTS, 0.5)
    assert np.allclose(rational_point(m, 0.5), expected, atol=1e-14)


def test_rational_point_brute_force_grid():
    m = demo_rational()
    for t in np.linspace(0, 1, 11):
        expected = brute_force_rational(DEMO_CONTROLS, DEMO_WEIGHTS, t)
        assert np.allclose(rational_point(m, t), expected, atol=1e-10)


def test_all_weights_scaled_leaves_curve_unchanged():
    m1 = demo_rational()
    m2 = RationalCurveModel.with_uniform_knots(DEMO_CONTROLS, DEMO_WEIGHTS * 7.3, order=3)
    for t in np.linspace(0, 1, 21):
        assert np.allclose(rational_point(m1, t), rational_point(m2, t), atol=1e-12)


def test_convex_hull_property():
    m = demo_rational()
    lo = DEMO_CONTROLS.min(axis=0) - 1e-12
    hi = DEMO_CONTROLS.max(axis=0) + 1e-12
    for t in np.linspace(0, 1, 101):
        p = rational_point(m, t)
        assert np.all(p >= lo) and np.all(p <= hi)


#: Largest Euclidean distance, in ulps of the largest coordinate magnitude of
#: a control polygon, by which a sample of its curve may lie outside the
#: polygon's convex hull, found exactly (:func:`oracles.points_outside_hull`),
#: so the bound covers only the curve's rounding.
HULL_ULP_BOUND = 8

#: A polygon whose last vertex qhull's facet equations put 2.67e-14 outside
#: the hull, past 8 ulps of 9; an order-4 curve over it at 2 samples is its
#: first and last vertex.
NEAR_DEGENERATE_POLYGON = [(0.0, 1.0), (9.0, 2.0), (0.0, 0.0), (1.23203684e-13, 0.0)]


@settings(deadline=None)
@given(model=fuzzy_models(), samples=st.integers(2, 60))
@example(
    model=FuzzyCurveModel.with_uniform_knots([NT2FuzzyPoint.crisp(x, y) for x, y in NEAR_DEGENERATE_POLYGON], order=4),
    samples=2,
)
def test_every_curve_of_a_fuzzy_model_lies_in_the_hull_of_its_controls(model, samples):
    """Positive weights make each sample a convex combination of the
    controls, for each curve :func:`evaluate` gives."""
    _, points = evaluate(model, GROUPS, samples)
    polygons = component_polygons(model)
    polygons["tr_left"], _, polygons["tr_right"], polygons["defuzzified"] = model.solved
    for label, curve in points.items():
        polygon = polygons[label]
        tol = HULL_ULP_BOUND * np.spacing(np.abs(polygon).max())
        assert points_outside_hull(polygon.tolist(), curve.tolist(), tol) == [], label


@pytest.mark.parametrize(
    "polygon, hull",
    [
        (NEAR_DEGENERATE_POLYGON, [(0.0, 0.0), (1.23203684e-13, 0.0), (9.0, 2.0), (0.0, 1.0)]),
        ([(0.0, 0.0), (1.0, 1.0), (3.0, 3.0), (2.0, 2.0)], [(0.0, 0.0), (3.0, 3.0)]),
        ([(1.5, -2.0)] * 3, [(1.5, -2.0)]),
    ],
    ids=["near-degenerate", "collinear", "coincident"],
)
def test_the_exact_hull_oracle(polygon, hull):
    """The hull of each polygon, in exact arithmetic; each vertex lies in it
    at no tolerance, and a point 2**-50 below and left of its lowest,
    leftmost vertex, sqrt(2) * 2**-50 away, is refused at no tolerance and
    admitted at 2**-49."""
    assert convex_hull([(Fraction(x), Fraction(y)) for x, y in polygon]) == hull
    assert points_outside_hull(polygon, polygon, 0.0) == []
    x, y = hull[0]
    off = (x - 2.0**-50, y - 2.0**-50)
    assert points_outside_hull(polygon, [off], 0.0) == [0]
    assert points_outside_hull(polygon, [off], 2.0**-49) == []


# --- sampling ------------------------------------------------------------------------

def test_sample_two_gives_clamped_endpoints():
    line = sample_curve(demo_rational(), 2)
    assert np.array_equal(line.params, [0.0, 1.0])
    assert np.allclose(line.points, [DEMO_CONTROLS[0], DEMO_CONTROLS[-1]], atol=1e-15)


def test_sample_straight_polygon_is_collinear():
    controls = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    m = RationalCurveModel.with_uniform_knots(controls, np.ones(4), order=3)
    line = sample_curve(m, 3)
    x, y = line.points[:, 0], line.points[:, 1]
    assert np.allclose(y, x, atol=1e-12)


def test_weighted_curve_pulled_toward_heavy_control():
    flat = RationalCurveModel.with_uniform_knots(DEMO_CONTROLS, np.ones(4), order=3)
    heavy = demo_rational()
    target = DEMO_CONTROLS[2]
    flat_line = sample_curve(flat, 101)
    heavy_line = sample_curve(heavy, 101)
    d_flat = np.linalg.norm(flat_line.points - target, axis=1)
    d_heavy = np.linalg.norm(heavy_line.points - target, axis=1)
    interior = slice(1, -1)
    assert np.all(d_heavy[interior] < d_flat[interior])


@pytest.mark.parametrize(
    "controls",
    [
        [[0, 0], [1, 1], [2, 0]],
        [(0.0, 0), (1, 1.0), (2, 0)],
        [np.array([0, 0]), np.array([1.0, 1.0]), np.array([2, 0], dtype=np.int8)],
        [[np.float32(0), np.int64(0)], [Fraction(1), Decimal("1")], [2, 0]],
        np.array([[0, 0], [1, 1], [2, 0]], dtype=np.int32),
        np.array([[0, 0], [1, 1], [2, 0]], dtype=object),
    ],
    ids=["ints", "tuples", "numpy-rows", "numeric-scalars", "int-array", "object-array"],
)
def test_constructors_accept_every_kind_of_number(controls):
    model = RationalCurveModel.with_uniform_knots(controls, [1, 1.0, np.float16(1)], order=2)
    assert model.controls.dtype == float
    assert model.controls.tolist() == [[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]]


def test_a_float_array_is_held_as_a_read_only_copy():
    controls = np.array([[-0.0, 5e-324], [1.0, np.nextafter(1.0, 2.0)], [2.0, 0.0]])
    points = Polyline(controls, np.array([0.0, 0.5, 1.0])).points
    assert points.dtype == controls.dtype and points.tobytes() == controls.tobytes()
    assert not np.shares_memory(points, controls) and not points.flags.writeable


def _owner_args(cls) -> list:
    """Arguments that build a valid ``cls``, each array a fresh writable one."""
    model = demo_document().model
    return {
        KnotVector: [np.array(model.knots.knots), model.order],
        RationalCurveModel: [np.array(DEMO_CONTROLS), np.array(DEMO_WEIGHTS), model.order, model.knots],
        Polyline: [np.array(DEMO_CONTROLS), np.array([0.0, 0.25, 0.5, 1.0])],
        FuzzyCurveModel: [np.array(model.coords), np.array(model.weights), model.order, model.knots, model.alpha],
    }[cls]


_HELD = [
    (KnotVector, "knots"),
    (RationalCurveModel, "controls"),
    (RationalCurveModel, "weights"),
    (Polyline, "points"),
    (Polyline, "params"),
    (FuzzyCurveModel, "coords"),
    (FuzzyCurveModel, "weights"),
    (FuzzyCurveModel, "solved"),
]


@pytest.mark.parametrize("cls, name", _HELD, ids=[f"{cls.__name__}.{name}" for cls, name in _HELD])
def test_an_object_holds_read_only_copies_of_its_arrays(cls, name):
    """An object's checks hold for its life: a write to the caller's arrays
    does not reach the arrays it holds, and those cannot be written."""
    args = _owner_args(cls)
    held = getattr(cls(*args), name)
    held = held if isinstance(held, tuple) else (held,)  # solved is four arrays
    before = [np.array(array) for array in held]
    callers = [arg for arg in args if isinstance(arg, np.ndarray)]
    for arg in callers:
        arg += 1.0
    for array, was in zip(held, before):
        assert array.tobytes() == was.tobytes()
        assert not any(np.shares_memory(array, arg) for arg in callers)
        with pytest.raises(ValueError):
            array[...] = 0.0


def test_knot_vector_compares_a_numpy_order_as_a_python_int():
    """``4 - np.uint64(2**64 - 1)`` wraps with a RuntimeWarning; the order is
    compared and kept as the Python int it holds (its refusal is the row
    ``knot-vector-wrapping-numpy-order`` of ``test_boundary``)."""
    kv = KnotVector([0, 0, 0, 1, 1, 1], np.uint64(3))
    assert (type(kv.order), kv.order, kv.n_controls) == (int, 3, 3)


@pytest.mark.parametrize("t", [0.25, np.float64(0.25), np.float32(0.25), np.array(0.25), Fraction(1, 4), Decimal("0.25"), 0])
def test_one_parameter_evaluators_take_any_single_number(t):
    kv = clamped_uniform_knots(4, 3)
    assert np.array_equal(basis_row(kv, t), dense_rows(kv.knots, 3, np.array([float(t)]))[0])


def test_basis_of_the_orders_the_knots_are_clamped_at_matches_the_recursion():
    """A knot vector of order 4 is clamped at orders 2, 3 and 4; at order 5
    its ends are too short, and ``basis`` refuses it rather than evaluate
    over a narrower inner domain (the row ``basis-order-past-the-clamped-ends``
    of ``test_boundary``)."""
    kv = KnotVector([0, 0, 0, 0, 0.25, 0.5, 0.5, 0.75, 1, 1, 1, 1], 4)
    ts = np.concatenate([np.unique(kv.knots), np.linspace(0.0, 1.0, 23)])
    for order in (2, 3, 4):
        for i in range(kv.knots.size - order):
            for t in ts:
                assert abs(basis(kv, i, order, t) - cox_de_boor(kv.knots, i, order, t)) <= 1e-14


@pytest.mark.parametrize(
    "kind",
    [np.int8, np.int16, np.int32, np.int64, np.longlong, np.uint8, np.uint16, np.uint32, np.uint64, np.ulonglong],
    ids=lambda kind: kind.__name__,
)
def test_basis_reads_a_numpy_index_as_an_integer(kind):
    """``np.uint64(1) - np.int64(0)`` is a float; the index is read as the Python int it holds."""
    assert basis(clamped_uniform_knots(4, 3), kind(1), 3, 0.25) == 0.625


@pytest.mark.parametrize("n, order", [(4, 3), (30, 8)])
def test_sample_curves_shares_basis_and_matches_rational_point(n, order):
    rng = np.random.default_rng(n)
    polygons = rng.normal(size=(5, n, 2))
    weights = rng.uniform(0.5, 3.0, n)
    kv = clamped_uniform_knots(n, order)
    ts, points = sample_curves(RationalCurveModel(polygons[0], weights, order, kv), polygons, 17)
    assert points.shape == (len(polygons), 17, 2)
    assert np.array_equal(ts, np.linspace(0.0, 1.0, 17))
    for polygon, curve in zip(polygons, points):
        m = RationalCurveModel(polygon, weights, order, kv)
        expected = np.array([rational_point(m, t) for t in ts])
        assert np.array_equal(curve, expected)


@functools.cache
def most_samples(order):
    """The bound :func:`check_samples` states at ``order``: it admits that
    count and refuses one more, naming the count in its message."""
    with pytest.raises(T2SplineError) as refusal:
        check_samples(10**30, order)
    most = int(re.search(r"from 2 to (\d+) for order", str(refusal.value)).group(1))
    assert check_samples(most, order) == most
    with pytest.raises(T2SplineError, match=f"^samples must be an integer from 2 to {most} for order {order}, got {most + 1}$"):
        check_samples(most + 1, order)
    return most


@pytest.mark.parametrize("n", [4, 400, 5000])
def test_sample_bound_is_on_basis_cells(n):
    """The bound counts the cells of the triangular basis table, order² per
    sample, and the points of each curve; not the control points.  A curve
    of n controls refuses one sample more at order 3: the rows
    ``sample-curves-past-the-point-bound-*`` of ``test_boundary``."""
    assert [most_samples(order) for order in (2, 3, 4)] == [MAX_SAMPLES] * 3
    assert most_samples(n) == min(MAX_SAMPLES, MAX_BASIS_WORK // n**2)


def test_sample_bound_up_to_order_4_is_the_point_bound():
    for order in range(2, 5):
        for n in range(order, 5001):
            assert most_samples(order) == MAX_SAMPLES


def test_sample_bound_admits_every_count_the_cell_bound_admitted():
    """The former bound was ``min(2**25 // n, MAX_BASIS_WORK // order²)``,
    with ``2**25`` cells of a dense ``(samples, n)`` basis; no document it
    accepted is refused."""
    grid = [(n, order) for order in range(2, 41) for n in [*range(order, 3001), 10**4, 10**5, 10**6]]
    for n, order in grid + [(400, 400), (2000, 1000), (10**6, 10**4)]:
        assert most_samples(order) >= min(2**25 // n, MAX_BASIS_WORK // order**2)


def test_sample_bound_above_order_10_limits_basis_work():
    """The triangular table costs order² steps per sample; a curve of order
    400 refuses more (the rows ``sample-curves-past-the-work-bound-*`` of
    ``test_boundary``)."""
    assert most_samples(400) == MAX_BASIS_WORK // 400**2 == 2097
    assert most_samples(11) == MAX_BASIS_WORK // 121 < MAX_SAMPLES


# --- vectorised basis kernel against the recursive definition -----------------------

_any_interior = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
# The recursive oracle divides by knot intervals, which overflows for
# subnormal ones; it is compared on knots at least 2**-20 apart.
_dyadic_interior = st.integers(1, 2**20 - 1).map(lambda v: v / 2**20)


@st.composite
def knots_and_params(draw, interior_knots=_any_interior):
    """A clamped knot vector on [0, 1] of order 2..10 whose interior knots
    repeat up to `order` times, plus parameters on every knot, at both ends
    of the domain and in between."""
    order = draw(st.integers(2, 10))
    distinct = draw(st.lists(interior_knots, max_size=4, unique=True))
    interior = sorted(v for v in distinct for _ in range(draw(st.integers(1, order))))
    knots = np.array([0.0] * order + interior + [1.0] * order)
    inner = draw(st.lists(st.floats(0.0, 1.0), max_size=4))
    ts = np.array([0.0, 1.0, *interior, *inner])
    return knots, order, np.array(draw(st.permutations(ts)))


@settings(deadline=None)
@given(knots_and_params(_dyadic_interior))
def test_basis_rows_match_recursive_oracle(case):
    knots, order, ts = case
    n = knots.size - order
    rows = dense_rows(knots, order, ts)
    assert rows.shape == (ts.size, n)
    for t, row in zip(ts, rows):
        for i in range(n):
            assert abs(row[i] - cox_de_boor(knots, i, order, t)) <= 1e-14
            if not knots[i] <= t <= knots[i + order]:
                assert row[i] == 0.0


@settings(deadline=None)
@given(knots_and_params())
@example((np.array([0.0, 0.0, 5e-324, 1.0, 1.0]), 2, np.array([0.0, 1.0, 5e-324])))  # subnormal interval
def test_basis_rows_partition_of_unity_nonnegative_and_per_sample(case):
    knots, order, ts = case
    kv = KnotVector(knots, order)
    first, values = basis_rows(kv, ts)
    assert first.shape == ts.shape and values.shape == (ts.size, order)
    assert np.all((first >= 0) & (first <= knots.size - 2 * order))
    rows = dense_rows(knots, order, ts)
    assert np.all(rows >= 0.0)
    assert np.all(np.abs(rows.sum(axis=1) - 1.0) <= 1e-12)
    for t, i, terms in zip(ts, first, values):  # one parameter alone gives the same bits as in the batch
        alone = basis_rows(kv, t)
        assert alone[0][0] == i and np.array_equal(alone[1][0], terms)


_outside_unit = st.one_of(
    st.just(np.nan),
    st.floats(max_value=-5e-324),
    st.floats(min_value=1.0, exclude_min=True),
)


@settings(deadline=None)
@given(knots_and_params(), _outside_unit, st.integers(0, 10))
def test_basis_rows_reject_nan_and_out_of_domain(case, bad, where):
    knots, order, ts = case
    ts = np.insert(ts, min(where, ts.size), bad)
    with pytest.raises(ParameterOutOfDomain):
        basis_rows(KnotVector(knots, order), ts)
    with pytest.raises(ParameterOutOfDomain):
        basis_row(KnotVector(knots, order), bad)
