import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from t2spline import (
    HeightOutOfRange,
    NT2FuzzyPoint,
    NT2FuzzyScalar,
    NegativeSpread,
    OrderingViolation,
    SpreadOrderViolation,
    T2SplineError,
    ValidationError,
)
from t2spline.fuzzy import as_coords, coords_from_rows, points_of

REFERENCE = NT2FuzzyScalar(4, 4.3, 4.6, 5, 5.4, 5.7, 6, h=0.6)


# --- construction -----------------------------------------------------------

def test_valid_scalar_centered_at_5():
    s = REFERENCE
    assert s.c == 5.0
    assert s.components() == (4.0, 4.3, 4.6, 5.0, 5.4, 5.7, 6.0)
    assert s.h == 0.6


def test_degenerate_all_equal_scalar():
    s = NT2FuzzyScalar(5, 5, 5, 5, 5, 5, 5, h=0.5)
    assert s.is_degenerate
    assert s.spreads == (0.0,) * 6


def test_ordering_violation_names_the_pair():
    with pytest.raises(OrderingViolation) as exc:
        NT2FuzzyScalar(4, 4.6, 4.3, 5, 5.4, 5.7, 6, h=0.6)
    assert exc.value.pair == ("l", "rl")
    assert "l > rl" in str(exc.value)


@pytest.mark.parametrize(
    "values,pair",
    [
        ((4.5, 4.3, 4.6, 5, 5.4, 5.7, 6), ("ll", "l")),
        ((4, 4.3, 5.2, 5, 5.4, 5.7, 6), ("rl", "c")),
        ((4, 4.3, 4.6, 5, 4.9, 5.7, 6), ("c", "lr")),
        ((4, 4.3, 4.6, 5, 5.8, 5.7, 6), ("lr", "r")),
        ((4, 4.3, 4.6, 5, 5.4, 6.1, 6), ("r", "rr")),
    ],
)
def test_every_adjacent_pair_is_checked(values, pair):
    with pytest.raises(OrderingViolation) as exc:
        NT2FuzzyScalar(*values, h=0.6)
    assert exc.value.pair == pair


@pytest.mark.parametrize("h", [0.0, -0.2, 1.0001, math.nan])
def test_height_out_of_range(h):
    with pytest.raises(HeightOutOfRange):
        NT2FuzzyScalar(4, 4.3, 4.6, 5, 5.4, 5.7, 6, h=h)


def test_height_of_exactly_one_is_allowed():
    NT2FuzzyScalar(4, 4.3, 4.6, 5, 5.4, 5.7, 6, h=1.0)


def test_non_finite_component_rejected():
    with pytest.raises(T2SplineError):
        NT2FuzzyScalar(4, 4.3, math.inf, 5, 5.4, 5.7, 6, h=0.6)


# --- from_spreads ------------------------------------------------------------

def test_from_spreads_zero_spreads_is_degenerate():
    s = NT2FuzzyScalar.from_spreads(5.0, (0, 0, 0, 0, 0, 0), h=0.5)
    assert s.components() == (5.0,) * 7


def test_from_spreads_reproduces_reference_scalar():
    s = NT2FuzzyScalar.from_spreads(5.0, (1, 0.7, 0.4, 0.4, 0.7, 1), h=0.6)
    assert s == REFERENCE


def test_from_spreads_around_zero():
    s = NT2FuzzyScalar.from_spreads(0.0, (1, 0.5, 0.2, 0.2, 0.5, 1), h=0.8)
    assert s.components() == (-1.0, -0.5, -0.2, 0.0, 0.2, 0.5, 1.0)


def test_from_spreads_rejects_negative():
    with pytest.raises(NegativeSpread):
        NT2FuzzyScalar.from_spreads(5.0, (1, 0.7, -0.1, 0.4, 0.7, 1), h=0.6)


def test_from_spreads_rejects_bad_side_order():
    with pytest.raises(SpreadOrderViolation):
        NT2FuzzyScalar.from_spreads(5.0, (0.4, 0.7, 1, 0.4, 0.7, 1), h=0.6)
    with pytest.raises(SpreadOrderViolation):
        NT2FuzzyScalar.from_spreads(5.0, (1, 0.7, 0.4, 0.7, 0.4, 1), h=0.6)


# --- membership functions ----------------------------------------------------

def test_membership_upper_apex_edge_midpoint():
    s = REFERENCE
    assert s.membership_upper(5.0) == 1.0
    assert s.membership_upper(4.0) == 0.0
    assert s.membership_upper(6.0) == 0.0
    assert s.membership_upper(4.5) == pytest.approx(0.5, abs=1e-12)
    assert s.membership_upper(3.0) == 0.0
    assert s.membership_upper(7.0) == 0.0


def test_membership_lower_apex_edge_midpoint():
    s = REFERENCE
    assert s.membership_lower(5.0) == 0.6
    assert s.membership_lower(4.6) == 0.0
    assert s.membership_lower(5.4) == 0.0
    assert s.membership_lower(4.8) == pytest.approx(0.3, abs=1e-12)
    assert s.membership_lower(4.0) == 0.0


def test_degenerate_membership_is_indicator_at_c():
    s = NT2FuzzyScalar(5, 5, 5, 5, 5, 5, 5, h=0.4)
    assert s.membership_upper(5.0) == 1.0
    assert s.membership_lower(5.0) == 0.4
    for x in (4.999999, 5.000001, 0.0):
        assert s.membership_upper(x) == 0.0
        assert s.membership_lower(x) == 0.0


def test_zero_width_left_side_only():
    s = NT2FuzzyScalar(5, 5, 5, 5, 5.4, 5.7, 6, h=0.5)
    assert s.membership_upper(5.0) == 1.0
    assert s.membership_upper(4.9) == 0.0
    assert s.membership_upper(5.5) == 0.5


# --- property tests ----------------------------------------------------------

_side = st.tuples(
    st.floats(0, 50), st.floats(0, 50), st.floats(0, 50)
)


@st.composite
def scalars(draw):
    c = draw(st.floats(-100, 100, allow_nan=False, allow_infinity=False))
    left = sorted(draw(_side))
    right = sorted(draw(_side))
    h = draw(st.floats(0.01, 1.0))
    spreads = (left[2], left[1], left[0], right[0], right[1], right[2])
    return NT2FuzzyScalar.from_spreads(c, spreads, h)


@given(s=scalars(), x=st.floats(-250, 250))
def test_footprint_containment(s, x):
    lo = s.membership_lower(x)
    hi = s.membership_upper(x)
    assert 0.0 <= lo <= 1.0
    assert 0.0 <= hi <= 1.0
    assert lo <= hi + 1e-12


@given(s=scalars(), a1=st.floats(0, 0.999), a2=st.floats(0, 0.999))
def test_umf_alpha_intervals_nest(s, a1, a2):
    a1, a2 = min(a1, a2), max(a1, a2)
    lo1 = s.ll + a1 * (s.c - s.ll)
    hi1 = s.rr + a1 * (s.c - s.rr)
    lo2 = s.ll + a2 * (s.c - s.ll)
    hi2 = s.rr + a2 * (s.c - s.rr)
    assert lo1 <= lo2 <= s.c
    assert s.c <= hi2 <= hi1


@given(s=scalars())
def test_spreads_round_trip(s):
    rebuilt = NT2FuzzyScalar.from_spreads(s.c, s.spreads, s.h)
    for a, b in zip(rebuilt.components(), s.components()):
        assert a == pytest.approx(b, abs=1e-9)
    assert rebuilt.h == s.h


@given(s=scalars())
def test_membership_at_crisp_value(s):
    assert s.membership_upper(s.c) == 1.0
    assert s.membership_lower(s.c) == s.h


# --- fuzzy points -------------------------------------------------------------

def test_point_holds_two_scalars():
    p = NT2FuzzyPoint(REFERENCE, NT2FuzzyScalar(2, 2, 2, 3, 3.5, 3.5, 4, h=0.9))
    assert p.crisp_xy == (5.0, 3.0)


def test_point_rejects_non_scalar_coordinates():
    with pytest.raises(T2SplineError):
        NT2FuzzyPoint(1.0, REFERENCE)


def test_crisp_point_constructor():
    p = NT2FuzzyPoint.crisp(5.0, 3.0)
    assert p.x.is_degenerate and p.y.is_degenerate
    assert p.crisp_xy == (5.0, 3.0)


# --- coordinate arrays -----------------------------------------------------------

_any_float = st.floats(allow_nan=True, allow_infinity=True)
_width = st.floats(0.0, 1e6)


@st.composite
def coordinate_rows(draw):
    """(rows, spreads mask): rows in the explicit or the spreads layout, each
    either built valid or drawn from all floats (NaN, infinities, huge)."""
    rows, spreads = [], []
    for _ in range(draw(st.integers(1, 8))):
        spreads_form = draw(st.booleans())
        h = draw(st.one_of(st.floats(0.0, 1.0, exclude_min=True), _any_float))
        if draw(st.booleans()):
            row = draw(st.lists(_any_float, min_size=7, max_size=7)) + [h]
        elif spreads_form:
            left = sorted(draw(st.lists(_width, min_size=3, max_size=3)), reverse=True)
            right = sorted(draw(st.lists(_width, min_size=3, max_size=3)))
            row = [*left, draw(st.floats(-1e6, 1e6)), *right, h]
        else:
            row = sorted(draw(st.lists(st.floats(-1e6, 1e6), min_size=7, max_size=7))) + [h]
        rows.append(row)
        spreads.append(spreads_form)
    return np.array(rows), np.array(spreads)


def _scalar(row, spreads_form):
    row = row.tolist()
    if spreads_form:
        return NT2FuzzyScalar.from_spreads(row[3], row[:3] + row[4:7], row[7])
    return NT2FuzzyScalar(*row)


@given(case=coordinate_rows())
def test_array_validation_matches_the_scalar_constructors(case):
    rows, spreads = case
    expected = []
    for i, (row, spreads_form) in enumerate(zip(rows, spreads)):
        try:
            s = _scalar(row, spreads_form)
        except T2SplineError as exc:
            message = f"point {i // 2}, coordinate {'xy'[i % 2]}: {exc}"
            with pytest.raises(ValidationError) as raised:
                coords_from_rows(rows, spreads)
            assert str(raised.value) == message
            assert type(raised.value.__cause__) is type(exc)
            return
        expected.append((*s.components(), s.h))
    assert np.array_equal(coords_from_rows(rows, spreads), np.array(expected))


def test_points_and_coordinate_array_round_trip():
    skewed = NT2FuzzyScalar.from_spreads(1, (3, 2, 1, 1, 2, 3), 0.4)
    points = [NT2FuzzyPoint(REFERENCE, skewed), NT2FuzzyPoint.crisp(2, 3)]
    coords = as_coords(points)
    assert coords.shape == (2, 2, 8) and not coords.flags.writeable
    assert points_of(coords) == points
    assert np.array_equal(as_coords(coords), coords)


def test_coordinate_array_shape_and_values_checked():
    with pytest.raises(T2SplineError, match=r"\(n, 2, 8\) array"):
        as_coords(np.zeros((3, 8)))
    bad = np.array([[[4, 4.3, 4.6, 5, 5.4, 5.7, 6, 0.6], [4, 4.3, 4.6, 5, 5.4, 5.7, 6, 1.5]]])
    with pytest.raises(ValidationError, match="^point 0, coordinate y: h must lie in"):
        as_coords(bad)
    with pytest.raises(T2SplineError, match="NT2FuzzyPoint instances"):
        as_coords([REFERENCE])
