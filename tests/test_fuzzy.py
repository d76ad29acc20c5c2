import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from test_boundary import REFUSALS, refusal_tests
from t2spline import (
    FuzzyCurveModel,
    NT2FuzzyPoint,
    NT2FuzzyScalar,
    OrderingViolation,
    T2SplineError,
    ValidationError,
)
from t2spline import fuzzy
from t2spline.fuzzy import as_coords, coords_from_rows, points_of

# The refusal tests of this module are rows of test_boundary.REFUSALS.
globals().update(refusal_tests(REFUSALS["test_fuzzy"]))

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


@pytest.mark.parametrize(
    "values,pair",
    [
        ((4.5, 4.3, 4.6, 5, 5.4, 5.7, 6), ("ll", "l")),
        ((4, 4.3, 5.2, 5, 5.4, 5.7, 6), ("rl", "c")),
        ((4, 4.3, 4.6, 5, 4.9, 5.7, 6), ("c", "lr")),
        ((4, 4.3, 4.6, 5, 5.8, 5.7, 6), ("lr", "r")),
        ((4, 4.3, 4.6, 5, 5.4, 6.1, 6), ("r", "rr")),
        ((4, 4.6, 4.3, 5, 5.4, 5.7, 6), ("l", "rl")),
    ],
)
def test_every_adjacent_pair_is_checked(values, pair):
    with pytest.raises(OrderingViolation) as exc:
        NT2FuzzyScalar(*values, h=0.6)
    assert exc.value.pair == pair


def test_height_of_exactly_one_is_allowed():
    NT2FuzzyScalar(4, 4.3, 4.6, 5, 5.4, 5.7, 6, h=1.0)


def test_scalar_constructors_accept_every_kind_of_number():
    s = NT2FuzzyScalar(np.int64(1), np.float32(2), Fraction(3), Decimal("4"), 5, 6.0, np.float64(7), Fraction(1, 2))
    assert s.components() == (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0) and s.h == 0.5
    assert all(type(v) is float for v in (*s.components(), s.h))
    assert NT2FuzzyScalar.from_spreads(np.int32(5), (Fraction(1),) * 6, np.float64(0.5)) == NT2FuzzyScalar(4, 4, 4, 5, 6, 6, 6, 0.5)


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
    """A scalar centred in [-100, 100], its spreads in [0, 50] and its height
    in [0.01, 1]; the property tests of the pipeline and the curves draw it too."""
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


@pytest.mark.parametrize("components", [(1.0,) * 7, (0, 1, 2, 3, 4, 5, 6)])
def test_membership_grade_at_nan_is_refused(components):
    s = NT2FuzzyScalar(*components, h=0.5)
    for grade in (s.membership_upper, s.membership_lower):
        for x in (float("nan"), np.float64("nan")):
            with pytest.raises(T2SplineError, match="^x must not be NaN$"):
                grade(x)
        assert grade(math.inf) == grade(-math.inf) == 0.0


def _exact_grade(x, lo, apex, hi, peak) -> Fraction:
    """The triangle's grade at ``x`` in exact arithmetic."""
    x, lo, apex, hi, peak = map(Fraction, (x, lo, apex, hi, peak))
    if x == apex:
        return peak
    if x <= lo or x >= hi:
        return Fraction(0)
    return peak * (x - lo) / (apex - lo) if x < apex else peak * (hi - x) / (hi - apex)


def _plain_grade(x, lo, apex, hi, peak):
    """``peak * rise / width``, the grade by the plain formula, or None where
    the membership does not keep it: its width overflows, its product
    ``peak * rise`` underflows or it rounds past ``peak``."""
    if x == apex:
        return peak
    if x <= lo or x >= hi:
        return 0.0
    rise, width = (x - lo, apex - lo) if x < apex else (hi - x, hi - apex)
    if math.isinf(width) or peak * rise < 2.0**-1022:
        return None
    grade = peak * rise / width
    return grade if grade <= peak else None


_finite = st.floats(allow_nan=False, allow_infinity=False)


@given(components=st.lists(_finite, min_size=7, max_size=7).map(sorted), h=st.floats(0.0, 1.0, exclude_min=True), x=_finite)
@example(components=[-1e308] * 3 + [1e308] * 4, h=0.5, x=0.0)
@example(components=[-1.5e308, -1e308, -1e307, 1.5e308, 1.6e308, 1.7e308, 1.79e308], h=0.5, x=1e308)
@example(components=[0.0, 0.0, 0.0, 1e-323, 2e-323, 2e-323, 2e-323], h=0.3, x=5e-324)
@example(components=[-6.867843085461302e307] * 3 + [3.316279051413169e-276] + [1.4722744261462431e308] * 3, h=0.1, x=3.3162790514131695e-276)
def test_membership_grade_is_right_across_the_float_range(components, h, x):
    """Both grades lie in [0, peak] and within ``4 * 2**-53`` of the exact
    grade, relatively, plus the smallest subnormal: 200,000 random scalars
    across the finite range gave at most 2.72 units of ``2**-53``.  Where
    the plain formula is kept, the grade has its bits."""
    s = NT2FuzzyScalar(*components, h)
    for grade, (lo, hi, peak) in ((s.membership_upper(x), (s.ll, s.rr, 1.0)), (s.membership_lower(x), (s.rl, s.lr, h))):
        assert 0.0 <= grade <= peak
        exact = _exact_grade(x, lo, s.c, hi, peak)
        assert abs(Fraction(grade) - exact) <= exact * Fraction(4, 2**53) + Fraction(2) ** -1074
        plain = _plain_grade(x, lo, s.c, hi, peak)
        assert plain is None or grade == plain


# --- fuzzy points -------------------------------------------------------------

def test_point_holds_two_scalars():
    p = NT2FuzzyPoint(REFERENCE, NT2FuzzyScalar(2, 2, 2, 3, 3.5, 3.5, 4, h=0.9))
    assert p.crisp_xy == (5.0, 3.0)


def test_crisp_point_constructor():
    p = NT2FuzzyPoint.crisp(5.0, 3.0)
    assert p.x.is_degenerate and p.y.is_degenerate
    assert p.crisp_xy == (5.0, 3.0)


# --- coordinate arrays -----------------------------------------------------------

_any_float = st.floats(allow_nan=True, allow_infinity=True)


@st.composite
def coordinate_rows(draw):
    """Rows in the explicit layout, each either built valid or drawn from
    all floats (NaN, infinities, huge)."""
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        h = draw(st.one_of(st.floats(0.0, 1.0, exclude_min=True), _any_float))
        if draw(st.booleans()):
            row = draw(st.lists(_any_float, min_size=7, max_size=7)) + [h]
        else:
            row = sorted(draw(st.lists(st.floats(-1e6, 1e6), min_size=7, max_size=7))) + [h]
        rows.append(row)
    return np.array(rows)


@given(rows=coordinate_rows())
def test_array_validation_matches_the_scalar_constructors(rows):
    expected = []
    for i, row in enumerate(rows):
        try:
            s = NT2FuzzyScalar(*row.tolist())
        except T2SplineError as exc:
            message = f"point {i // 2}, coordinate {'xy'[i % 2]}: {exc}"
            with pytest.raises(ValidationError) as raised:
                coords_from_rows(rows)
            assert str(raised.value) == message
            assert type(raised.value.__cause__) is type(exc)
            return
        expected.append((*s.components(), s.h))
    assert np.array_equal(coords_from_rows(rows), np.array(expected))


def test_points_and_coordinate_array_round_trip():
    skewed = NT2FuzzyScalar.from_spreads(1, (3, 2, 1, 1, 2, 3), 0.4)
    points = [NT2FuzzyPoint(REFERENCE, skewed), NT2FuzzyPoint.crisp(2, 3)]
    coords = as_coords(points)
    assert coords.shape == (2, 2, 8) and not coords.flags.writeable
    assert points_of(coords) == points
    assert np.array_equal(as_coords(coords), coords)


def test_fuzzy_points_take_the_validation_path_of_an_array(monkeypatch):
    """A model built from fuzzy points holds an array that passed
    :func:`coords_from_rows`, as a model built from an array does."""
    checked = []
    monkeypatch.setattr(fuzzy, "coords_from_rows", lambda rows: checked.append(rows) or coords_from_rows(rows))
    model = FuzzyCurveModel.with_uniform_knots([NT2FuzzyPoint(REFERENCE, REFERENCE), NT2FuzzyPoint.crisp(2, 3)], order=2)
    assert len(checked) == 1
    assert np.array_equal(checked[0], model.coords.reshape(-1, 8))


