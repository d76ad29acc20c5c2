import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import oracles
from test_boundary import REFUSALS, refusal_tests
from t2spline import (
    AlphaCutScalar,
    NT2FuzzyPoint,
    NT2FuzzyScalar,
    Regime,
    TRInterval,
    alpha_cut_point,
    alpha_cut_scalar,
    defuzzify,
    pipeline_point,
    type_reduce,
)
from t2spline.fuzzy import as_coords, points_of
from t2spline.pipeline import alpha_cut_array, solve

# The refusal tests of this module are rows of test_boundary.REFUSALS.
globals().update(refusal_tests(REFUSALS["test_pipeline"]))

TALL = NT2FuzzyScalar(4, 4.3, 4.6, 5, 5.4, 5.7, 6, h=0.9)   # alpha=0.8 cuts below h
SHORT = NT2FuzzyScalar(4, 4.3, 4.6, 5, 5.4, 5.7, 6, h=0.6)  # alpha=0.8 cuts between
DEGENERATE = NT2FuzzyScalar(5, 5, 5, 5, 5, 5, 5, h=0.5)


# --- alpha_cut_scalar ---------------------------------------------------------

def test_cut_below_regime_values():
    cut = alpha_cut_scalar(TALL, 0.8)
    assert cut.regime is Regime.BELOW
    assert cut.left_outer == pytest.approx(4.8, abs=1e-12)
    assert cut.left_principal == pytest.approx(4.3 + 0.8 * 0.7, abs=1e-12)
    assert cut.left_inner == pytest.approx(4.6 + (0.8 / 0.9) * 0.4, abs=1e-12)
    assert cut.c == 5.0
    assert cut.right_inner == pytest.approx(5.4 - (0.8 / 0.9) * 0.4, abs=1e-12)
    assert cut.right_principal == pytest.approx(5.7 - 0.8 * 0.7, abs=1e-12)
    assert cut.right_outer == pytest.approx(6 - 0.8 * 1.0, abs=1e-12)


def test_cut_between_regime_drops_inner_components():
    cut = alpha_cut_scalar(SHORT, 0.8)
    assert cut.regime is Regime.BETWEEN
    assert cut.left_inner is None and cut.right_inner is None
    assert cut.left == (
        pytest.approx(4.8, abs=1e-12),
        pytest.approx(4.86, abs=1e-12),
        None,
    )


def test_cut_degenerate_scalar_is_fixed_point():
    for alpha in (0.0, 0.3, 0.5, 0.9):
        cut = alpha_cut_scalar(DEGENERATE, alpha)
        present = [v for v in (*cut.left, cut.c, *cut.right) if v is not None]
        assert all(v == 5.0 for v in present)


def test_cut_at_alpha_zero_returns_supports():
    cut = alpha_cut_scalar(TALL, 0.0)
    assert cut.left == (4.0, 4.3, 4.6)
    assert cut.right == (5.4, 5.7, 6.0)


def test_regime_boundary_belongs_below():
    cut = alpha_cut_scalar(SHORT, 0.6)
    assert cut.regime is Regime.BELOW
    # at alpha == h the scaled LMF cut reaches the crisp value
    assert cut.left_inner == pytest.approx(5.0, abs=1e-12)
    assert cut.right_inner == pytest.approx(5.0, abs=1e-12)
    assert alpha_cut_scalar(SHORT, 0.6000001).regime is Regime.BETWEEN


# --- alpha_cut_point ----------------------------------------------------------

def test_cut_point_degenerate():
    p = NT2FuzzyPoint.crisp(5.0, 3.0)
    cx, cy = alpha_cut_point(p, 0.4)
    assert (cx.left_outer, cx.c, cx.right_outer) == (5.0, 5.0, 5.0)
    assert (cy.left_outer, cy.c, cy.right_outer) == (3.0, 3.0, 3.0)


def test_cut_point_acts_per_coordinate():
    p = NT2FuzzyPoint(TALL, NT2FuzzyScalar(3, 3, 3, 3, 3, 3, 3, h=0.5))
    cx, cy = alpha_cut_point(p, 0.8)
    assert cx == alpha_cut_scalar(TALL, 0.8)
    assert cy.left_outer == cy.right_outer == 3.0


def test_cut_point_symmetric_spreads_mirror_about_crisp():
    sym = NT2FuzzyScalar.from_spreads(10.0, (2, 1.5, 0.5, 0.5, 1.5, 2), h=0.7)
    cut = alpha_cut_scalar(sym, 0.3)
    assert cut.c - cut.left_outer == pytest.approx(cut.right_outer - cut.c, abs=1e-12)
    assert cut.c - cut.left_principal == pytest.approx(cut.right_principal - cut.c, abs=1e-12)
    assert cut.c - cut.left_inner == pytest.approx(cut.right_inner - cut.c, abs=1e-12)


# --- type_reduce ---------------------------------------------------------------

def test_type_reduce_three_term_mean_below():
    cut = AlphaCutScalar(
        alpha=0.8, left_outer=4.8, left_principal=4.9, left_inner=4.95,
        c=5.0, right_inner=5.05, right_principal=5.1, right_outer=5.2,
        regime=Regime.BELOW,
    )
    tr = type_reduce(cut)
    assert tr.left == (4.8 + 4.9 + 4.95) / 3.0
    assert tr.left == pytest.approx(4.883333333333333, abs=1e-12)
    assert tr.right == (5.05 + 5.1 + 5.2) / 3.0
    assert tr.c == 5.0 and tr.alpha == 0.8


def test_type_reduce_two_term_mean_between():
    cut = AlphaCutScalar(
        alpha=0.8, left_outer=4.8, left_principal=4.86, left_inner=None,
        c=5.0, right_inner=None, right_principal=5.1, right_outer=5.3,
        regime=Regime.BETWEEN,
    )
    tr = type_reduce(cut)
    assert tr.left == (4.8 + 4.86) / 2.0 == 4.83
    assert tr.right == (5.1 + 5.3) / 2.0


def test_type_reduce_degenerate():
    tr = type_reduce(alpha_cut_scalar(DEGENERATE, 0.3))
    assert (tr.left, tr.c, tr.right) == (5.0, 5.0, 5.0)


# --- defuzzify ------------------------------------------------------------------

def test_defuzzify_symmetric_interval_returns_center():
    tr = TRInterval(left=4.883333333333333, c=5.0, right=5.116666666666667, alpha=0.8)
    assert defuzzify(tr) == pytest.approx(5.0, abs=1e-12)


def test_defuzzify_examples():
    assert defuzzify(TRInterval(5, 5, 5, alpha=0.1)) == 5.0
    assert defuzzify(TRInterval(4.83, 5.0, 5.2, alpha=0.8)) == pytest.approx(5.01, abs=1e-12)


# --- pipeline_point --------------------------------------------------------------

def test_pipeline_degenerate_point_passes_through():
    assert pipeline_point(NT2FuzzyPoint.crisp(5.0, 3.0), 0.8) == (5.0, 3.0)


def test_pipeline_symmetric_spreads_recover_crisp_point():
    sym = lambda c: NT2FuzzyScalar.from_spreads(c, (2, 1.5, 0.5, 0.5, 1.5, 2), h=0.7)
    p = NT2FuzzyPoint(sym(5.0), sym(3.0))
    for alpha in (0.1, 0.5, 0.7, 0.9):
        x, y = pipeline_point(p, alpha)
        assert x == pytest.approx(5.0, abs=1e-9)
        assert y == pytest.approx(3.0, abs=1e-9)


def test_pipeline_left_heavy_spreads_pull_output_left():
    heavy = NT2FuzzyScalar.from_spreads(5.0, (2, 1.5, 0.5, 0.1, 0.2, 0.3), h=0.7)
    p = NT2FuzzyPoint(heavy, NT2FuzzyScalar(3, 3, 3, 3, 3, 3, 3, h=0.5))
    for alpha in (0.0, 0.4, 0.7, 0.9):
        x, y = pipeline_point(p, alpha)
        assert x < 5.0
        assert y == 3.0


def test_pipeline_equals_hand_composed_chain():
    p = NT2FuzzyPoint(TALL, SHORT)
    for alpha in (0.0, 0.5, 0.8):
        cx, cy = alpha_cut_point(p, alpha)
        expected = (defuzzify(type_reduce(cx)), defuzzify(type_reduce(cy)))
        assert pipeline_point(p, alpha) == expected


def test_pipeline_output_converges_to_crisp_as_alpha_approaches_one():
    p = NT2FuzzyPoint(SHORT, TALL)
    x, y = pipeline_point(p, 1.0 - 1e-12)
    assert x == pytest.approx(5.0, abs=1e-9)
    assert y == pytest.approx(5.0, abs=1e-9)


def test_type_reduced_value_jumps_at_h():
    eps = 1e-9
    below = type_reduce(alpha_cut_scalar(SHORT, 0.6))
    above = type_reduce(alpha_cut_scalar(SHORT, 0.6 + eps))
    # dropping the inner |-> c term shifts the two-term mean strictly outward
    assert above.left < below.left - 1e-3
    assert above.right > below.right + 1e-3


# --- property tests ---------------------------------------------------------------

_side = st.tuples(st.floats(0, 50), st.floats(0, 50), st.floats(0, 50))


@st.composite
def scalars(draw):
    c = draw(st.floats(-100, 100, allow_nan=False, allow_infinity=False))
    left = sorted(draw(_side))
    right = sorted(draw(_side))
    h = draw(st.floats(0.01, 1.0))
    return NT2FuzzyScalar.from_spreads(
        c, (left[2], left[1], left[0], right[0], right[1], right[2]), h
    )


_alphas = st.floats(0.0, 0.999)


@given(s=scalars(), alpha=_alphas)
def test_regime_selection_is_exhaustive_and_exclusive(s, alpha):
    cut = alpha_cut_scalar(s, alpha)
    assert cut.regime is (Regime.BELOW if alpha <= s.h else Regime.BETWEEN)


@given(s=scalars(), alpha=_alphas)
def test_cut_values_lie_between_component_and_crisp(s, alpha):
    cut = alpha_cut_scalar(s, alpha)
    tol = 1e-9 * max(1.0, abs(s.c))
    assert s.ll - tol <= cut.left_outer <= s.c + tol
    assert s.l - tol <= cut.left_principal <= s.c + tol
    assert s.c - tol <= cut.right_principal <= s.r + tol
    assert s.c - tol <= cut.right_outer <= s.rr + tol
    if cut.regime is Regime.BELOW:
        assert s.rl - tol <= cut.left_inner <= s.c + tol
        assert s.c - tol <= cut.right_inner <= s.lr + tol


@given(s=scalars(), a1=_alphas, a2=_alphas)
def test_tr_intervals_shrink_within_regime(s, a1, a2):
    a1, a2 = min(a1, a2), max(a1, a2)
    cut1, cut2 = alpha_cut_scalar(s, a1), alpha_cut_scalar(s, a2)
    if cut1.regime is not cut2.regime:
        return
    tr1, tr2 = type_reduce(cut1), type_reduce(cut2)
    tol = 1e-9 * max(1.0, abs(s.c))
    assert tr1.left - tol <= tr2.left
    assert tr2.right <= tr1.right + tol


@given(s=scalars(), alpha=_alphas)
def test_tr_interval_brackets_crisp(s, alpha):
    tr = type_reduce(alpha_cut_scalar(s, alpha))
    tol = 1e-9 * max(1.0, abs(s.c))
    assert tr.left <= s.c + tol
    assert s.c - tol <= tr.right


def _ulps_beyond(value, bound) -> int:
    """How many floats ``value`` lies above ``bound``: 0 when ``value <= bound``."""

    def ordinal(x):
        bits = int(np.float64(x).view(np.int64))
        return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)

    return max(0, ordinal(value) - ordinal(bound))


#: Type reduction may leave [left, right] around the crisp value by this many
#: ulps.  Every cut value lies on its side of c (``v + a * (c - v)`` with
#: ``a < 1`` never rounds past c), so the two-term mean ``alpha > h`` is exact;
#: the three-term mean ``(x + y + z) / 3`` of values at most c rounds to at
#: most ``fl(3c) / 3``, which is within one ulp of c.  The worst distance
#: measured was 1 ulp: 50,000 Hypothesis examples of this test's strategies,
#: and 8 million random coordinates of ``solve`` with c of 0 or 1e-12 to 100,
#: spreads from 1e-16 to 50 and alpha up to ``1 - 2**-53``.
TR_ULP_BOUND = 1


@given(x=scalars(), y=scalars(), alpha=st.floats(0.0, 1.0, exclude_max=True))
@example(x=NT2FuzzyPoint.crisp(0.1, 0.7).x, y=NT2FuzzyPoint.crisp(0.1, 0.7).y, alpha=0.3)
def test_tr_interval_brackets_crisp_within_an_ulp(x, y, alpha):
    """left <= c <= right to :data:`TR_ULP_BOUND` ulps, for the scalar
    :func:`type_reduce` and for the array :func:`solve`.  The example is at
    the bound: its x interval starts at 0.10000000000000002, one ulp above
    c = 0.1, and its y interval ends one ulp below c = 0.7."""
    left, c, right, _ = solve(as_coords([NT2FuzzyPoint(x, y)]), alpha)
    for axis, s in enumerate((x, y)):
        tr = type_reduce(alpha_cut_scalar(s, alpha))
        for lo, mid, hi in ((tr.left, tr.c, tr.right), (left[0, axis], c[0, axis], right[0, axis])):
            assert mid == s.c
            assert _ulps_beyond(lo, mid) <= TR_ULP_BOUND
            assert _ulps_beyond(mid, hi) <= TR_ULP_BOUND


# --- array chain -----------------------------------------------------------------

_component = st.floats(-1e6, 1e6)


@st.composite
def chain_cases(draw):
    """An (n, 2, 8) coordinate array and a cut level: random ordered and
    degenerate coordinates, some with h equal to alpha, alpha = 0 often."""
    alpha = draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_max=True)))
    n = draw(st.integers(1, 5))
    rows = []
    for _ in range(2 * n):
        if draw(st.booleans()):
            values = sorted(draw(st.lists(_component, min_size=7, max_size=7)))
        else:
            values = [draw(_component)] * 7
        h = alpha if alpha > 0.0 and draw(st.booleans()) else draw(st.floats(0.0, 1.0, exclude_min=True))
        rows.append([*values, h])
    return np.array(rows).reshape(n, 2, 8), alpha


def _bits(values) -> tuple:
    """Each value's bytes, None kept: equal exactly when bit for bit equal."""
    return tuple(v if v is None else np.float64(v).tobytes() for v in values)


@given(case=chain_cases())
def test_array_chain_equals_scalar_chain_bit_for_bit(case):
    """alpha_cut_array, solve and the scalar views against the independent
    scalar chain of ``tests/oracles.py``."""
    coords, alpha = case
    cuts, below = alpha_cut_array(coords, alpha)
    left, c, right, solution = solve(coords, alpha)
    for i, (point, rows) in enumerate(zip(points_of(coords), coords.tolist())):
        assert _bits(solution[i]) == _bits(oracles.pipeline_point(rows, alpha))
        assert _bits(pipeline_point(point, alpha)) == _bits(solution[i])
        for axis, (cut, row) in enumerate(zip(alpha_cut_point(point, alpha), rows)):
            expected_cut, expected_below = oracles.alpha_cut(row, alpha)
            expected_tr = oracles.type_reduce(expected_cut, expected_below)
            assert below[i, axis] == expected_below
            assert cut.regime is (Regime.BELOW if expected_below else Regime.BETWEEN)
            present = [k for k, v in enumerate(expected_cut) if v is not None]
            assert _bits(cuts[i, axis, present]) == _bits([expected_cut[k] for k in present])
            assert _bits((*cut.left, cut.c, *cut.right)) == _bits(expected_cut)
            assert _bits([left[i, axis], c[i, axis], right[i, axis]]) == _bits(expected_tr)
            tr = type_reduce(cut)
            assert _bits((tr.left, tr.c, tr.right)) == _bits(expected_tr)
            assert _bits([defuzzify(tr)]) == _bits([oracles.defuzzify(*expected_tr)])


#: Coordinates whose cut or type-reduced values overflow: a span of 2e308
#: (the three-term mean overflows) and one whose ``c - v`` overflows.
OVERFLOWING = [
    (-1e308, -1e308, -1e308, 0.0, 1e308, 1e308, 1e308, 0.5),
    (-1e308, -1e308, -1e308, 1e308, 1e308, 1e308, 1e308, 0.5),
]


@pytest.mark.parametrize("row", OVERFLOWING)
@pytest.mark.parametrize("alpha", [0.0, 0.3, 0.5, 0.7])
def test_scalar_views_overflow_as_the_oracle_does_without_a_warning(row, alpha):
    """The views run under the errstate of :func:`solve`; a RuntimeWarning
    fails this test."""
    cut = alpha_cut_scalar(NT2FuzzyScalar(*row), alpha)
    expected_cut, below = oracles.alpha_cut(row, alpha)
    assert _bits((*cut.left, cut.c, *cut.right)) == _bits(expected_cut)
    tr = type_reduce(cut)
    assert _bits((tr.left, tr.c, tr.right)) == _bits(oracles.type_reduce(expected_cut, below))


