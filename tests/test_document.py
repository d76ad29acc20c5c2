import dataclasses
import gc
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_boundary import REFUSALS, refusal_tests
from t2spline import (
    FuzzyCurveModel,
    NT2FuzzyScalar,
    ParseError,
    T2SplineError,
    ValidationError,
    demo_document,
    document_to_json,
    load_document,
    load_model,
    parse_document,
    save_document,
)
from t2spline import document
from t2spline.bspline import MAX_SAMPLES
from t2spline.fuzzy import coords_from_rows
from t2spline.pipeline import solve

EXPLICIT_COORD = {"ll": 4, "l": 4.3, "rl": 4.6, "c": 5, "lr": 5.4, "r": 5.7, "rr": 6, "h": 0.6}
SPREADS_COORD = {
    "c": 5,
    "h": 0.6,
    "spreads": {
        "outer_left": 1,
        "principal_left": 0.7,
        "inner_left": 0.4,
        "inner_right": 0.4,
        "principal_right": 0.7,
        "outer_right": 1,
    },
}


def minimal_doc_text(coord, n=3):
    points = [{"x": dict(coord), "y": dict(coord)} for _ in range(n)]
    return json.dumps({"points": points})


def test_demo_document_round_trips(tmp_path):
    doc = demo_document()
    path = tmp_path / "demo.json"
    save_document(doc, path)
    loaded = load_document(path)
    assert loaded.points == doc.points
    assert loaded.model.weights.tolist() == doc.model.weights.tolist()
    assert (loaded.model.order, loaded.model.alpha, loaded.samples) == (doc.model.order, doc.model.alpha, doc.samples)


def test_load_model_builds_fuzzy_model(tmp_path):
    path = tmp_path / "demo.json"
    save_document(demo_document(), path)
    model = load_model(path)
    assert isinstance(model, FuzzyCurveModel)
    assert model.order == 3
    assert model.alpha == 0.8
    assert np.array_equal(model.weights, [1, 1, 3, 1])
    assert len(model.fuzzy_controls) == 4


def test_explicit_and_spreads_forms_agree():
    a = parse_document(minimal_doc_text(EXPLICIT_COORD))
    b = parse_document(minimal_doc_text(SPREADS_COORD))
    assert a.points == b.points


def test_defaults_applied():
    doc = parse_document(minimal_doc_text(EXPLICIT_COORD))
    assert doc.model.order == 3
    assert doc.model.alpha == 0.8
    assert doc.samples == 101
    assert doc.model.weights.tolist() == [1.0, 1.0, 1.0]


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_document('{"points": [,]}')
    assert exc.value.line == 1
    assert exc.value.column is not None
    assert "line 1" in str(exc.value)


def test_serialization_is_deterministic():
    doc = demo_document()
    assert document_to_json(doc) == document_to_json(doc)


@pytest.mark.parametrize("n", [3, 4, 400])
def test_samples_bound_is_the_evaluator_bound(n):
    payload = json.loads(minimal_doc_text(EXPLICIT_COORD, n))
    most = MAX_SAMPLES
    payload["samples"] = most
    assert parse_document(json.dumps(payload)).samples == most
    for samples in (most + 1, 10**9):
        payload["samples"] = samples
        with pytest.raises(ValidationError, match=f"^samples must be an integer from 2 to {most} for order 3, got {samples}$"):
            parse_document(json.dumps(payload))


def test_model_document_takes_any_iterable_of_points():
    demo = demo_document()
    doc = document.ModelDocument((p for p in demo.points), [1, 1, 3, 1], 3, 0.8, 101)
    assert np.array_equal(doc.model.coords, demo.model.coords)


def test_numpy_integer_order_and_samples_are_accepted():
    doc = document.ModelDocument(demo_document().model.coords, [1, 1, 3, 1], np.int64(2), 0.8, samples=np.int64(5))
    assert (type(doc.model.order), type(doc.samples)) == (int, int)
    again = parse_document(document_to_json(doc))
    assert (again.model.order, again.samples) == (2, 5)


def test_samples_above_a_million_accepted_for_few_points():
    payload = json.loads(minimal_doc_text(EXPLICIT_COORD, 4))
    payload["samples"] = 2_000_000
    assert parse_document(json.dumps(payload)).samples == 2_000_000


# --- parity of the array parser with the per-coordinate parser -------------------
#
# Each invalid document below, with the exception type and message it raised
# before the points were parsed into one array; the rows from
# "l-rl-swapped-of-two-points" on are the inputs of the seed's document
# tests.  Several documents hold two errors, to check that the first in
# document order is the one reported.  The rows of a value that is not a
# number, and of the weights, order and alpha settings, give the messages of
# the bspline number rule, which the parser and the model share.

def _text(edit=None, n=5, **top):
    payload = {"points": [{"x": dict(EXPLICIT_COORD), "y": dict(EXPLICIT_COORD)} for _ in range(n)], **top}
    if edit:
        edit(payload["points"])
    return json.dumps(payload)


def _set(point, axis, **values):
    def edit(points):
        points[point][axis].update(values)
    return edit


def _spreads(point, axis, c=5, h=0.6, **widths):
    def edit(points):
        coord = json.loads(json.dumps(SPREADS_COORD))
        coord.update(c=c, h=h)
        coord["spreads"].update(widths)
        points[point][axis] = coord
    return edit


def _replace(point, axis, value):
    def edit(points):
        points[point][axis] = value
    return edit


def _drop(point, axis, key):
    def edit(points):
        del points[point][axis][key]
    return edit


def _wrap_all(wrap):
    def edit(points):
        for point in points:
            for coord in point.values():
                coord.update({k: wrap(v) for k, v in coord.items()})
    return edit


def _both(*edits):
    def edit(points):
        for e in edits:
            e(points)
    return edit


INVALID_DOCUMENTS = {
    "malformed-json": ('{"points": [,]}', ParseError, 'line 1, column 13: Expecting value'),
    "root-list": ("[]", ValidationError, 'document root must be an object, got list'),
    "root-unknown-key": ('{"points": [], "bogus": 1}', ValidationError, "unexpected document keys ['bogus']"),
    "points-missing": ("{}", ValidationError, "document must carry a non-empty 'points' list"),
    "points-empty": ('{"points": []}', ValidationError, "document must carry a non-empty 'points' list"),
    "point-not-object": (_text(lambda p: p.__setitem__(2, [1, 2])), ValidationError, "point 2: must be an object with exactly 'x' and 'y'"),
    "point-extra-key": (_text(lambda p: p[2].update(z=1)), ValidationError, "point 2: must be an object with exactly 'x' and 'y'"),
    "coordinate-not-object": (_text(_replace(2, "y", [4, 5])), ValidationError, 'point 2, coordinate y: coordinate must be an object, got list'),
    "coordinate-unknown-key": (_text(_set(2, "x", extra=1)), ValidationError, "point 2, coordinate x: unexpected keys ['extra']"),
    "coordinate-missing-key": (_text(_drop(2, "x", "rr")), ValidationError, "point 2, coordinate x: missing keys ['rr']"),
    "value-bool": (_text(_set(2, "x", c=True)), ValidationError, 'point 2, coordinate x.c must be a number, got True'),
    "value-string": (_text(_set(2, "y", h="0.6")), ValidationError, "point 2, coordinate y.h must be a number, got '0.6'"),
    "value-null": (_text(_set(2, "x", ll=None)), ValidationError, 'point 2, coordinate x.ll must be a number, got None'),
    "ll-gt-l": (_text(_set(0, "x", ll=4.4)), ValidationError, 'point 0, coordinate x: ordering violated: ll > l (4.4 > 4.3)'),
    "l-gt-rl": (_text(_set(0, "x", l=4.7)), ValidationError, 'point 0, coordinate x: ordering violated: l > rl (4.7 > 4.6)'),
    "rl-gt-c": (_text(_set(0, "x", rl=5.1)), ValidationError, 'point 0, coordinate x: ordering violated: rl > c (5.1 > 5.0)'),
    "c-gt-lr": (_text(_set(0, "x", lr=4.8)), ValidationError, 'point 0, coordinate x: ordering violated: c > lr (5.0 > 4.8)'),
    "lr-gt-r": (_text(_set(0, "x", lr=5.8)), ValidationError, 'point 0, coordinate x: ordering violated: lr > r (5.8 > 5.7)'),
    "r-gt-rr": (_text(_set(0, "x", r=6.1)), ValidationError, 'point 0, coordinate x: ordering violated: r > rr (6.1 > 6.0)'),
    "l-rl-swapped-point-1-y": (_text(_set(1, "y", l=4.6, rl=4.3)), ValidationError, 'point 1, coordinate y: ordering violated: l > rl (4.6 > 4.3)'),
    "h-above-one": (_text(_set(0, "x", h=1.5)), ValidationError, 'point 0, coordinate x: h must lie in (0, 1], got 1.5'),
    "h-zero": (_text(_set(3, "y", h=0)), ValidationError, 'point 3, coordinate y: h must lie in (0, 1], got 0.0'),
    "h-nan": (_text(_set(3, "y", h=float("nan"))), ValidationError, 'point 3, coordinate y: h must lie in (0, 1], got nan'),
    "component-infinite": (_text(_set(1, "x", rr=float("inf"))), ValidationError, 'point 1, coordinate x: components must be finite, got [4.0, 4.3, 4.6, 5.0, 5.4, 5.7, inf]'),
    "component-nan": (_text(_set(1, "x", c=float("nan"))), ValidationError, 'point 1, coordinate x: components must be finite, got [4.0, 4.3, 4.6, nan, 5.4, 5.7, 6.0]'),
    "spreads-incomplete": (_text(_replace(1, "x", {"c": 5, "h": 0.6, "spreads": {"outer_left": 1}})), ValidationError, "point 1, coordinate x: spreads must have exactly the keys ['outer_left', 'principal_left', 'inner_left', 'inner_right', 'principal_right', 'outer_right']"),
    "spreads-not-object": (_text(_replace(1, "x", {"c": 5, "h": 0.6, "spreads": [1]})), ValidationError, 'point 1, coordinate x: spreads must be an object'),
    "spreads-extra-key": (_text(_replace(1, "x", {**SPREADS_COORD, "ll": 1})), ValidationError, "point 1, coordinate x: unexpected keys ['ll'] in spreads form"),
    "spreads-missing-h": (_text(_replace(1, "x", {"c": 5, "spreads": SPREADS_COORD["spreads"]})), ValidationError, "point 1, coordinate x: missing keys ['h']"),
    "spreads-c-bool": (_text(_spreads(1, "x", c=False)), ValidationError, 'point 1, coordinate x: c must be a number, got False'),
    "spreads-width-string": (_text(_spreads(1, "x", inner_right="0.4")), ValidationError, "point 1, coordinate x: spread inner_right must be a number, got '0.4'"),
    "spreads-negative": (_text(_spreads(1, "y", principal_right=-0.1)), ValidationError, 'point 1, coordinate y: spread principal_right must be >= 0, got -0.1'),
    "spreads-left-order": (_text(_spreads(1, "y", inner_left=0.8)), ValidationError, 'point 1, coordinate y: left spreads must satisfy inner <= principal <= outer, got (0.8, 0.7, 1.0)'),
    "spreads-right-order": (_text(_spreads(1, "y", outer_right=0.5)), ValidationError, 'point 1, coordinate y: right spreads must satisfy inner <= principal <= outer, got (0.4, 0.7, 0.5)'),
    "spreads-overflow": (_text(_spreads(1, "y", c=1e308, outer_right=1e308)), ValidationError, 'point 1, coordinate y: components must be finite, got [1e+308, 1e+308, 1e+308, 1e+308, 1e+308, 1e+308, inf]'),
    "spreads-h-nan": (_text(_spreads(4, "x", h=float("nan"))), ValidationError, 'point 4, coordinate x: h must lie in (0, 1], got nan'),
    "value-error-1-then-structural-3": (_text(_both(_set(1, "y", l=4.7), _drop(3, "x", "c"))), ValidationError, 'point 1, coordinate y: ordering violated: l > rl (4.7 > 4.6)'),
    "structural-1-then-value-error-3": (_text(_both(_drop(1, "y", "c"), _set(3, "x", l=4.7))), ValidationError, "point 1, coordinate y: missing keys ['c']"),
    "value-error-1-then-type-error-2": (_text(_both(_set(1, "x", h=2), _set(2, "x", r="5.7"))), ValidationError, 'point 1, coordinate x: h must lie in (0, 1], got 2.0'),
    "type-error-1-then-structural-3": (_text(_both(_set(1, "y", rr=[6]), _replace(3, "x", 7))), ValidationError, 'point 1, coordinate y.rr must be a number, got [6]'),
    "type-error-x-then-value-error-y": (_text(_both(_set(3, "x", lr=None), _set(3, "y", h=-1))), ValidationError, 'point 3, coordinate x.lr must be a number, got None'),
    "value-error-x-then-type-error-y": (_text(_both(_set(3, "x", h=-1), _set(3, "y", lr=None))), ValidationError, 'point 3, coordinate x: h must lie in (0, 1], got -1.0'),
    "spreads-error-2-then-value-error-3": (_text(_both(_spreads(2, "y", outer_left=-1), _set(3, "x", h=0))), ValidationError, 'point 2, coordinate y: spread outer_left must be >= 0, got -1.0'),
    "value-error-2-then-spreads-error-2-y": (_text(_both(_set(2, "x", h=0), _spreads(2, "y", outer_left=-1))), ValidationError, 'point 2, coordinate x: h must lie in (0, 1], got 0.0'),
    "weights-not-list": (_text(weights=3), ValidationError, 'expected 5 weights, got shape ()'),
    "weights-count": (_text(weights=[1.0, 2.0]), ValidationError, 'expected 5 weights, got shape (2,)'),
    "weights-zero": (_text(weights=[1.0, 0.0, 1.0, 1.0, 1.0]), ValidationError, 'weights must all be finite and > 0'),
    "weights-bool": (_text(weights=[1.0, True, 1.0, 1.0, 1.0]), ValidationError, 'weights must be a rectangular array of numbers: True is not a number'),
    "weights-string": (_text(weights=[1.0, 1.0, 1.0, "2", 1.0]), ValidationError, "weights must be a rectangular array of numbers: '2' is not a number"),
    "weights-infinite": (_text(weights=[1.0, 1.0, float("inf"), 1.0, 1.0]), ValidationError, 'weights must all be finite and > 0'),
    "order-too-high": (_text(order=6), ValidationError, 'order 6 exceeds control count 5'),
    "order-bool": (_text(order=True), ValidationError, 'order must be an integer, got True'),
    "order-float": (_text(order=3.0), ValidationError, 'order must be an integer, got 3.0'),
    "order-one": (_text(order=1), ValidationError, 'order must be at least 2, got 1'),
    "alpha-one": (_text(alpha=1.0), ValidationError, 'alpha must lie in [0, 1), got 1.0'),
    "alpha-string": (_text(alpha="0.8"), ValidationError, "alpha must be a number, got '0.8'"),
    "samples-one": (_text(samples=1), ValidationError, "samples must be an integer from 2 to 16777216 for order 3, got 1"),
    "samples-float": (_text(samples=10.0), ValidationError, "samples must be an integer from 2 to 16777216 for order 3, got 10.0"),
    "samples-over-bound": (_text(n=400, samples=2**25), ValidationError, "samples must be an integer from 2 to 16777216 for order 3, got 33554432"),
    "point-keys-x-z": (_text(lambda p: p[2].__setitem__("z", p[2].pop("y"))), ValidationError, "point 2: must be an object with exactly 'x' and 'y'"),
    "coordinate-rr-renamed-zz": (_text(_both(_drop(2, "x", "rr"), _set(2, "x", zz=6))), ValidationError, "point 2, coordinate x: unexpected keys ['zz']"),
    "values-all-one-element-lists": (_text(_wrap_all(lambda v: [v])), ValidationError, 'point 0, coordinate x.ll must be a number, got [4]'),
    "values-all-pairs": (_text(_wrap_all(lambda v: [v, v])), ValidationError, 'point 0, coordinate x.ll must be a number, got [4, 4]'),
    "values-all-empty-lists": (_text(_wrap_all(lambda v: [])), ValidationError, 'point 0, coordinate x.ll must be a number, got []'),
    "l-rl-swapped-of-two-points": (_text(_set(1, "y", l=4.6, rl=4.3), n=2), ValidationError, 'point 1, coordinate y: ordering violated: l > rl (4.6 > 4.3)'),
    "every-coordinate-extra-key": (minimal_doc_text({**EXPLICIT_COORD, "extra": 1}), ValidationError, "point 0, coordinate x: unexpected keys ['extra']"),
    "every-coordinate-missing-rr": (minimal_doc_text({k: v for k, v in EXPLICIT_COORD.items() if k != "rr"}), ValidationError, "point 0, coordinate x: missing keys ['rr']"),
    "every-spreads-incomplete": (minimal_doc_text({"c": 5, "h": 0.6, "spreads": {"outer_left": 1}}), ValidationError, "point 0, coordinate x: spreads must have exactly the keys ['outer_left', 'principal_left', 'inner_left', 'inner_right', 'principal_right', 'outer_right']"),
    "weights-count-of-three-points": (_text(n=3, weights=[1.0, 2.0]), ValidationError, 'expected 3 weights, got shape (2,)'),
    "weights-zero-of-three-points": (_text(n=3, weights=[1.0, 0.0, 1.0]), ValidationError, 'weights must all be finite and > 0'),
    "weight-of-401-digits": (_text(n=3, weights=[1, 10**400, 1]), ValidationError, 'weights must be a rectangular array of numbers: a 401-digit integer is too large for a float'),
    "order-four-of-three-points": (_text(n=3, order=4), ValidationError, 'order 4 exceeds control count 3'),
    "alpha-one-of-three-points": (_text(n=3, alpha=1.0), ValidationError, 'alpha must lie in [0, 1), got 1.0'),
    "samples-1-of-three-points": (_text(n=3, samples=1), ValidationError, 'samples must be an integer from 2 to 16777216 for order 3, got 1'),
    "samples-0-of-three-points": (_text(n=3, samples=0), ValidationError, 'samples must be an integer from 2 to 16777216 for order 3, got 0'),
    "samples--3-of-three-points": (_text(n=3, samples=-3), ValidationError, 'samples must be an integer from 2 to 16777216 for order 3, got -3'),
    "rr-of-401-digits": (minimal_doc_text(EXPLICIT_COORD).replace('"rr": 6', '"rr": 1' + "0" * 400, 1), ValidationError, 'point 0, coordinate x.rr must be a number, got a 401-digit integer'),
    "rr-past-the-digit-limit": (minimal_doc_text(EXPLICIT_COORD).replace('"rr": 6', '"rr": 1' + "0" * 5000, 1), ParseError, 'an integer literal has too many digits to convert'),
    "bytes-not-utf-8": (b'{"points": "\x80"}', ParseError, 'not UTF-8 text: invalid start byte'),
    "type-reduction-overflow": (_text(_replace(1, "y", {**EXPLICIT_COORD, "ll": -1e308, "l": -1e308, "rl": 0, "c": 1e308, "lr": 1e308, "r": 1e308, "rr": 1e308}), n=3, order=2, alpha=0.5), ValidationError, 'point 1, coordinate y: the type-reduced interval (inf, 1e+308, inf) and its defuzzified value inf at alpha 0.5 must be finite'),
}


@pytest.mark.parametrize("name", sorted(INVALID_DOCUMENTS))
def test_invalid_documents_raise_the_per_coordinate_parser_error(name):
    text, kind, message = INVALID_DOCUMENTS[name]
    with pytest.raises(kind) as exc:
        parse_document(text)
    assert type(exc.value) is kind
    assert str(exc.value) == message


def _rows(*names):
    """The rows of the document table ``names``, as rows of ``test_boundary.REFUSALS``."""
    return [("parse_document", "text", *INVALID_DOCUMENTS[name]) for name in names]


# The refusal tests of this module are rows of test_boundary.REFUSALS, and
# the seed's document tests each the rows of the table above it checks.
globals().update(refusal_tests({
    **REFUSALS["test_document"],
    "test_validation_error_names_point_and_pair": _rows("l-rl-swapped-of-two-points"),
    "test_unknown_keys_rejected": _rows("every-coordinate-extra-key", "root-unknown-key"),
    "test_missing_coordinate_keys_rejected": _rows("every-coordinate-missing-rr"),
    "test_weight_count_must_match_points": _rows("weights-count-of-three-points"),
    "test_nonpositive_weight_rejected": _rows("weights-zero-of-three-points"),
    "test_order_exceeding_point_count_rejected": _rows("order-four-of-three-points"),
    "test_alpha_out_of_range_rejected": _rows("alpha-one-of-three-points"),
    "test_empty_points_rejected": _rows("points-empty"),
    "test_spread_keys_must_be_complete": _rows("every-spreads-incomplete"),
    "test_samples_below_two_rejected": {str(samples): _rows(f"samples-{samples}-of-three-points") for samples in (1, 0, -3)},
    "test_integer_too_large_for_a_float_is_a_validation_error": _rows("rr-of-401-digits", "weight-of-401-digits"),
    "test_document_bytes_that_are_not_text_are_a_parse_error": _rows("bytes-not-utf-8"),
    "test_integer_literal_past_the_digit_limit_is_a_parse_error": _rows("rr-past-the-digit-limit"),
    "test_document_whose_type_reduction_overflows_is_rejected": _rows("type-reduction-overflow"),
}))


def test_spreads_and_explicit_coordinates_mix_in_one_document():
    payload = json.loads(minimal_doc_text(EXPLICIT_COORD, 4))
    payload["points"][1]["y"] = SPREADS_COORD
    payload["points"][3]["x"] = SPREADS_COORD
    doc = parse_document(json.dumps(payload))
    assert doc.points == parse_document(minimal_doc_text(EXPLICIT_COORD, 4)).points


_SPREAD_NAMES = list(SPREADS_COORD["spreads"])
_any_float = st.floats(allow_nan=True, allow_infinity=True)


def _rarely(draw, odds=9):
    """True once in ``odds + 1`` draws."""
    return draw(st.integers(0, odds)) == odds


def _heights(draw):
    return draw(_any_float if _rarely(draw) else st.floats(0.0, 1.0, exclude_min=True))


@st.composite
def _explicit_coordinates(draw):
    """An explicit-form coordinate, mostly valid: ordered values and h in
    (0, 1], else values in any order or an arbitrary h."""
    values = draw(st.lists(st.floats(-1e6, 1e6), min_size=7, max_size=7))
    if not _rarely(draw):
        values.sort()
    return dict(zip(EXPLICIT_COORD, [*values, _heights(draw)]))


@st.composite
def _spreads_coordinates(draw):
    """A spreads-form coordinate: valid, zero or huge widths, else negative
    or non-finite ones; each side ordered inner <= principal <= outer or
    left as drawn; h in (0, 1] or arbitrary."""
    good = st.one_of(st.floats(0.0, 10.0), st.just(0.0), st.floats(1e300, 1.7e308))
    bad = st.one_of(st.floats(max_value=-5e-324), st.sampled_from([float("nan"), float("inf"), float("-inf")]))
    sides = []
    for _ in range(2):
        side = [draw(bad if _rarely(draw, 11) else good) for _ in range(3)]
        if not _rarely(draw, 3):
            side.sort()
        sides.append(side)
    (inner_l, prin_l, outer_l), (inner_r, prin_r, outer_r) = sides
    widths = [outer_l, prin_l, inner_l, inner_r, prin_r, outer_r]
    c = draw(st.floats(-1e6, 1e6))
    return {"c": c, "h": _heights(draw), "spreads": dict(zip(_SPREAD_NAMES, widths))}


def _scalar_of(coord):
    if "spreads" in coord:
        return NT2FuzzyScalar.from_spreads(coord["c"], [coord["spreads"][k] for k in _SPREAD_NAMES], coord["h"])
    return NT2FuzzyScalar(*coord.values())


@given(
    before=st.lists(st.tuples(_explicit_coordinates(), _explicit_coordinates()), min_size=1, max_size=2),
    middle=st.tuples(_spreads_coordinates(), _spreads_coordinates()),
    after=st.lists(st.tuples(_explicit_coordinates(), _explicit_coordinates()), min_size=1, max_size=2),
)
def test_spreads_form_is_parsed_by_from_spreads(before, middle, after):
    points = (*before, middle, *after)
    text = json.dumps({"points": [{"x": x, "y": y} for x, y in points]})
    expected = []
    for row, coord in enumerate(coord for point in points for coord in point):
        try:
            s = _scalar_of(coord)
        except T2SplineError as exc:
            with pytest.raises(ValidationError) as raised:
                parse_document(text)
            assert str(raised.value) == f"point {row // 2}, coordinate {'xy'[row % 2]}: {exc}"
            return
        expected.append([*s.components(), s.h])
    assert parse_document(text).model.coords.tobytes() == np.array(expected).reshape(-1, 2, 8).tobytes()


def _shuffled(draw, record):
    items = list(record.items())
    draw(st.randoms()).shuffle(items)
    return dict(items)


_NOT_NUMBERS = [True, False, "0.6", None, 10**400, [6]]


def _inject_fault(draw, points) -> bool:
    """Break one point of ``points`` in place: a value that is not a number,
    a missing, extra or renamed key, or a point or coordinate that is not an
    object.  Returns whether the keys and objects kept their layout."""
    i = draw(st.integers(0, len(points) - 1))
    axis = draw(st.sampled_from("xy"))
    coord = points[i][axis]
    kind = draw(st.sampled_from(["value", "missing", "extra", "point-extra", "renamed", "point", "coordinate"]))
    if kind == "value":
        target = coord["spreads"] if "spreads" in coord and draw(st.booleans()) else coord
        target[draw(st.sampled_from(sorted(target)))] = draw(st.sampled_from(_NOT_NUMBERS))
    elif kind == "missing":
        del coord[draw(st.sampled_from(sorted(coord)))]
    elif kind == "extra":
        coord["z"] = 1
    elif kind == "point-extra":
        points[i]["z"] = 1
    elif kind == "renamed":
        coord["z"] = coord.pop(draw(st.sampled_from(sorted(coord))))
    elif kind == "point":
        points[i] = draw(st.sampled_from([[1, 2], 7, None, {"x": coord}]))
    else:
        points[i][axis] = draw(st.sampled_from([[4, 5], "5", None, 5]))
    return kind == "value"


@st.composite
def _point_lists(draw):
    """A 'points' list, in half the cases mixing explicit and spreads-form
    coordinates, keys in any order, in half the cases with one fault; and
    whether every point and coordinate has exactly the explicit layout."""
    mixed = draw(st.booleans())
    points, explicit = [], True
    for _ in range(draw(st.integers(1, 4))):
        point = {}
        for axis in "xy":
            if mixed and draw(st.booleans()):
                coord, explicit = draw(_spreads_coordinates()), False
                coord["spreads"] = _shuffled(draw, coord["spreads"])
            else:
                coord = draw(_explicit_coordinates())
            point[axis] = _shuffled(draw, coord)
        points.append(_shuffled(draw, point))
    if draw(st.booleans()):
        explicit &= _inject_fault(draw, points)
    return points, explicit


def _read_points_by_loop(points):
    """The coordinate array of ``points`` as the per-coordinate loop reads
    it: the rows of :func:`document._scan_points`, checked by ``coords_from_rows``."""
    return coords_from_rows(document._scan_points(points)).reshape(-1, 2, 8)


def _outcome(read, points):
    try:
        return read(points).tobytes()
    except T2SplineError as exc:
        return type(exc), str(exc)


@settings(max_examples=200)
@given(_point_lists())
def test_bulk_gather_reads_points_as_the_loop_does(case):
    points, explicit = case
    assert _outcome(document._read_points, points) == _outcome(_read_points_by_loop, points)
    assert (document._gather_explicit(points) is not None) == explicit


@settings(max_examples=100)
@given(_point_lists(), st.sampled_from([lambda v: [v], lambda v: [v, v], lambda v: []]))
def test_bulk_gather_reads_values_that_are_all_lists_as_the_loop_does(case, wrap):
    """Every value of every explicit-form coordinate a list of one length:
    a rectangular array that is still no coordinate row."""
    points, _ = case
    for point in filter(lambda p: type(p) is dict, points):
        for coord in point.values():
            if type(coord) is dict and "spreads" not in coord:
                coord.update({k: wrap(v) for k, v in coord.items()})
    assert _outcome(document._read_points, points) == _outcome(_read_points_by_loop, points)


_json_values = st.one_of(
    st.integers(-(10**400), 10**400),
    st.integers(-3, 6),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.none(),
    st.text(max_size=4),
    st.lists(st.one_of(st.integers(-3, 3), st.floats(), st.text(max_size=2)), max_size=4),
)


def _refusal(build):
    """The message of the :class:`T2SplineError` ``build()`` raises, None if it returns."""
    try:
        build()
    except T2SplineError as exc:
        return str(exc)
    return None


@given(setting=st.sampled_from(["alpha", "order", "weights"]), value=_json_values)
def test_a_document_setting_is_read_as_the_model_reads_it(setting, value):
    given = [1, value, 1, 1] if setting == "weights" else value
    payload = json.loads(minimal_doc_text(EXPLICIT_COORD, 4))
    text = json.dumps({**payload, setting: given})
    coords = parse_document(minimal_doc_text(EXPLICIT_COORD, 4)).model.coords
    read = json.loads(json.dumps(given))
    assert _refusal(lambda: parse_document(text)) == _refusal(
        lambda: FuzzyCurveModel.with_uniform_knots(coords, **{setting: read})
    )


@pytest.mark.parametrize(
    "settings, message",
    [
        ({"samples": 1, "order": True, "weights": [True], "alpha": None}, "order must be an integer, got True"),
        ({"samples": 1, "weights": [True], "alpha": None}, "samples must be an integer from 2 to 16777216 for order 3, got 1"),
        ({"weights": [True], "alpha": None}, "weights must be a rectangular array of numbers: True is not a number"),
        ({"alpha": None}, "alpha must be a number, got None"),
    ],
    ids=["order", "samples", "weights", "alpha"],
)
def test_document_settings_are_checked_order_and_samples_then_weights_then_alpha(settings, message):
    payload = {**json.loads(minimal_doc_text(EXPLICIT_COORD)), **settings}
    with pytest.raises(ValidationError) as exc:
        parse_document(json.dumps(payload))
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "setting, message",
    [
        ("weights", "weights must be a rectangular array of numbers: None is not a number"),
        ("order", "order must be an integer, got None"),
        ("alpha", "alpha must be a number, got None"),
        ("samples", "samples must be an integer from 2 to 16777216 for order 3, got None"),
    ],
)
def test_a_null_setting_is_refused_not_defaulted(setting, message):
    payload = {**json.loads(minimal_doc_text(EXPLICIT_COORD)), setting: None}
    with pytest.raises(ValidationError) as exc:
        parse_document(json.dumps(payload))
    assert str(exc.value) == message
    settings = {"weights": [1, 1, 3, 1], "order": 3, "alpha": 0.8, "samples": 101, setting: None}
    with pytest.raises(ValidationError) as exc:
        document.ModelDocument(demo_document().model.coords, **settings)
    assert str(exc.value) == message.replace("11184810 for 3", "8388608 for 4")


@pytest.mark.parametrize(
    "encode",
    [str.encode, lambda text: bytearray(text.encode()), lambda text: text.encode("utf-16")],
    ids=["utf-8-bytes", "bytearray", "utf-16-bytes"],
)
def test_document_bytes_are_read_as_json_reads_them(encode):
    text = minimal_doc_text(SPREADS_COORD)
    assert parse_document(encode(text)).model.coords.tobytes() == parse_document(text).model.coords.tobytes()


def test_every_model_is_solved_when_it_is_built():
    """A replaced model is solved at its own alpha.  Both model constructors
    refuse the overflow a document refuses, in its words: the rows
    ``fuzzy-model-overflow`` and ``uniform-knots-overflow`` of ``test_boundary``."""
    model = parse_document(minimal_doc_text(EXPLICIT_COORD)).model
    recut = dataclasses.replace(model, alpha=0.3)
    assert recut.alpha == 0.3
    for got, expected in zip(recut.solved, solve(model.coords, 0.3)):
        assert got.tobytes() == expected.tobytes()


def test_model_is_built_once_until_a_setting_changes():
    doc = parse_document(minimal_doc_text(EXPLICIT_COORD))
    model = doc.to_model()
    assert model is doc.model and doc.to_model() is model
    for order, alpha in [(None, 0.8), (3, None), (3, 0.8), (2, None), (None, 0.3), (2, 0.3)]:
        rebuilt = doc.to_model(order=order, alpha=alpha)
        assert rebuilt is not model
        assert (rebuilt.order, rebuilt.alpha) == (model.order if order is None else order, model.alpha if alpha is None else alpha)
        for got, expected in zip(rebuilt.solved, solve(model.coords, rebuilt.alpha)):
            assert got.tobytes() == expected.tobytes()


_unit_heights = st.floats(0.0, 1.0, exclude_min=True)


@st.composite
def _valid_documents(draw):
    """A valid document payload: explicit-form, spreads-form or mixed
    coordinates, integer weights, and any order, alpha and sample count."""
    form = draw(st.sampled_from(("explicit", "spreads", "mixed")))
    n = draw(st.integers(2, 5))
    points = []
    for _ in range(n):
        point = {}
        for axis in "xy":
            if form == "spreads" or (form == "mixed" and draw(st.booleans())):
                left, right = (sorted(draw(st.lists(st.floats(0.0, 10.0), min_size=3, max_size=3))) for _ in "lr")
                spreads = dict(zip(_SPREAD_NAMES, [*reversed(left), *right]))
                point[axis] = {"c": draw(st.floats(-1e6, 1e6)), "h": draw(_unit_heights), "spreads": spreads}
            else:
                values = sorted(draw(st.lists(st.floats(-1e6, 1e6), min_size=7, max_size=7)))
                point[axis] = dict(zip(EXPLICIT_COORD, [*values, draw(_unit_heights)]))
        points.append(point)
    return {
        "order": draw(st.integers(2, n)),
        "alpha": draw(st.floats(0.0, 1.0, exclude_max=True)),
        "samples": draw(st.integers(2, 500)),
        "weights": draw(st.lists(st.integers(1, 10), min_size=n, max_size=n)),
        "points": points,
    }


@given(_valid_documents())
def test_documents_round_trip_through_json(payload):
    doc = parse_document(json.dumps(payload))
    again = parse_document(document_to_json(doc))
    assert again.model.coords.tobytes() == doc.model.coords.tobytes()
    assert again.model.weights.tolist() == doc.model.weights.tolist() == payload["weights"]
    kept = (doc.model.order, doc.model.alpha, doc.samples)
    assert (again.model.order, again.model.alpha, again.samples) == kept
    assert kept == (payload["order"], payload["alpha"], payload["samples"])


# --- the collector pause -------------------------------------------------------------

@pytest.fixture
def collector():
    """Puts the cyclic collector back as it was; the test switches it."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize(
    "text, error",
    [
        (minimal_doc_text(EXPLICIT_COORD), None),
        ('{"points": [,]}', ParseError),
        (minimal_doc_text({**EXPLICIT_COORD, "h": 2}), ValidationError),
    ],
    ids=["valid", "parse-error", "validation-error"],
)
def test_parse_leaves_the_collector_as_it_found_it(collector, enabled, text, error):
    (gc.enable if enabled else gc.disable)()
    if error is None:
        parse_document(text)
    else:
        with pytest.raises(error):
            parse_document(text)
    assert gc.isenabled() is enabled


def _collections_during(call) -> list[int]:
    """The generation of each collection the enabled collector starts while
    ``call()`` runs."""
    generations = []

    def probe(phase, info):
        if phase == "start":
            generations.append(info["generation"])

    gc.enable()
    gc.callbacks.append(probe)
    try:
        call()
    finally:
        gc.callbacks.remove(probe)
    return generations


def test_no_collection_runs_while_a_document_is_parsed(collector, tmp_path):
    text = minimal_doc_text(EXPLICIT_COORD, n=2000)
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    assert _collections_during(lambda: json.loads(text)) != []  # the tree alone starts the collector
    assert _collections_during(lambda: parse_document(text)) == []
    assert _collections_during(lambda: load_document(path)) == []


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_a_failed_file_read_leaves_the_collector_as_it_found_it(collector, tmp_path, enabled):
    """The pause of ``load_document`` covers opening the file too."""
    (gc.enable if enabled else gc.disable)()
    with pytest.raises(FileNotFoundError):
        load_document(tmp_path / "absent.json")
    assert gc.isenabled() is enabled


# --- the memory of a file read -------------------------------------------------------

def _generated_text(n: int, seed: int = 7) -> str:
    """A valid document of ``n`` points in the explicit form, written as
    ``save_document`` writes it, with distinct values as a real document
    holds (the JSON tree shares no float object)."""
    rng = np.random.default_rng(seed)
    values = np.sort(rng.uniform(-1e3, 1e3, (n, 2, 7)), axis=-1)
    heights = rng.uniform(0.5, 1.0, (n, 2, 1))
    rows = np.concatenate([values, heights], axis=-1).tolist()
    points = [{"x": dict(zip(EXPLICIT_COORD, x)), "y": dict(zip(EXPLICIT_COORD, y))} for x, y in rows]
    return json.dumps({"points": points}, indent=2) + "\n"


def _traced_peak(call) -> int:
    """The most memory ``call()`` allocated at one time, as traced by
    :mod:`tracemalloc`; its result is dropped."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_file_read_holds_at_most_the_text_and_its_json_tree(tmp_path):
    """``load_document`` releases the text it reads once ``json.loads``
    returns, so its peak is the floor of the explicit form: the text plus
    what ``json.loads`` allocates.  Holding the text while the tree is turned
    into arrays peaks about 30 % above that at 1000 points."""
    text = _generated_text(1000)
    path = tmp_path / "large.json"
    path.write_text(text, encoding="utf-8")
    floor = len(text) + _traced_peak(lambda: json.loads(text))
    peak = _traced_peak(lambda: load_document(path))
    assert peak / floor <= 1.05, (peak, floor)
