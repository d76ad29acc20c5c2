import json

import numpy as np
import pytest

from t2spline import (
    FuzzyCurveModel,
    ParseError,
    ValidationError,
    demo_document,
    document_to_json,
    load_document,
    load_model,
    parse_document,
    save_document,
)
from t2spline.bspline import MAX_BASIS_CELLS

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
    assert loaded.weights == doc.weights
    assert (loaded.order, loaded.alpha, loaded.samples) == (doc.order, doc.alpha, doc.samples)


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
    assert doc.order == 3
    assert doc.alpha == 0.8
    assert doc.samples == 101
    assert doc.weights == [1.0, 1.0, 1.0]


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_document('{"points": [,]}')
    assert exc.value.line == 1
    assert exc.value.column is not None
    assert "line 1" in str(exc.value)


def test_validation_error_names_point_and_pair():
    coord = dict(EXPLICIT_COORD)
    bad = dict(coord)
    bad["l"], bad["rl"] = 4.6, 4.3
    payload = {"points": [{"x": coord, "y": coord}, {"x": coord, "y": bad}]}
    with pytest.raises(ValidationError) as exc:
        parse_document(json.dumps(payload))
    msg = str(exc.value)
    assert "point 1" in msg
    assert "coordinate y" in msg
    assert "l > rl" in msg


def test_unknown_keys_rejected():
    coord = dict(EXPLICIT_COORD)
    coord["extra"] = 1
    with pytest.raises(ValidationError):
        parse_document(minimal_doc_text(coord))
    with pytest.raises(ValidationError):
        parse_document('{"points": [], "bogus": 1}')


def test_missing_coordinate_keys_rejected():
    coord = dict(EXPLICIT_COORD)
    del coord["rr"]
    with pytest.raises(ValidationError) as exc:
        parse_document(minimal_doc_text(coord))
    assert "rr" in str(exc.value)


def test_weight_count_must_match_points():
    payload = json.loads(minimal_doc_text(EXPLICIT_COORD))
    payload["weights"] = [1.0, 2.0]
    with pytest.raises(ValidationError):
        parse_document(json.dumps(payload))


def test_nonpositive_weight_rejected():
    payload = json.loads(minimal_doc_text(EXPLICIT_COORD))
    payload["weights"] = [1.0, 0.0, 1.0]
    with pytest.raises(ValidationError):
        parse_document(json.dumps(payload))


def test_order_exceeding_point_count_rejected():
    payload = json.loads(minimal_doc_text(EXPLICIT_COORD))
    payload["order"] = 4
    with pytest.raises(ValidationError):
        parse_document(json.dumps(payload))


def test_alpha_out_of_range_rejected():
    payload = json.loads(minimal_doc_text(EXPLICIT_COORD))
    payload["alpha"] = 1.0
    with pytest.raises(ValidationError):
        parse_document(json.dumps(payload))


def test_empty_points_rejected():
    with pytest.raises(ValidationError):
        parse_document('{"points": []}')


def test_serialization_is_deterministic():
    doc = demo_document()
    assert document_to_json(doc) == document_to_json(doc)


def test_spread_keys_must_be_complete():
    coord = {"c": 5, "h": 0.6, "spreads": {"outer_left": 1}}
    with pytest.raises(ValidationError):
        parse_document(minimal_doc_text(coord))


@pytest.mark.parametrize("samples", [1, 0, -3])
def test_samples_below_two_rejected(samples):
    payload = json.loads(minimal_doc_text(EXPLICIT_COORD))
    payload["samples"] = samples
    with pytest.raises(ValidationError):
        parse_document(json.dumps(payload))


@pytest.mark.parametrize("n", [3, 4, 400])
def test_samples_bound_is_the_evaluator_bound(n):
    payload = json.loads(minimal_doc_text(EXPLICIT_COORD, n))
    most = MAX_BASIS_CELLS // n
    payload["samples"] = most
    assert parse_document(json.dumps(payload)).samples == most
    for samples in (most + 1, 10**9):
        payload["samples"] = samples
        with pytest.raises(ValidationError, match=f"from 2 to {most} for {n} points"):
            parse_document(json.dumps(payload))


def test_samples_above_a_million_accepted_for_few_points():
    payload = json.loads(minimal_doc_text(EXPLICIT_COORD, 4))
    payload["samples"] = 2_000_000
    assert parse_document(json.dumps(payload)).samples == 2_000_000


# --- parity of the array parser with the per-coordinate parser -------------------
#
# Each invalid document below, and the exception type and message it raised
# before the points were parsed into one array.  Several documents hold two
# errors, to check that the first in document order is the one reported.

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


def _both(*edits):
    def edit(points):
        for e in edits:
            e(points)
    return edit


INVALID_DOCUMENTS = {
    "malformed-json": '{"points": [,]}',
    "root-list": "[]",
    "root-unknown-key": '{"points": [], "bogus": 1}',
    "points-missing": "{}",
    "points-empty": '{"points": []}',
    "point-not-object": _text(lambda p: p.__setitem__(2, [1, 2])),
    "point-extra-key": _text(lambda p: p[2].update(z=1)),
    "coordinate-not-object": _text(_replace(2, "y", [4, 5])),
    "coordinate-unknown-key": _text(_set(2, "x", extra=1)),
    "coordinate-missing-key": _text(_drop(2, "x", "rr")),
    "value-bool": _text(_set(2, "x", c=True)),
    "value-string": _text(_set(2, "y", h="0.6")),
    "value-null": _text(_set(2, "x", ll=None)),
    "ll-gt-l": _text(_set(0, "x", ll=4.4)),
    "l-gt-rl": _text(_set(0, "x", l=4.7)),
    "rl-gt-c": _text(_set(0, "x", rl=5.1)),
    "c-gt-lr": _text(_set(0, "x", lr=4.8)),
    "lr-gt-r": _text(_set(0, "x", lr=5.8)),
    "r-gt-rr": _text(_set(0, "x", r=6.1)),
    "l-rl-swapped-point-1-y": _text(_set(1, "y", l=4.6, rl=4.3)),
    "h-above-one": _text(_set(0, "x", h=1.5)),
    "h-zero": _text(_set(3, "y", h=0)),
    "h-nan": _text(_set(3, "y", h=float("nan"))),
    "component-infinite": _text(_set(1, "x", rr=float("inf"))),
    "component-nan": _text(_set(1, "x", c=float("nan"))),
    "spreads-incomplete": _text(_replace(1, "x", {"c": 5, "h": 0.6, "spreads": {"outer_left": 1}})),
    "spreads-not-object": _text(_replace(1, "x", {"c": 5, "h": 0.6, "spreads": [1]})),
    "spreads-extra-key": _text(_replace(1, "x", {**SPREADS_COORD, "ll": 1})),
    "spreads-missing-h": _text(_replace(1, "x", {"c": 5, "spreads": SPREADS_COORD["spreads"]})),
    "spreads-c-bool": _text(_spreads(1, "x", c=False)),
    "spreads-width-string": _text(_spreads(1, "x", inner_right="0.4")),
    "spreads-negative": _text(_spreads(1, "y", principal_right=-0.1)),
    "spreads-left-order": _text(_spreads(1, "y", inner_left=0.8)),
    "spreads-right-order": _text(_spreads(1, "y", outer_right=0.5)),
    "spreads-overflow": _text(_spreads(1, "y", c=1e308, outer_right=1e308)),
    "spreads-h-nan": _text(_spreads(4, "x", h=float("nan"))),
    "value-error-1-then-structural-3": _text(_both(_set(1, "y", l=4.7), _drop(3, "x", "c"))),
    "structural-1-then-value-error-3": _text(_both(_drop(1, "y", "c"), _set(3, "x", l=4.7))),
    "value-error-1-then-type-error-2": _text(_both(_set(1, "x", h=2), _set(2, "x", r="5.7"))),
    "type-error-1-then-structural-3": _text(_both(_set(1, "y", rr=[6]), _replace(3, "x", 7))),
    "type-error-x-then-value-error-y": _text(_both(_set(3, "x", lr=None), _set(3, "y", h=-1))),
    "value-error-x-then-type-error-y": _text(_both(_set(3, "x", h=-1), _set(3, "y", lr=None))),
    "spreads-error-2-then-value-error-3": _text(_both(_spreads(2, "y", outer_left=-1), _set(3, "x", h=0))),
    "value-error-2-then-spreads-error-2-y": _text(_both(_set(2, "x", h=0), _spreads(2, "y", outer_left=-1))),
    "weights-not-list": _text(weights=3),
    "weights-count": _text(weights=[1.0, 2.0]),
    "weights-zero": _text(weights=[1.0, 0.0, 1.0, 1.0, 1.0]),
    "weights-bool": _text(weights=[1.0, True, 1.0, 1.0, 1.0]),
    "weights-string": _text(weights=[1.0, 1.0, 1.0, "2", 1.0]),
    "weights-infinite": _text(weights=[1.0, 1.0, float("inf"), 1.0, 1.0]),
    "order-too-high": _text(order=6),
    "order-bool": _text(order=True),
    "order-float": _text(order=3.0),
    "order-one": _text(order=1),
    "alpha-one": _text(alpha=1.0),
    "alpha-string": _text(alpha="0.8"),
    "samples-one": _text(samples=1),
    "samples-float": _text(samples=10.0),
    "samples-over-bound": _text(n=400, samples=2**25),
}


PARENT_ERRORS = {
    'malformed-json': (ParseError, 'line 1, column 13: Expecting value'),
    'root-list': (ValidationError, 'document root must be an object, got list'),
    'root-unknown-key': (ValidationError, "unexpected document keys ['bogus']"),
    'points-missing': (ValidationError, "document must carry a non-empty 'points' list"),
    'points-empty': (ValidationError, "document must carry a non-empty 'points' list"),
    'point-not-object': (ValidationError, "point 2: must be an object with exactly 'x' and 'y'"),
    'point-extra-key': (ValidationError, "point 2: must be an object with exactly 'x' and 'y'"),
    'coordinate-not-object': (ValidationError, 'point 2, coordinate y: coordinate must be an object, got list'),
    'coordinate-unknown-key': (ValidationError, "point 2, coordinate x: unexpected keys ['extra']"),
    'coordinate-missing-key': (ValidationError, "point 2, coordinate x: missing keys ['rr']"),
    'value-bool': (ValidationError, 'point 2, coordinate x.c: expected a number, got True'),
    'value-string': (ValidationError, "point 2, coordinate y.h: expected a number, got '0.6'"),
    'value-null': (ValidationError, 'point 2, coordinate x.ll: expected a number, got None'),
    'll-gt-l': (ValidationError, 'point 0, coordinate x: ordering violated: ll > l (4.4 > 4.3)'),
    'l-gt-rl': (ValidationError, 'point 0, coordinate x: ordering violated: l > rl (4.7 > 4.6)'),
    'rl-gt-c': (ValidationError, 'point 0, coordinate x: ordering violated: rl > c (5.1 > 5.0)'),
    'c-gt-lr': (ValidationError, 'point 0, coordinate x: ordering violated: c > lr (5.0 > 4.8)'),
    'lr-gt-r': (ValidationError, 'point 0, coordinate x: ordering violated: lr > r (5.8 > 5.7)'),
    'r-gt-rr': (ValidationError, 'point 0, coordinate x: ordering violated: r > rr (6.1 > 6.0)'),
    'l-rl-swapped-point-1-y': (ValidationError, 'point 1, coordinate y: ordering violated: l > rl (4.6 > 4.3)'),
    'h-above-one': (ValidationError, 'point 0, coordinate x: h must lie in (0, 1], got 1.5'),
    'h-zero': (ValidationError, 'point 3, coordinate y: h must lie in (0, 1], got 0.0'),
    'h-nan': (ValidationError, 'point 3, coordinate y: h must lie in (0, 1], got nan'),
    'component-infinite': (ValidationError, 'point 1, coordinate x: components must be finite, got [4.0, 4.3, 4.6, 5.0, 5.4, 5.7, inf]'),
    'component-nan': (ValidationError, 'point 1, coordinate x: components must be finite, got [4.0, 4.3, 4.6, nan, 5.4, 5.7, 6.0]'),
    'spreads-incomplete': (ValidationError, "point 1, coordinate x: spreads must have exactly the keys ['outer_left', 'principal_left', 'inner_left', 'inner_right', 'principal_right', 'outer_right']"),
    'spreads-not-object': (ValidationError, 'point 1, coordinate x: spreads must be an object'),
    'spreads-extra-key': (ValidationError, "point 1, coordinate x: unexpected keys ['ll'] in spreads form"),
    'spreads-missing-h': (ValidationError, "point 1, coordinate x: missing keys ['h']"),
    'spreads-c-bool': (ValidationError, 'point 1, coordinate x: expected a number, got False'),
    'spreads-width-string': (ValidationError, "point 1, coordinate x.spreads.inner_right: expected a number, got '0.4'"),
    'spreads-negative': (ValidationError, 'point 1, coordinate y: spread principal_right must be >= 0, got -0.1'),
    'spreads-left-order': (ValidationError, 'point 1, coordinate y: left spreads must satisfy inner <= principal <= outer, got (0.8, 0.7, 1.0)'),
    'spreads-right-order': (ValidationError, 'point 1, coordinate y: right spreads must satisfy inner <= principal <= outer, got (0.4, 0.7, 0.5)'),
    'spreads-overflow': (ValidationError, 'point 1, coordinate y: components must be finite, got [1e+308, 1e+308, 1e+308, 1e+308, 1e+308, 1e+308, inf]'),
    'spreads-h-nan': (ValidationError, 'point 4, coordinate x: h must lie in (0, 1], got nan'),
    'value-error-1-then-structural-3': (ValidationError, 'point 1, coordinate y: ordering violated: l > rl (4.7 > 4.6)'),
    'structural-1-then-value-error-3': (ValidationError, "point 1, coordinate y: missing keys ['c']"),
    'value-error-1-then-type-error-2': (ValidationError, 'point 1, coordinate x: h must lie in (0, 1], got 2.0'),
    'type-error-1-then-structural-3': (ValidationError, 'point 1, coordinate y.rr: expected a number, got [6]'),
    'type-error-x-then-value-error-y': (ValidationError, 'point 3, coordinate x.lr: expected a number, got None'),
    'value-error-x-then-type-error-y': (ValidationError, 'point 3, coordinate x: h must lie in (0, 1], got -1.0'),
    'spreads-error-2-then-value-error-3': (ValidationError, 'point 2, coordinate y: spread outer_left must be >= 0, got -1.0'),
    'value-error-2-then-spreads-error-2-y': (ValidationError, 'point 2, coordinate x: h must lie in (0, 1], got 0.0'),
    'weights-not-list': (ValidationError, "'weights' must be a list of numbers"),
    'weights-count': (ValidationError, 'expected 5 weights, got shape (2,)'),
    'weights-zero': (ValidationError, 'weights must all be finite and > 0'),
    'weights-bool': (ValidationError, 'weights[1]: expected a number, got True'),
    'weights-string': (ValidationError, "weights[3]: expected a number, got '2'"),
    'weights-infinite': (ValidationError, 'weights must all be finite and > 0'),
    'order-too-high': (ValidationError, 'order 6 exceeds control count 5'),
    'order-bool': (ValidationError, "'order' must be an integer, got True"),
    'order-float': (ValidationError, "'order' must be an integer, got 3.0"),
    'order-one': (ValidationError, 'order must be at least 2, got 1'),
    'alpha-one': (ValidationError, 'alpha must lie in [0, 1), got 1.0'),
    'alpha-string': (ValidationError, "alpha: expected a number, got '0.8'"),
    'samples-one': (ValidationError, "'samples' must be an integer from 2 to 6710886 for 5 points, got 1"),
    'samples-float': (ValidationError, "'samples' must be an integer from 2 to 6710886 for 5 points, got 10.0"),
    'samples-over-bound': (ValidationError, "'samples' must be an integer from 2 to 83886 for 400 points, got 33554432"),
}


@pytest.mark.parametrize("name", sorted(INVALID_DOCUMENTS))
def test_invalid_documents_raise_the_per_coordinate_parser_error(name):
    kind, message = PARENT_ERRORS[name]
    with pytest.raises(kind) as exc:
        parse_document(INVALID_DOCUMENTS[name])
    assert type(exc.value) is kind
    assert str(exc.value) == message


def test_spreads_and_explicit_coordinates_mix_in_one_document():
    payload = json.loads(minimal_doc_text(EXPLICIT_COORD, 4))
    payload["points"][1]["y"] = SPREADS_COORD
    payload["points"][3]["x"] = SPREADS_COORD
    doc = parse_document(json.dumps(payload))
    assert doc.points == parse_document(minimal_doc_text(EXPLICIT_COORD, 4)).points


def test_integer_too_large_for_a_float_is_a_validation_error():
    text = minimal_doc_text(EXPLICIT_COORD).replace('"rr": 6', '"rr": 1' + "0" * 400, 1)
    with pytest.raises(ValidationError, match=r"^point 0, coordinate x.rr: a 401-digit integer is too large"):
        parse_document(text)
    payload = json.loads(minimal_doc_text(EXPLICIT_COORD))
    payload["weights"] = [1, 10**400, 1]
    with pytest.raises(ValidationError, match=r"^weights\[1\]: a 401-digit integer is too large"):
        parse_document(json.dumps(payload))


def test_integer_literal_past_the_digit_limit_is_a_parse_error():
    text = minimal_doc_text(EXPLICIT_COORD).replace('"rr": 6', '"rr": 1' + "0" * 5000, 1)
    with pytest.raises(ParseError, match="too many digits"):
        parse_document(text)


def test_document_whose_type_reduction_overflows_is_rejected():
    payload = json.loads(minimal_doc_text(EXPLICIT_COORD))
    payload.update(order=2, alpha=0.5)
    wide = {"ll": -1e308, "l": -1e308, "rl": 0, "c": 1e308, "lr": 1e308, "r": 1e308, "rr": 1e308, "h": 0.6}
    payload["points"][1]["y"] = wide
    with pytest.raises(ValidationError, match=r"^point 1, coordinate y: the type-reduced interval"):
        parse_document(json.dumps(payload))


def test_model_is_built_once_until_a_setting_changes():
    doc = parse_document(minimal_doc_text(EXPLICIT_COORD))
    model = doc.to_model()
    assert doc.to_model() is model
    doc.alpha = 0.3
    assert doc.to_model() is not model and doc.to_model().alpha == 0.3
