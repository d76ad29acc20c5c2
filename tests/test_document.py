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
