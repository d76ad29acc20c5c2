"""Reading and writing fuzzy curve model documents (JSON).

Document layout::

    {
      "order": 3,            // optional, default 3
      "alpha": 0.8,          // optional, default 0.8
      "samples": 101,        // optional, default 101, at most 2**25 // points
      "weights": [1, 1, 3, 1],   // optional, default all ones
      "points": [
        {"x": <coordinate>, "y": <coordinate>},
        ...
      ]
    }

A coordinate is either the seven explicit component values plus h::

    {"ll": 4, "l": 4.3, "rl": 4.6, "c": 5, "lr": 5.4, "r": 5.7, "rr": 6, "h": 0.6}

or a crisp value, six named spreads and h::

    {"c": 5, "h": 0.6,
     "spreads": {"outer_left": 1, "principal_left": 0.7, "inner_left": 0.4,
                 "inner_right": 0.4, "principal_right": 0.7, "outer_right": 1}}

The writer always emits the canonical explicit form.  Parse failures raise
:class:`~t2spline.errors.ParseError` with the text position; invariant
failures raise :class:`~t2spline.errors.ValidationError` naming the point.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

import numpy as np

from .bspline import MAX_BASIS_CELLS
from .curves import DEFAULT_SAMPLES, FuzzyCurveModel
from .errors import ParseError, T2SplineError, ValidationError
from .fuzzy import COMPONENT_FIELDS, NT2FuzzyPoint, NT2FuzzyScalar

DEFAULT_ORDER = 3
DEFAULT_ALPHA = 0.8

_EXPLICIT_KEYS = set(COMPONENT_FIELDS) | {"h"}
_SPREAD_KEYS = (
    "outer_left",
    "principal_left",
    "inner_left",
    "inner_right",
    "principal_right",
    "outer_right",
)


@dataclass
class ModelDocument:
    """A parsed, validated model document."""

    points: list[NT2FuzzyPoint]
    weights: list[float]
    order: int
    alpha: float
    samples: int

    def to_model(self) -> FuzzyCurveModel:
        return FuzzyCurveModel.with_uniform_knots(
            self.points, weights=np.array(self.weights), order=self.order, alpha=self.alpha
        )


def _require_number(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{where}: expected a number, got {value!r}")
    return float(value)


def _parse_coordinate(record: Any, where: str) -> NT2FuzzyScalar:
    if not isinstance(record, dict):
        raise ValidationError(f"{where}: coordinate must be an object, got {type(record).__name__}")
    keys = set(record)
    try:
        if "spreads" in keys:
            extra = keys - {"c", "h", "spreads"}
            if extra:
                raise ValidationError(f"{where}: unexpected keys {sorted(extra)} in spreads form")
            missing = {"c", "h"} - keys
            if missing:
                raise ValidationError(f"{where}: missing keys {sorted(missing)}")
            spreads = record["spreads"]
            if not isinstance(spreads, dict):
                raise ValidationError(f"{where}: spreads must be an object")
            if set(spreads) != set(_SPREAD_KEYS):
                raise ValidationError(
                    f"{where}: spreads must have exactly the keys {list(_SPREAD_KEYS)}"
                )
            return NT2FuzzyScalar.from_spreads(
                _require_number(record["c"], where),
                tuple(_require_number(spreads[k], f"{where}.spreads.{k}") for k in _SPREAD_KEYS),
                _require_number(record["h"], where),
            )
        extra = keys - _EXPLICIT_KEYS
        if extra:
            raise ValidationError(f"{where}: unexpected keys {sorted(extra)}")
        missing = _EXPLICIT_KEYS - keys
        if missing:
            raise ValidationError(f"{where}: missing keys {sorted(missing)}")
        return NT2FuzzyScalar(
            **{k: _require_number(record[k], f"{where}.{k}") for k in _EXPLICIT_KEYS}
        )
    except ValidationError:
        raise
    except T2SplineError as exc:
        # Constructor errors (ordering, height, spreads) get the point context.
        raise ValidationError(f"{where}: {exc}") from exc


def parse_document(text: str) -> ModelDocument:
    """Parse JSON text into a validated :class:`ModelDocument`."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=exc.lineno, column=exc.colno) from exc
    except RecursionError as exc:
        raise ParseError("document is nested too deeply") from exc

    if not isinstance(raw, dict):
        raise ValidationError(f"document root must be an object, got {type(raw).__name__}")
    extra = set(raw) - {"points", "weights", "order", "alpha", "samples"}
    if extra:
        raise ValidationError(f"unexpected document keys {sorted(extra)}")
    if "points" not in raw or not isinstance(raw["points"], list) or not raw["points"]:
        raise ValidationError("document must carry a non-empty 'points' list")

    points = []
    for idx, rec in enumerate(raw["points"]):
        if not isinstance(rec, dict) or set(rec) != {"x", "y"}:
            raise ValidationError(f"point {idx}: must be an object with exactly 'x' and 'y'")
        points.append(
            NT2FuzzyPoint(
                _parse_coordinate(rec["x"], f"point {idx}, coordinate x"),
                _parse_coordinate(rec["y"], f"point {idx}, coordinate y"),
            )
        )

    weights_raw = raw.get("weights", [1.0] * len(points))
    if not isinstance(weights_raw, list):
        raise ValidationError("'weights' must be a list of numbers")
    weights = [_require_number(w, f"weights[{i}]") for i, w in enumerate(weights_raw)]

    order_raw = raw.get("order", DEFAULT_ORDER)
    if isinstance(order_raw, bool) or not isinstance(order_raw, int):
        raise ValidationError(f"'order' must be an integer, got {order_raw!r}")
    alpha = _require_number(raw.get("alpha", DEFAULT_ALPHA), "alpha")
    samples_raw = raw.get("samples", DEFAULT_SAMPLES)
    most = MAX_BASIS_CELLS // len(points)
    if isinstance(samples_raw, bool) or not isinstance(samples_raw, int) or not 2 <= samples_raw <= most:
        raise ValidationError(
            f"'samples' must be an integer from 2 to {most} for {len(points)} points, got {samples_raw!r}"
        )

    doc = ModelDocument(points=points, weights=weights, order=order_raw, alpha=alpha, samples=samples_raw)
    try:
        doc.to_model()  # surfaces order/alpha/weight invariants with one code path
    except ValidationError:
        raise
    except T2SplineError as exc:
        raise ValidationError(str(exc)) from exc
    return doc


def load_document(path) -> ModelDocument:
    with open(path, "r", encoding="utf-8") as f:
        try:
            text = f.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8 text: {exc.reason}") from exc
    return parse_document(text)


def load_model(path) -> FuzzyCurveModel:
    """Read a document file and build the fuzzy curve model it describes."""
    return load_document(path).to_model()


def _scalar_to_dict(s: NT2FuzzyScalar) -> dict[str, float]:
    out = {name: getattr(s, name) for name in COMPONENT_FIELDS}
    out["h"] = s.h
    return out


def document_to_json(doc: ModelDocument) -> str:
    """Serialize canonically (explicit coordinate form, fixed key order)."""
    payload = {
        "order": doc.order,
        "alpha": doc.alpha,
        "samples": doc.samples,
        "weights": list(doc.weights),
        "points": [
            {"x": _scalar_to_dict(p.x), "y": _scalar_to_dict(p.y)} for p in doc.points
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def save_document(doc: ModelDocument, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(document_to_json(doc))


def demo_document() -> ModelDocument:
    """The built-in demonstration configuration: four fuzzy control points,
    order 3, weights (1, 1, 3, 1), cut level 0.8.

    The geometry is representative, chosen so the spreads are asymmetric
    (left-heavy), which makes the defuzzified solution curve deviate
    visibly from the crisp curve.
    """
    def fuzzy(cx, cy, left, right, h):
        # left/right are (outer, principal, inner) spreads per side
        spreads = (*left, *reversed(right))
        return NT2FuzzyPoint(
            NT2FuzzyScalar.from_spreads(cx, spreads, h),
            NT2FuzzyScalar.from_spreads(cy, spreads, h),
        )

    points = [
        fuzzy(0.0, 0.0, (0.9, 0.6, 0.3), (0.6, 0.4, 0.2), 0.5),
        fuzzy(2.0, 4.0, (1.2, 0.8, 0.4), (0.5, 0.3, 0.15), 0.6),
        fuzzy(5.0, 5.0, (0.8, 0.5, 0.25), (0.8, 0.5, 0.25), 0.5),
        fuzzy(7.0, 1.0, (0.7, 0.5, 0.2), (1.1, 0.7, 0.35), 0.7),
    ]
    return ModelDocument(
        points=points,
        weights=[1.0, 1.0, 3.0, 1.0],
        order=DEFAULT_ORDER,
        alpha=DEFAULT_ALPHA,
        samples=DEFAULT_SAMPLES,
    )
