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
failures raise :class:`~t2spline.errors.ValidationError` naming the point,
the first failure in document order.

The points are stored as one ``(n, 2, 8)`` coordinate array (components,
then ``h``; see :mod:`t2spline.fuzzy`).  The parser reads the JSON objects in
one pass and validates the array at once; :attr:`ModelDocument.points` is
the fuzzy-point view of it.
"""

from __future__ import annotations

import json
from operator import itemgetter
from typing import Any

import numpy as np

from .bspline import MAX_BASIS_CELLS
from .curves import DEFAULT_SAMPLES, FuzzyCurveModel
from .errors import ParseError, T2SplineError, ValidationError
from .fuzzy import COORD_FIELDS, NT2FuzzyPoint, NT2FuzzyScalar, as_coords, coords_from_rows, points_of
from .pipeline import solve

DEFAULT_ORDER = 3
DEFAULT_ALPHA = 0.8

_EXPLICIT_KEYS = frozenset(COORD_FIELDS)
_EXPLICIT_VALUES = itemgetter(*COORD_FIELDS)
_POINT_KEYS = frozenset("xy")
_NUMBER_TYPES = {int, float}
_SPREAD_KEYS = (
    "outer_left",
    "principal_left",
    "inner_left",
    "inner_right",
    "principal_right",
    "outer_right",
)


class ModelDocument:
    """A model document: fuzzy control points, weights, order, cut level and
    sample count.

    ``points`` may be a sequence of :class:`NT2FuzzyPoint` or an ``(n, 2, 8)``
    coordinate array; it is stored as the read-only array :attr:`coords`.
    """

    def __init__(self, points, weights: list[float], order: int, alpha: float, samples: int):
        self._coords = as_coords(points)
        self.weights = weights
        self.order = order
        self.alpha = alpha
        self.samples = samples
        self._model: FuzzyCurveModel | None = None

    @property
    def coords(self) -> np.ndarray:
        return self._coords

    @property
    def points(self) -> list[NT2FuzzyPoint]:
        """The control points as fuzzy points, built on each access."""
        return points_of(self._coords)

    def to_model(self) -> FuzzyCurveModel:
        """The fuzzy curve model of the document.  It is built once and again
        only after ``order``, ``alpha`` or ``weights`` changed."""
        model = self._model
        if (
            model is None
            or (model.order, model.alpha) != (self.order, self.alpha)
            or not np.array_equal(model.weights, self.weights)
        ):
            model = self._model = FuzzyCurveModel.with_uniform_knots(
                self._coords, weights=np.array(self.weights), order=self.order, alpha=self.alpha
            )
        return model


def _require_number(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{where}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValidationError(f"{where}: a {len(str(abs(value)))}-digit integer is too large for a float") from None


def _floats(values: list) -> np.ndarray | None:
    """``values`` as a float array, or None unless every one is a JSON
    number (not a bool) within the float range."""
    if not set(map(type, values)) <= _NUMBER_TYPES:
        return None
    try:
        return np.array(values, dtype=float)
    except OverflowError:
        return None


def _read_coordinate(record: Any, where: str) -> tuple[list[float], bool]:
    """The eight numbers of one coordinate object and whether it is in the
    spreads form, in the row layouts of :func:`~t2spline.fuzzy.coords_from_rows`.

    Raises :class:`ValidationError` for a wrong key or a value that is not a
    number; the values themselves are checked later, all at once.
    """
    if not isinstance(record, dict):
        raise ValidationError(f"{where}: coordinate must be an object, got {type(record).__name__}")
    keys = set(record)
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
            raise ValidationError(f"{where}: spreads must have exactly the keys {list(_SPREAD_KEYS)}")
        c = _require_number(record["c"], where)
        widths = [_require_number(spreads[k], f"{where}.spreads.{k}") for k in _SPREAD_KEYS]
        h = _require_number(record["h"], where)
        return [*widths[:3], c, *widths[3:], h], True
    extra = keys - _EXPLICIT_KEYS
    if extra:
        raise ValidationError(f"{where}: unexpected keys {sorted(extra)}")
    missing = _EXPLICIT_KEYS - keys
    if missing:
        raise ValidationError(f"{where}: missing keys {sorted(missing)}")
    return [_require_number(record[k], f"{where}.{k}") for k in COORD_FIELDS], False


def _where(row: int) -> str:
    return f"point {row // 2}, coordinate {'xy'[row % 2]}"


def _scan_points(points: list, flat: list, spread_rows: list[int]) -> ValidationError | None:
    """Append the eight numbers of each coordinate, in document order, to
    ``flat`` and the row index of each spreads-form coordinate to
    ``spread_rows``.  Stops at the first wrong key or, in the spreads form,
    the first value that is not a number, and returns that error."""
    for idx, rec in enumerate(points):
        if type(rec) is not dict or rec.keys() != _POINT_KEYS:
            return ValidationError(f"point {idx}: must be an object with exactly 'x' and 'y'")
        for coord in (rec["x"], rec["y"]):
            if type(coord) is dict and coord.keys() == _EXPLICIT_KEYS:
                flat.extend(_EXPLICIT_VALUES(coord))
                continue
            row = len(flat) // 8
            try:
                values, spreads_form = _read_coordinate(coord, _where(row))
            except ValidationError as exc:
                return exc
            if spreads_form:
                spread_rows.append(row)
            flat.extend(values)
    return None


def _read_points(points: list) -> np.ndarray:
    """The validated ``(n, 2, 8)`` coordinate array of the 'points' list.

    Of the errors in the document, the first in document order is raised:
    a wrong key, a value that is not a number, or a coordinate the scalar
    constructors reject.
    """
    flat: list = []
    spread_rows: list[int] = []
    error = _scan_points(points, flat, spread_rows)
    rows = _floats(flat)
    if rows is None:
        # Some explicit-form coordinate holds a non-number: re-read the first
        # such one for its error and validate the coordinates before it.
        bad = next(k for k in range(len(flat) // 8) if _floats(flat[8 * k : 8 * k + 8]) is None)
        try:
            _read_coordinate(points[bad // 2]["xy"[bad % 2]], _where(bad))
        except ValidationError as exc:
            error = exc
        rows = np.array(flat[: 8 * bad], dtype=float)
    rows = rows.reshape(-1, len(COORD_FIELDS))
    spreads = np.zeros(len(rows), dtype=bool)
    spread_at = np.array(spread_rows, dtype=np.intp)
    spreads[spread_at[spread_at < len(rows)]] = True
    comps = coords_from_rows(rows, spreads)
    if error is not None:
        raise error
    return comps.reshape(-1, 2, len(COORD_FIELDS))


def parse_document(text: str) -> ModelDocument:
    """Parse JSON text into a validated :class:`ModelDocument`.

    Validation builds the document's model and runs the fuzzy pipeline at
    its cut level, so a document whose type-reduced values overflow is
    rejected.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=exc.lineno, column=exc.colno) from exc
    except RecursionError as exc:
        raise ParseError("document is nested too deeply") from exc
    except ValueError as exc:  # int() refuses literals past sys.get_int_max_str_digits()
        raise ParseError("an integer literal has too many digits to convert") from exc

    if not isinstance(raw, dict):
        raise ValidationError(f"document root must be an object, got {type(raw).__name__}")
    extra = set(raw) - {"points", "weights", "order", "alpha", "samples"}
    if extra:
        raise ValidationError(f"unexpected document keys {sorted(extra)}")
    if "points" not in raw or not isinstance(raw["points"], list) or not raw["points"]:
        raise ValidationError("document must carry a non-empty 'points' list")

    coords = _read_points(raw.pop("points"))  # the point objects are freed here
    n = len(coords)

    weights_raw = raw.get("weights", [1.0] * n)
    if not isinstance(weights_raw, list):
        raise ValidationError("'weights' must be a list of numbers")
    weights = _floats(weights_raw)
    if weights is None:
        for i, w in enumerate(weights_raw):
            _require_number(w, f"weights[{i}]")

    order_raw = raw.get("order", DEFAULT_ORDER)
    if isinstance(order_raw, bool) or not isinstance(order_raw, int):
        raise ValidationError(f"'order' must be an integer, got {order_raw!r}")
    alpha = _require_number(raw.get("alpha", DEFAULT_ALPHA), "alpha")
    samples_raw = raw.get("samples", DEFAULT_SAMPLES)
    most = MAX_BASIS_CELLS // n
    if isinstance(samples_raw, bool) or not isinstance(samples_raw, int) or not 2 <= samples_raw <= most:
        raise ValidationError(
            f"'samples' must be an integer from 2 to {most} for {n} points, got {samples_raw!r}"
        )

    doc = ModelDocument(coords, weights=weights.tolist(), order=order_raw, alpha=alpha, samples=samples_raw)
    try:
        model = doc.to_model()  # surfaces order/alpha/weight invariants with one code path
        solve(model.coords, model.alpha)
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


def document_to_json(doc: ModelDocument) -> str:
    """Serialize canonically (explicit coordinate form, fixed key order)."""
    payload = {
        "order": doc.order,
        "alpha": doc.alpha,
        "samples": doc.samples,
        "weights": list(doc.weights),
        "points": [
            {"x": dict(zip(COORD_FIELDS, x)), "y": dict(zip(COORD_FIELDS, y))} for x, y in doc.coords.tolist()
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
