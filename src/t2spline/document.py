"""Reading and writing fuzzy curve model documents (JSON).

Document layout::

    {
      "order": 3,            // optional, default 3
      "alpha": 0.8,          // optional, default 0.8
      "samples": 101,        // optional, default 101, at most 2**24, fewer from order 5 (bspline.check_samples)
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

The parser converts the spreads form with
:func:`~t2spline.fuzzy.row_from_spreads`, which with
:func:`~t2spline.fuzzy.row_error` states every rule of a coordinate, and the
writer always emits the canonical explicit form.  Parse failures raise
:class:`~t2spline.errors.ParseError` with the text position; invariant
failures raise :class:`~t2spline.errors.ValidationError` naming the point
(:func:`~t2spline.fuzzy.coordinate_name`), the first failure in document order.

A document is its :class:`~t2spline.curves.FuzzyCurveModel` plus a sample
count: :class:`ModelDocument` builds that model once and holds nothing else,
so the points are the model's ``(n, 2, 8)`` coordinate array (components,
then ``h``; see :mod:`t2spline.fuzzy`) and :attr:`ModelDocument.points` is
the fuzzy-point view of it.  The parser validates the coordinates at once,
and the model checks them again when it is built, and solves them: a
document whose type-reduced values overflow is refused there with
:class:`~t2spline.errors.ValidationError`, as the model is.  One pass over
the points takes the values of each explicit-form coordinate as they are and
reads any other coordinate with :func:`_read_coordinate`, the source of every
coordinate's structural error message; the values are then converted at once.
The parser checks structure only: it reads numbers with the rules of
:mod:`t2spline.bspline`, and hands the settings to :class:`ModelDocument`.

The parse runs with the cyclic garbage collector paused (:func:`_gc_paused`):
the JSON tree holds no reference cycles and reference counting frees it, so
a collector pass over its tens of thousands of objects is wasted work.
:func:`load_document` releases the text it reads as soon as it is decoded,
so a file read holds at most the text and its JSON tree at once.
"""

from __future__ import annotations

import gc
import json
from contextlib import contextmanager
from operator import itemgetter
from typing import TYPE_CHECKING, Any

import numpy as np

from .bspline import DEFAULT_ORDER, as_float, check_samples, clamped_uniform_knots, float_array
from .curves import DEFAULT_ALPHA, DEFAULT_SAMPLES, FuzzyCurveModel
from .errors import ParseError, T2SplineError, ValidationError
from .fuzzy import COORD_FIELDS, SPREAD_FIELDS, coordinate_name, coords_from_rows, point_items, points_of, row_from_spreads
from .output import write_output

if TYPE_CHECKING:
    from ._records import NT2FuzzyPoint

_EXPLICIT_KEYS = frozenset(COORD_FIELDS)
_EXPLICIT_VALUES = itemgetter(*COORD_FIELDS)
_WIDTH = len(COORD_FIELDS)
_POINT_VALUES = itemgetter("x", "y")


class ModelDocument:
    """A model document: the fuzzy curve model it describes and the sample
    count of its curves.

    ``points`` may be an iterable of :class:`NT2FuzzyPoint` or an ``(n, 2, 8)``
    coordinate array; with ``weights``, ``order`` and ``alpha`` it builds
    :attr:`model` once, on construction, and the model solves itself.  An
    input it refuses raises :class:`ValidationError`: ``order`` first, by
    the uniform knots, then ``samples`` over the knots' checked order
    (:func:`~t2spline.bspline.check_samples`), then the model's coordinates,
    ``weights`` and ``alpha``, then the overflow of its solution.
    """

    def __init__(self, points, weights: list[float], order: int, alpha: float, samples: int):
        try:
            points = point_items(points)
            knots = clamped_uniform_knots(len(points), order)
            self.samples = check_samples(samples, knots.order)
            self.model = FuzzyCurveModel(points, weights, order, knots, alpha)
        except T2SplineError as exc:
            raise ValidationError(str(exc)) from exc

    @property
    def points(self) -> list[NT2FuzzyPoint]:
        """The control points as fuzzy points, built on each access."""
        return points_of(self.model.coords)

    def to_model(self, order: int | None = None, alpha: float | None = None) -> FuzzyCurveModel:
        """The document's model when ``order`` and ``alpha`` are both None.
        Otherwise a new model over the same coordinates and weights, with
        uniform knots, the given settings and the model's in place of a
        None; building it checks both settings and solves it at its
        ``alpha``, refusing overflow with :class:`ValidationError`."""
        model = self.model
        if order is None and alpha is None:
            return model
        order = model.order if order is None else order
        alpha = model.alpha if alpha is None else alpha
        return FuzzyCurveModel.with_uniform_knots(model.coords, model.weights, order, alpha)


def _read_coordinate(record: Any, where: str) -> list[float]:
    """The eight numbers, in the explicit layout of
    :data:`~t2spline.fuzzy.COORD_FIELDS`, of a spreads-form coordinate
    object, converted by :func:`~t2spline.fuzzy.row_from_spreads`, which
    reads its own values.  Raises :class:`ValidationError` for a record
    that is not an object, a wrong key or a rejected spreads form;
    :func:`_read_points` reads an explicit-form coordinate itself.
    """
    if not isinstance(record, dict):
        raise ValidationError(f"{where}: coordinate must be an object, got {type(record).__name__}")
    keys = set(record)
    if "spreads" not in keys:
        extra = keys - _EXPLICIT_KEYS
        if extra:
            raise ValidationError(f"{where}: unexpected keys {sorted(extra)}")
        raise ValidationError(f"{where}: missing keys {sorted(_EXPLICIT_KEYS - keys)}")
    extra = keys - {"c", "h", "spreads"}
    if extra:
        raise ValidationError(f"{where}: unexpected keys {sorted(extra)} in spreads form")
    missing = {"c", "h"} - keys
    if missing:
        raise ValidationError(f"{where}: missing keys {sorted(missing)}")
    spreads = record["spreads"]
    if not isinstance(spreads, dict):
        raise ValidationError(f"{where}: spreads must be an object")
    if set(spreads) != set(SPREAD_FIELDS):
        raise ValidationError(f"{where}: spreads must have exactly the keys {list(SPREAD_FIELDS)}")
    try:
        return row_from_spreads(record["c"], [spreads[k] for k in SPREAD_FIELDS], record["h"])
    except T2SplineError as exc:
        raise ValidationError(f"{where}: {exc}") from exc


def _read_points(points: list) -> np.ndarray:
    """The validated ``(n, 2, 8)`` coordinate array of the 'points' list.

    One pass gathers the eight values of each coordinate in document order:
    those of an object of eight keys that all resolve as they are, any other
    coordinate's by :func:`_read_coordinate`.  The values are then read and
    checked at once.  Of the errors in the document, the first in document
    order is raised: at a wrong key, a rejected spreads form or a value that
    is not a number, the coordinates before it are checked first.
    """
    values, structural = [], None
    try:
        for idx, point in enumerate(points):
            try:
                coords = _POINT_VALUES(point) if type(point) is dict and len(point) == 2 else None
            except KeyError:
                coords = None
            if coords is None:
                raise ValidationError(f"point {idx}: must be an object with exactly 'x' and 'y'")
            for coord in coords:
                if type(coord) is dict and len(coord) == _WIDTH:
                    try:
                        values += _EXPLICIT_VALUES(coord)
                        continue
                    except KeyError:  # not the explicit keys
                        pass
                values += _read_coordinate(coord, coordinate_name(len(values) // _WIDTH))
    except ValidationError as exc:
        structural = exc
    try:
        rows = float_array(values, "coordinates")
    except T2SplineError:
        rows = None
    if rows is None or rows.ndim != 1:  # some value is not a number: the first one is raised
        for i, value in enumerate(values):
            row, k = divmod(i, _WIDTH)
            try:
                as_float(value, f"{coordinate_name(row)}.{COORD_FIELDS[k]}")
            except T2SplineError as exc:
                coords_from_rows(float_array(values[: i - k], "coordinates").reshape(-1, _WIDTH))
                raise ValidationError(str(exc)) from exc
    rows = coords_from_rows(rows.reshape(-1, _WIDTH))
    if structural is not None:
        raise structural
    return rows.reshape(-1, 2, _WIDTH)


@contextmanager
def _gc_paused():
    """Disable the cyclic garbage collector for the ``with`` body, then
    enable it again, on every exit, if it was enabled on entry.

    The switch is process-wide: cyclic garbage made by another thread waits
    until the body ends.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _json_tree(text) -> Any:
    """The JSON tree of the document text ``text`` (str, bytes or bytearray,
    as :func:`json.loads` reads it); raises :class:`ParseError` otherwise.

    A caller that owns the text passes it as a temporary, ``_json_tree(f())``,
    so that nothing holds the text once this returns: on Python 3.10 the
    caller's stack keeps an argument alive until the call returns, so the
    text cannot be released inside this function.
    """
    if not isinstance(text, (str, bytes, bytearray)):
        raise ParseError(f"a document must be str, bytes or bytearray text, got {type(text).__name__}")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=exc.lineno, column=exc.colno) from exc
    except RecursionError as exc:
        raise ParseError("document is nested too deeply") from exc
    except UnicodeDecodeError as exc:  # bytes in none of the encodings json reads
        raise ParseError(f"not {exc.encoding.upper()} text: {exc.reason}") from exc
    except ValueError as exc:  # int() refuses literals past sys.get_int_max_str_digits()
        raise ParseError("an integer literal has too many digits to convert") from exc


def _document_of(raw: Any) -> ModelDocument:
    """The validated :class:`ModelDocument` of a JSON tree."""
    if not isinstance(raw, dict):
        raise ValidationError(f"document root must be an object, got {type(raw).__name__}")
    extra = set(raw) - {"points", "weights", "order", "alpha", "samples"}
    if extra:
        raise ValidationError(f"unexpected document keys {sorted(extra)}")
    if "points" not in raw or not isinstance(raw["points"], list) or not raw["points"]:
        raise ValidationError("document must carry a non-empty 'points' list")

    coords = _read_points(raw.pop("points"))  # the point objects are freed here
    defaults = {"weights": [1.0] * len(coords), "order": DEFAULT_ORDER, "alpha": DEFAULT_ALPHA, "samples": DEFAULT_SAMPLES}
    return ModelDocument(coords, **(defaults | raw))  # the model checks each setting


@_gc_paused()
def parse_document(text: str) -> ModelDocument:
    """Parse JSON text into a validated :class:`ModelDocument`.

    Validation builds the document's model, which is solved on
    construction, so a document whose type-reduced values overflow is
    refused with :class:`ValidationError`, as the model is; the model keeps
    that solution as :attr:`~t2spline.curves.FuzzyCurveModel.solved`.  Text
    that is not a str, bytes or bytearray raises :class:`ParseError`.  The
    whole parse runs under :func:`_gc_paused`.
    """
    return _document_of(_json_tree(text))


def _read_text(path) -> str:
    """The UTF-8 text of the file at ``path``, after its byte-order mark if it has one."""
    with open(path, "r", encoding="utf-8-sig") as f:
        try:
            return f.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8 text: {exc.reason}") from exc


@_gc_paused()
def load_document(path) -> ModelDocument:
    """Read a document file and parse it as :func:`parse_document` does.

    The text is released as soon as it is decoded, so the read holds at
    most the text and its JSON tree at once, not the text beside the
    arrays built from the tree.
    """
    return _document_of(_json_tree(_read_text(path)))


def load_model(path) -> FuzzyCurveModel:
    """Read a document file and build the fuzzy curve model it describes."""
    return load_document(path).to_model()


def document_to_json(doc: ModelDocument) -> str:
    """Serialize canonically (explicit coordinate form, fixed key order)."""
    model = doc.model
    payload = {
        "order": model.order,
        "alpha": model.alpha,
        "samples": doc.samples,
        "weights": model.weights.tolist(),
        "points": [
            {"x": dict(zip(COORD_FIELDS, x)), "y": dict(zip(COORD_FIELDS, y))} for x, y in model.coords.tolist()
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def save_document(doc: ModelDocument, path) -> None:
    """Write the :func:`document_to_json` text of ``doc`` to a path or an
    open text stream, through :func:`~t2spline.output.write_output`."""
    text = document_to_json(doc)
    write_output(path, lambda f: f.write(text))


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
        return [row_from_spreads(cx, spreads, h), row_from_spreads(cy, spreads, h)]

    points = np.array([
        fuzzy(0.0, 0.0, (0.9, 0.6, 0.3), (0.6, 0.4, 0.2), 0.5),
        fuzzy(2.0, 4.0, (1.2, 0.8, 0.4), (0.5, 0.3, 0.15), 0.6),
        fuzzy(5.0, 5.0, (0.8, 0.5, 0.25), (0.8, 0.5, 0.25), 0.5),
        fuzzy(7.0, 1.0, (0.7, 0.5, 0.2), (1.1, 0.7, 0.35), 0.7),
    ])
    return ModelDocument(
        points=points,
        weights=[1.0, 1.0, 3.0, 1.0],
        order=DEFAULT_ORDER,
        alpha=DEFAULT_ALPHA,
        samples=DEFAULT_SAMPLES,
    )
