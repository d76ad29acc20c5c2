"""Reading and writing fuzzy curve model documents (JSON).

Document layout::

    {
      "order": 3,            // optional, default 3
      "alpha": 0.8,          // optional, default 0.8
      "samples": 101,        // optional, default 101, at most 2**24, fewer from order 5 (bspline.max_samples)
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
:meth:`~t2spline.fuzzy.NT2FuzzyScalar.from_spreads` and the writer always
emits the canonical explicit form.  Parse failures raise
:class:`~t2spline.errors.ParseError` with the text position; invariant
failures raise :class:`~t2spline.errors.ValidationError` naming the point,
the first failure in document order.

A document is its :class:`~t2spline.curves.FuzzyCurveModel` plus a sample
count: :class:`ModelDocument` builds that model once and holds nothing else,
so the points are the model's ``(n, 2, 8)`` coordinate array (components,
then ``h``; see :mod:`t2spline.fuzzy`) and :attr:`ModelDocument.points` is
the fuzzy-point view of it.  The parser validates the coordinates at once,
and the model checks them again when it is built, and solves them: a
document whose type-reduced values overflow is refused there with
:class:`~t2spline.errors.ValidationError`, as the model is.  A document whose
points all have exactly the keys ``x`` and ``y``, whose coordinates all
have exactly the explicit keys and whose values are all numbers is gathered
into that array by C-level maps, without a Python loop over the coordinates.
Any other document is read by a loop that reads each coordinate with
:func:`_read_coordinate`, the only source of the structural error messages.
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
from itertools import chain
from operator import itemgetter
from typing import Any

import numpy as np

from .bspline import DEFAULT_ORDER, as_float, check_samples, clamped_uniform_knots, float_array
from .curves import DEFAULT_ALPHA, DEFAULT_SAMPLES, FuzzyCurveModel
from .errors import ParseError, T2SplineError, ValidationError
from .fuzzy import COORD_FIELDS, SPREAD_FIELDS, NT2FuzzyPoint, NT2FuzzyScalar, coords_from_rows, point_items, points_of
from .output import write_output

_EXPLICIT_KEYS = frozenset(COORD_FIELDS)
_EXPLICIT_VALUES = itemgetter(*COORD_FIELDS)
_POINT_KEYS = frozenset("xy")
_POINT_VALUES = itemgetter("x", "y")


class ModelDocument:
    """A model document: the fuzzy curve model it describes and the sample
    count of its curves.

    ``points`` may be an iterable of :class:`NT2FuzzyPoint` or an ``(n, 2, 8)``
    coordinate array; with ``weights``, ``order`` and ``alpha`` it builds
    :attr:`model` once, on construction, and the model solves itself.  An
    input it refuses raises :class:`ValidationError`; ``order`` and
    ``samples`` are checked first, by
    :func:`~t2spline.bspline.check_samples`, then the model's ``weights``
    and ``alpha``, then the overflow of its solution.
    """

    def __init__(self, points, weights: list[float], order: int, alpha: float, samples: int):
        try:
            points = point_items(points)
            self.samples = check_samples(samples, len(points), order)
            self.model = FuzzyCurveModel(points, weights, order, clamped_uniform_knots(len(points), order), alpha)
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
    """The eight numbers of one coordinate object in the explicit layout of
    :data:`~t2spline.fuzzy.COORD_FIELDS`.

    Raises :class:`ValidationError` for a wrong key, an explicit value that
    :func:`~t2spline.bspline.as_float` refuses or a spreads-form coordinate
    that :meth:`~t2spline.fuzzy.NT2FuzzyScalar.from_spreads`, which reads
    its own values, rejects; the ordering and ``h`` of an explicit-form
    coordinate are checked later, all at once.
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
        if set(spreads) != set(SPREAD_FIELDS):
            raise ValidationError(f"{where}: spreads must have exactly the keys {list(SPREAD_FIELDS)}")
        try:
            s = NT2FuzzyScalar.from_spreads(record["c"], [spreads[k] for k in SPREAD_FIELDS], record["h"])
        except T2SplineError as exc:
            raise ValidationError(f"{where}: {exc}") from exc
        return [*s.components(), s.h]
    extra = keys - _EXPLICIT_KEYS
    if extra:
        raise ValidationError(f"{where}: unexpected keys {sorted(extra)}")
    missing = _EXPLICIT_KEYS - keys
    if missing:
        raise ValidationError(f"{where}: missing keys {sorted(missing)}")
    try:
        return [as_float(record[k], f"{where}.{k}") for k in COORD_FIELDS]
    except T2SplineError as exc:
        raise ValidationError(str(exc)) from exc


def _scan_points(points: list) -> np.ndarray:
    """The ``(m, 8)`` explicit-form rows of the coordinates in document
    order, each read with :func:`_read_coordinate`.  The first error in
    document order is raised: at a wrong key, a value that is not a number or
    a rejected spreads form, the rows before it are checked first."""
    flat = []
    try:
        for idx, rec in enumerate(points):
            if type(rec) is not dict or rec.keys() != _POINT_KEYS:
                raise ValidationError(f"point {idx}: must be an object with exactly 'x' and 'y'")
            for axis in "xy":
                flat.extend(_read_coordinate(rec[axis], f"point {idx}, coordinate {axis}"))
    except ValidationError:
        coords_from_rows(np.array(flat, dtype=float).reshape(-1, len(COORD_FIELDS)))
        raise
    return np.array(flat, dtype=float).reshape(-1, len(COORD_FIELDS))


def _gather_explicit(points: list) -> list | None:
    """The eight explicit-form values of each coordinate, in document order,
    as :func:`_scan_points` reads them; None unless every point is an
    object of exactly the keys 'x' and 'y' and every coordinate an object of
    exactly the explicit keys.  An object of the right length holding every
    key has no other key."""
    if set(map(type, points)) != {dict} or set(map(len, points)) != {2}:
        return None
    try:
        coords = list(chain.from_iterable(map(_POINT_VALUES, points)))
        if set(map(type, coords)) != {dict} or set(map(len, coords)) != {len(COORD_FIELDS)}:
            return None
        return list(chain.from_iterable(map(_EXPLICIT_VALUES, coords)))
    except KeyError:
        return None


def _read_points(points: list) -> np.ndarray:
    """The validated ``(n, 2, 8)`` coordinate array of the 'points' list.

    Of the errors in the document, the first in document order is raised
    (:func:`_scan_points`): a wrong key, a value that is not a number, or a
    coordinate the scalar constructors reject.
    """
    flat = _gather_explicit(points)
    try:
        rows = None if flat is None else float_array(flat, "coordinates")
    except T2SplineError:  # a value that is not a number: the loop finds the first error
        rows = None
    if rows is None or rows.ndim != 1:  # values that are all lists of one length: the loop refuses them
        rows = _scan_points(points)
    return coords_from_rows(rows.reshape(-1, len(COORD_FIELDS))).reshape(-1, 2, len(COORD_FIELDS))


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
    """The UTF-8 text of the file at ``path``."""
    with open(path, "r", encoding="utf-8") as f:
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
