"""Normal type-2 triangular fuzzy scalars and planar fuzzy points.

A fuzzy scalar packs seven ordered abscissae around a crisp value ``c``
together with the height ``h`` of its lower membership function.  The upper
membership function (UMF) is the triangle on the outer support ``[ll, rr]``
with apex ``(c, 1)``; the lower membership function (LMF) is the triangle on
the inner support ``[rl, lr]`` with apex ``(c, h)``.  The region between the
two triangles is the footprint of uncertainty.  A scalar is *normal* when
``h < 1`` while the UMF peaks at exactly 1.

The rules of a coordinate, a row of eight floats, are stated here once:
:func:`row_error` (finite components, ``0 < h <= 1``, components in order),
:func:`row_from_spreads` and :func:`coordinate_name`.  The scalar and point
classes, :class:`NT2FuzzyScalar` and :class:`NT2FuzzyPoint`, are views of
such rows in :mod:`t2spline._records`: no command builds them, so they load
on first use, also as names of this module (:func:`~t2spline.bspline.deferred`).

Many coordinates are held as one float array whose last axis is
:data:`COORD_FIELDS` (the seven components, then ``h``); a model's controls
are an ``(n, 2, 8)`` array.  Other modules index that axis only by the
positions :data:`COMPONENTS` (the seven), :data:`C`, :data:`RL`, :data:`LR`
and :data:`H`.  :func:`coords_from_rows` validates such an array by the
row rule, and :func:`points_of` builds the scalar view of it.  The array
holds the explicit form only; a coordinate given as ``c``, six spreads and
``h`` is converted by :func:`row_from_spreads` alone.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .bspline import as_float, deferred, float_array, read_only_copy, shown
from .errors import HeightOutOfRange, NegativeSpread, OrderingViolation, SpreadOrderViolation, T2SplineError, ValidationError

if TYPE_CHECKING:
    from ._records import NT2FuzzyPoint

#: Component names in their guaranteed order (outer-left to outer-right).
COMPONENT_FIELDS = ("ll", "l", "rl", "c", "lr", "r", "rr")

#: The last axis of a coordinate array: the seven components, then ``h``.
COORD_FIELDS = (*COMPONENT_FIELDS, "h")

#: Positions on that axis: the seven components, then c, rl, lr and h.
COMPONENTS = slice(0, len(COMPONENT_FIELDS))
C, RL, LR, H = map(COORD_FIELDS.index, ("c", "rl", "lr", "h"))

#: Spread names in the order :func:`row_from_spreads` takes them.
SPREAD_FIELDS = ("outer_left", "principal_left", "inner_left", "inner_right", "principal_right", "outer_right")

__getattr__, __dir__ = deferred(globals(), {"_records": ("NT2FuzzyScalar", "NT2FuzzyPoint")})


def coordinate_name(row: int) -> str:
    """The name of coordinate row ``row``: coordinate ``"xy"[row % 2]`` of point ``row // 2``."""
    return f"point {row // 2}, coordinate {'xy'[row % 2]}"


def row_error(row: list[float]) -> T2SplineError | None:
    """The first rule that the coordinate row ``row``, eight floats in the
    layout of :data:`COORD_FIELDS`, breaks, as the error to raise, or None;
    the order is checked exactly (rows are user data, not computed values)."""
    *values, h = row
    if not all(math.isfinite(v) for v in values):
        return T2SplineError(f"components must be finite, got {values}")
    if not math.isfinite(h) or not 0.0 < h <= 1.0:
        return HeightOutOfRange(f"h must lie in (0, 1], got {h!r}")
    for (lo_name, lo), (hi_name, hi) in zip(zip(COMPONENT_FIELDS, values), zip(COMPONENT_FIELDS[1:], values[1:])):
        if lo > hi:
            return OrderingViolation(lo_name, lo, hi_name, hi)
    return None


def row_from_spreads(c, spreads, h) -> list[float]:
    """The coordinate row of the crisp value ``c``, the six non-negative
    spreads ``(outer_left, principal_left, inner_left, inner_right,
    principal_right, outer_right)``, each side inner <= principal <= outer,
    and the height ``h``.  The spreads are checked first, then ``c`` and
    ``h`` are read, then the row must pass :func:`row_error`."""
    try:
        values = tuple(spreads)
    except TypeError:  # not iterable
        values = None
    if values is None or len(values) != len(SPREAD_FIELDS):
        got = shown(spreads) if values is None else f"a {type(spreads).__name__} of {len(values)} values"
        raise T2SplineError(f"spreads must be the six values {', '.join(SPREAD_FIELDS)}, got {got}")
    spreads = [as_float(s, f"spread {name}") for name, s in zip(SPREAD_FIELDS, values)]
    outer_l, prin_l, inner_l, inner_r, prin_r, outer_r = spreads
    for name, s in zip(SPREAD_FIELDS, spreads):
        if not math.isfinite(s) or s < 0.0:
            raise NegativeSpread(f"spread {name} must be >= 0, got {s!r}")
    for side, widths in (("left", (inner_l, prin_l, outer_l)), ("right", (inner_r, prin_r, outer_r))):
        if not widths[0] <= widths[1] <= widths[2]:
            raise SpreadOrderViolation(f"{side} spreads must satisfy inner <= principal <= outer, got {widths}")
    c = as_float(c, "c")
    row = [c - outer_l, c - prin_l, c - inner_l, c, c + inner_r, c + prin_r, c + outer_r, as_float(h, "h")]
    error = row_error(row)
    if error is not None:
        raise error
    return row


def coords_from_rows(rows: np.ndarray) -> np.ndarray:
    """Validate ``(m, 8)`` coordinate rows in the layout of
    :data:`COORD_FIELDS` and return them as a float array.

    A row is rejected exactly when :func:`row_error` rejects it; the first
    rejected row raises that error as the ``__cause__`` of a
    :class:`ValidationError` prefixed with its :func:`coordinate_name`.
    Spreads-form coordinates are converted by :func:`row_from_spreads`
    before they reach this array; the rows are read by
    :func:`~t2spline.bspline.float_array`, not copied.
    """
    comps = float_array(rows, "coordinates")
    values, h = comps[:, COMPONENTS], comps[:, H]
    bad = ~np.isfinite(values).all(axis=1) | ~((h > 0.0) & (h <= 1.0)) | (values[:, :-1] > values[:, 1:]).any(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        error = row_error(comps[i].tolist())
        raise ValidationError(f"{coordinate_name(i)}: {error}") from error
    return comps


def point_items(points) -> tuple | np.ndarray:
    """``points`` itself if it is an ``(n, 2, 8)`` array, else the tuple of
    its items; :class:`T2SplineError` if it is neither."""
    if isinstance(points, np.ndarray):
        if points.ndim != 3 or points.shape[1:] != (2, len(COORD_FIELDS)):
            raise T2SplineError(f"coordinates must be an (n, 2, 8) array, got shape {points.shape}")
        return points
    try:
        items = iter(points)
    except TypeError:
        kind = type(points).__name__
        raise T2SplineError(f"fuzzy_controls must be NT2FuzzyPoint instances or an (n, 2, 8) array, got {kind}") from None
    return tuple(items)


def as_coords(points) -> np.ndarray:
    """The ``(n, 2, 8)`` coordinate array of an iterable of
    :class:`NT2FuzzyPoint`, or of an array of that shape, validated by
    :func:`coords_from_rows`, as a :func:`~t2spline.bspline.read_only_copy`."""
    points = point_items(points)
    if not isinstance(points, np.ndarray):
        from ._records import NT2FuzzyPoint

        if not all(isinstance(p, NT2FuzzyPoint) for p in points):
            raise T2SplineError("fuzzy_controls must be NT2FuzzyPoint instances")
        rows = [(*p.x.components(), p.x.h, *p.y.components(), p.y.h) for p in points]
        points = np.array(rows, dtype=float).reshape(len(points), 2, len(COORD_FIELDS))
    return read_only_copy(coords_from_rows(points.reshape(-1, len(COORD_FIELDS))).reshape(points.shape))


def points_of(coords: np.ndarray) -> list[NT2FuzzyPoint]:
    """The fuzzy points of an ``(n, 2, 8)`` coordinate array."""
    from ._records import NT2FuzzyPoint, NT2FuzzyScalar

    return [NT2FuzzyPoint(NT2FuzzyScalar(*x), NT2FuzzyScalar(*y)) for x, y in coords.tolist()]
