"""Normal type-2 triangular fuzzy scalars and planar fuzzy points.

A fuzzy scalar packs seven ordered abscissae around a crisp value ``c``
together with the height ``h`` of its lower membership function.  The upper
membership function (UMF) is the triangle on the outer support ``[ll, rr]``
with apex ``(c, 1)``; the lower membership function (LMF) is the triangle on
the inner support ``[rl, lr]`` with apex ``(c, h)``.  The region between the
two triangles is the footprint of uncertainty.  A scalar is *normal* when
``h < 1`` while the UMF peaks at exactly 1.

The scalar and point classes, :class:`NT2FuzzyScalar` and
:class:`NT2FuzzyPoint`, live in :mod:`t2spline._records`: no command builds
them, so they load on first use, also as names of this module
(:func:`~t2spline.bspline.deferred`).

Many coordinates are held as one float array whose last axis is
:data:`COORD_FIELDS` (the seven components, then ``h``); a model's controls
are an ``(n, 2, 8)`` array.  Other modules index that axis only by the
positions :data:`COMPONENTS` (the seven), :data:`C`, :data:`RL`, :data:`LR`
and :data:`H`.  :func:`coords_from_rows` validates such an array with the
scalar constructors' rules and messages, and :func:`points_of` builds the
scalar view of it.  The array holds the explicit form only; a coordinate
given as ``c``, six spreads and ``h`` is converted by
:meth:`NT2FuzzyScalar.from_spreads` alone.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .bspline import deferred, float_array, read_only_copy
from .errors import T2SplineError, ValidationError

if TYPE_CHECKING:
    from ._records import NT2FuzzyPoint

#: Component names in their guaranteed order (outer-left to outer-right).
COMPONENT_FIELDS = ("ll", "l", "rl", "c", "lr", "r", "rr")

#: The last axis of a coordinate array: the seven components, then ``h``.
COORD_FIELDS = (*COMPONENT_FIELDS, "h")

#: Positions on that axis: the seven components, then c, rl, lr and h.
COMPONENTS = slice(0, len(COMPONENT_FIELDS))
C, RL, LR, H = map(COORD_FIELDS.index, ("c", "rl", "lr", "h"))

#: Spread names in the order :meth:`NT2FuzzyScalar.from_spreads` takes them.
SPREAD_FIELDS = ("outer_left", "principal_left", "inner_left", "inner_right", "principal_right", "outer_right")

__getattr__, __dir__ = deferred(globals(), ("NT2FuzzyScalar", "NT2FuzzyPoint"))


def coords_from_rows(rows: np.ndarray) -> np.ndarray:
    """Validate ``(m, 8)`` coordinate rows in the layout of
    :data:`COORD_FIELDS` and return them as a float array.

    Row ``i`` is coordinate ``"xy"[i % 2]`` of point ``i // 2``.  A row is
    rejected exactly when :class:`NT2FuzzyScalar` would reject it; the first
    rejected row raises that constructor's error as a
    :class:`ValidationError` prefixed with ``point i, coordinate x:``.
    Spreads-form coordinates are converted by
    :meth:`NT2FuzzyScalar.from_spreads` before they reach this array; the
    rows are read by :func:`~t2spline.bspline.float_array`, not copied.
    """
    comps = float_array(rows, "coordinates")
    values, h = comps[:, COMPONENTS], comps[:, H]
    bad = ~np.isfinite(values).all(axis=1) | ~((h > 0.0) & (h <= 1.0)) | (values[:, :-1] > values[:, 1:]).any(axis=1)
    if bad.any():
        from ._records import NT2FuzzyScalar

        i = int(np.argmax(bad))
        try:
            NT2FuzzyScalar(*comps[i].tolist())
        except T2SplineError as exc:
            raise ValidationError(f"point {i // 2}, coordinate {'xy'[i % 2]}: {exc}") from exc
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
