"""Normal type-2 triangular fuzzy scalars and planar fuzzy points.

A fuzzy scalar packs seven ordered abscissae around a crisp value ``c``
together with the height ``h`` of its lower membership function.  The upper
membership function (UMF) is the triangle on the outer support ``[ll, rr]``
with apex ``(c, 1)``; the lower membership function (LMF) is the triangle on
the inner support ``[rl, lr]`` with apex ``(c, h)``.  The region between the
two triangles is the footprint of uncertainty.  A scalar is *normal* when
``h < 1`` while the UMF peaks at exactly 1.

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

import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from .bspline import as_float, float_array, read_only_copy, shown
from .errors import (
    HeightOutOfRange,
    NegativeSpread,
    OrderingViolation,
    SpreadOrderViolation,
    T2SplineError,
    ValidationError,
)

#: Component names in their guaranteed order (outer-left to outer-right).
COMPONENT_FIELDS = ("ll", "l", "rl", "c", "lr", "r", "rr")

#: The last axis of a coordinate array: the seven components, then ``h``.
COORD_FIELDS = (*COMPONENT_FIELDS, "h")

#: Positions on that axis: the seven components, then c, rl, lr and h.
COMPONENTS = slice(0, len(COMPONENT_FIELDS))
C, RL, LR, H = map(COORD_FIELDS.index, ("c", "rl", "lr", "h"))

#: Spread names in the order :meth:`NT2FuzzyScalar.from_spreads` takes them.
SPREAD_FIELDS = ("outer_left", "principal_left", "inner_left", "inner_right", "principal_right", "outer_right")


@dataclass(frozen=True)
class NT2FuzzyScalar:
    """One coordinate of a normal type-2 triangular fuzzy value.

    Components, in non-decreasing order:

    ==== =====================================================
    ll   outer left support edge (UMF)
    l    principal left value
    rl   inner left support edge (LMF)
    c    crisp value, apex of both triangles
    lr   inner right support edge (LMF)
    r    principal right value
    rr   outer right support edge (UMF)
    ==== =====================================================

    plus ``h``, the LMF apex height in (0, 1].  Construction validates the
    ordering exactly (inputs are user data, not computed values) and rejects
    non-finite components and fields that are not numbers
    (:func:`~t2spline.bspline.as_float`).
    """

    ll: float
    l: float
    rl: float
    c: float
    lr: float
    r: float
    rr: float
    h: float

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if type(value) is not float:  # floats, as points_of passes them, need no check
                object.__setattr__(self, f.name, as_float(value, f.name))
        values = [getattr(self, name) for name in COMPONENT_FIELDS]
        if not all(math.isfinite(v) for v in values):
            raise T2SplineError(f"components must be finite, got {values}")
        if not math.isfinite(self.h) or not 0.0 < self.h <= 1.0:
            raise HeightOutOfRange(f"h must lie in (0, 1], got {self.h!r}")
        for (lo_name, lo), (hi_name, hi) in zip(
            zip(COMPONENT_FIELDS, values), zip(COMPONENT_FIELDS[1:], values[1:])
        ):
            if lo > hi:
                raise OrderingViolation(lo_name, lo, hi_name, hi)

    @classmethod
    def from_spreads(
        cls, c: float, spreads: tuple[float, float, float, float, float, float], h: float
    ) -> "NT2FuzzyScalar":
        """Build a scalar from its crisp value and six non-negative spreads.

        ``spreads`` is ``(outer_left, principal_left, inner_left,
        inner_right, principal_right, outer_right)``; each side must satisfy
        inner <= principal <= outer.  The component ordering then holds by
        construction.
        """
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
        return cls(c - outer_l, c - prin_l, c - inner_l, c, c + inner_r, c + prin_r, c + outer_r, h)

    @property
    def spreads(self) -> tuple[float, float, float, float, float, float]:
        """Six spreads in the order accepted by :meth:`from_spreads`."""
        c = self.c
        return (c - self.ll, c - self.l, c - self.rl, self.lr - c, self.r - c, self.rr - c)

    @property
    def is_degenerate(self) -> bool:
        """True when all seven components coincide (a crisp value)."""
        return self.ll == self.rr

    def components(self) -> tuple[float, float, float, float, float, float, float]:
        return (self.ll, self.l, self.rl, self.c, self.lr, self.r, self.rr)

    def membership_upper(self, x: float) -> float:
        """UMF grade at ``x``: triangle on [ll, rr], apex (c, 1).

        Zero-width sides collapse to the apex value at ``c`` and 0 elsewhere.
        """
        return _triangle(x, self.ll, self.c, self.rr, 1.0)

    def membership_lower(self, x: float) -> float:
        """LMF grade at ``x``: triangle on [rl, lr], apex (c, h)."""
        return _triangle(x, self.rl, self.c, self.lr, self.h)


def _triangle(x: float, lo: float, apex: float, hi: float, peak: float) -> float:
    """The grade, in [0, peak], at ``x`` of the triangle on [lo, hi] with
    apex (apex, peak); NaN is refused and ±inf has grade 0.  A side wider
    than the float range is measured in halves, a grade whose product
    ``peak * rise`` underflows divides first, and one rounded past ``peak``
    is ``peak``."""
    x = as_float(x, "x")
    if math.isnan(x):
        raise T2SplineError("x must not be NaN")
    if x == apex:
        return peak
    if x <= lo or x >= hi:
        return 0.0
    end = lo if x < apex else hi
    rise, width = abs(x - end), abs(apex - end)
    if math.isinf(width):
        rise, width = abs(x / 2 - end / 2), abs(apex / 2 - end / 2)
    if peak * rise < sys.float_info.min:
        return peak * (rise / width)
    return min(peak, peak * rise / width)


@dataclass(frozen=True)
class NT2FuzzyPoint:
    """A planar data/control point whose coordinates are fuzzy scalars."""

    x: NT2FuzzyScalar
    y: NT2FuzzyScalar

    def __post_init__(self):
        for name in ("x", "y"):
            coord = getattr(self, name)
            if not isinstance(coord, NT2FuzzyScalar):
                raise T2SplineError(f"coordinate {name} must be an NT2FuzzyScalar, got {type(coord).__name__}")

    @classmethod
    def crisp(cls, x: float, y: float, h: float = 0.5) -> "NT2FuzzyPoint":
        """A degenerate point with zero spreads on both coordinates."""
        zero = (0.0,) * 6
        return cls(NT2FuzzyScalar.from_spreads(x, zero, h), NT2FuzzyScalar.from_spreads(y, zero, h))

    @property
    def crisp_xy(self) -> tuple[float, float]:
        return (self.x.c, self.y.c)


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
        if not all(isinstance(p, NT2FuzzyPoint) for p in points):
            raise T2SplineError("fuzzy_controls must be NT2FuzzyPoint instances")
        rows = [(*p.x.components(), p.x.h, *p.y.components(), p.y.h) for p in points]
        points = np.array(rows, dtype=float).reshape(len(points), 2, len(COORD_FIELDS))
    return read_only_copy(coords_from_rows(points.reshape(-1, len(COORD_FIELDS))).reshape(points.shape))


def points_of(coords: np.ndarray) -> list[NT2FuzzyPoint]:
    """The fuzzy points of an ``(n, 2, 8)`` coordinate array."""
    return [NT2FuzzyPoint(NT2FuzzyScalar(*x), NT2FuzzyScalar(*y)) for x, y in coords.tolist()]
