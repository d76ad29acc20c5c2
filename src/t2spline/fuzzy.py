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
are an ``(n, 2, 8)`` array.  :func:`coords_from_rows` validates such an array
with the scalar constructors' rules and messages, and :func:`points_of`
builds the scalar view of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

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

# Positions of the six spreads in a spreads-layout row (``c`` sits at 3).
_SPREAD_SLOTS = [0, 1, 2, 4, 5, 6]


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
    non-finite components.
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
            object.__setattr__(self, f.name, float(getattr(self, f.name)))
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
        outer_l, prin_l, inner_l, inner_r, prin_r, outer_r = (float(s) for s in spreads)
        for name, s in zip(
            ("outer_left", "principal_left", "inner_left", "inner_right", "principal_right", "outer_right"),
            (outer_l, prin_l, inner_l, inner_r, prin_r, outer_r),
        ):
            if not math.isfinite(s) or s < 0.0:
                raise NegativeSpread(f"spread {name} must be >= 0, got {s!r}")
        if not inner_l <= prin_l <= outer_l:
            raise SpreadOrderViolation(
                f"left spreads must satisfy inner <= principal <= outer, got {(inner_l, prin_l, outer_l)}"
            )
        if not inner_r <= prin_r <= outer_r:
            raise SpreadOrderViolation(
                f"right spreads must satisfy inner <= principal <= outer, got {(inner_r, prin_r, outer_r)}"
            )
        c = float(c)
        return cls(c - outer_l, c - prin_l, c - inner_l, c, c + inner_r, c + prin_r, c + outer_r, h)

    @property
    def spreads(self) -> tuple[float, float, float, float, float, float]:
        """Six spreads in the order accepted by :meth:`from_spreads`."""
        return (
            self.c - self.ll,
            self.c - self.l,
            self.c - self.rl,
            self.lr - self.c,
            self.r - self.c,
            self.rr - self.c,
        )

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
    if x == apex:
        return peak
    if x <= lo or x >= hi:
        return 0.0
    if x < apex:
        return peak * (x - lo) / (apex - lo)
    return peak * (hi - x) / (hi - apex)


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


def coords_from_rows(rows: np.ndarray, spreads: np.ndarray | None = None) -> np.ndarray:
    """Validate ``(m, 8)`` coordinate rows and return them in the component
    layout of :data:`COORD_FIELDS`.

    Row ``i`` is coordinate ``"xy"[i % 2]`` of point ``i // 2``.  A row
    flagged in the boolean mask ``spreads`` holds ``(outer_left,
    principal_left, inner_left, c, inner_right, principal_right,
    outer_right, h)`` and is converted with the arithmetic of
    :meth:`NT2FuzzyScalar.from_spreads`.  A row is rejected exactly when its
    scalar constructor would reject it; the first rejected row raises that
    constructor's error as a :class:`ValidationError` prefixed with
    ``point i, coordinate x:``.
    """
    comps = np.array(rows, dtype=float)
    bad = np.zeros(len(comps), dtype=bool)
    if spreads is not None and spreads.any():
        raw = comps[spreads]
        widths = raw[:, _SPREAD_SLOTS]
        bad[spreads] = ~(np.isfinite(widths) & (widths >= 0.0)).all(axis=1) | ~(
            (raw[:, 2] <= raw[:, 1]) & (raw[:, 1] <= raw[:, 0]) & (raw[:, 4] <= raw[:, 5]) & (raw[:, 5] <= raw[:, 6])
        )
        c = raw[:, 3:4]
        with np.errstate(over="ignore", invalid="ignore"):  # such rows fail the finiteness test below
            raw[:, :3] = c - raw[:, :3]
            raw[:, 4:7] = c + raw[:, 4:7]
        comps[spreads] = raw
    values, h = comps[:, :7], comps[:, 7]
    bad |= ~np.isfinite(values).all(axis=1) | ~((h > 0.0) & (h <= 1.0)) | (values[:, :-1] > values[:, 1:]).any(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        row = np.asarray(rows[i], dtype=float).tolist()
        try:
            if spreads is not None and spreads[i]:
                NT2FuzzyScalar.from_spreads(row[3], row[:3] + row[4:7], row[7])
            else:
                NT2FuzzyScalar(*row)
        except T2SplineError as exc:
            raise ValidationError(f"point {i // 2}, coordinate {'xy'[i % 2]}: {exc}") from exc
    return comps


def as_coords(points) -> np.ndarray:
    """The read-only ``(n, 2, 8)`` coordinate array of a sequence of
    :class:`NT2FuzzyPoint`, or of an array of that shape, which is validated
    by :func:`coords_from_rows`."""
    if isinstance(points, np.ndarray):
        if points.ndim != 3 or points.shape[1:] != (2, len(COORD_FIELDS)):
            raise T2SplineError(f"coordinates must be an (n, 2, 8) array, got shape {points.shape}")
        coords = coords_from_rows(points.reshape(-1, len(COORD_FIELDS))).reshape(points.shape)
    else:
        points = tuple(points)
        if not all(isinstance(p, NT2FuzzyPoint) for p in points):
            raise T2SplineError("fuzzy_controls must be NT2FuzzyPoint instances")
        rows = [(*p.x.components(), p.x.h, *p.y.components(), p.y.h) for p in points]
        coords = np.array(rows, dtype=float).reshape(len(points), 2, len(COORD_FIELDS))
    coords.flags.writeable = False
    return coords


def points_of(coords: np.ndarray) -> list[NT2FuzzyPoint]:
    """The fuzzy points of an ``(n, 2, 8)`` coordinate array."""
    return [NT2FuzzyPoint(NT2FuzzyScalar(*x), NT2FuzzyScalar(*y)) for x, y in coords.tolist()]
