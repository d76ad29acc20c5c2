"""The record classes of the acceptance API, loaded on first use.

Here live the fuzzy scalar and point of :mod:`t2spline.fuzzy`, views of
coordinate rows whose rules that module states, the cut, its regime and the
type-reduced interval of :mod:`t2spline.pipeline`, the sampled polyline of
:mod:`t2spline.bspline`, and the curve groups and the deviation report of
:mod:`t2spline.curves`.  No command builds any of them, so no module on a
command's path imports this one.  The package and each owner module resolve
these names on first access (:func:`~t2spline.bspline.deferred`), and a
function that builds or tests one of them imports it where it runs.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from .bspline import as_float, param_array, point_array, read_only_copy, shown
from .curves import SERIES, shared_params
from .errors import T2SplineError
from .fuzzy import COORD_FIELDS, row_error, row_from_spreads


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

    plus ``h``, the LMF apex height in (0, 1].  Construction reads each
    field as a number (:func:`~t2spline.bspline.as_float`) and raises the
    error of :func:`~t2spline.fuzzy.row_error`, if any.
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
        error = row_error([getattr(self, name) for name in COORD_FIELDS])
        if error is not None:
            raise error

    @classmethod
    def from_spreads(
        cls, c: float, spreads: tuple[float, float, float, float, float, float], h: float
    ) -> "NT2FuzzyScalar":
        """Build a scalar from its crisp value, six non-negative spreads and
        ``h``, as :func:`~t2spline.fuzzy.row_from_spreads` reads them."""
        return cls(*row_from_spreads(c, spreads, h))

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


class Regime(Enum):
    """Which alpha-cut case applies; selection is exhaustive and exclusive."""

    BELOW = "below"        # alpha <= h
    BETWEEN = "between"    # h < alpha < 1


@dataclass(frozen=True)
class AlphaCutScalar:
    """Alpha-level values of one fuzzy scalar.

    ``left_inner`` / ``right_inner`` are the cut LMF components; they are
    ``None`` in the *between* regime.  All present values lie between their
    source component and ``c``.  Every present value is read as a float by
    :func:`~t2spline.bspline.as_float`.
    """

    alpha: float
    left_outer: float
    left_principal: float
    left_inner: float | None
    c: float
    right_inner: float | None
    right_principal: float
    right_outer: float
    regime: Regime

    def __post_init__(self):
        if not isinstance(self.regime, Regime):
            raise T2SplineError(f"regime must be a Regime, got {shown(self.regime)}")
        inner_present = (self.left_inner is not None, self.right_inner is not None)
        if self.regime is Regime.BELOW and inner_present != (True, True):
            raise T2SplineError("below-regime cut must carry both inner components")
        if self.regime is Regime.BETWEEN and inner_present != (False, False):
            raise T2SplineError("between-regime cut must carry no inner components")
        absent = () if self.regime is Regime.BELOW else ("left_inner", "right_inner")
        _read_floats(self, [f.name for f in fields(self) if f.name not in ("regime", *absent)])

    @property
    def left(self) -> tuple[float, float, float | None]:
        """(outer, principal, inner) alpha-level values left of c."""
        return (self.left_outer, self.left_principal, self.left_inner)

    @property
    def right(self) -> tuple[float | None, float, float]:
        """(inner, principal, outer) alpha-level values right of c."""
        return (self.right_inner, self.right_principal, self.right_outer)


@dataclass(frozen=True)
class TRInterval:
    """Type-reduced interval (left <= c <= right) at one cut level; each
    value is read as a float by :func:`~t2spline.bspline.as_float`.  The
    order is not checked: the chain can leave it by one ulp."""

    left: float
    c: float
    right: float
    alpha: float

    def __post_init__(self):
        _read_floats(self, [f.name for f in fields(self)])


def _read_floats(record, names) -> None:
    """Store each field of ``names`` of the frozen ``record`` as a float,
    refused with :class:`T2SplineError` naming the field unless it is a number."""
    for name in names:
        object.__setattr__(record, name, as_float(getattr(record, name), name))


@dataclass(frozen=True, eq=False)
class Polyline:
    """A sampled curve: m >= 1 points[i] at finite, strictly increasing params[i], both read-only copies."""

    points: np.ndarray
    params: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "points", read_only_copy(point_array(self.points, "points")))
        object.__setattr__(self, "params", read_only_copy(param_array(self.params, "params")))
        if not len(self.points):
            raise T2SplineError("a polyline needs at least one point")
        if self.params.shape != (len(self),):
            raise T2SplineError("params must match points in length")

    def __len__(self) -> int:
        return self.points.shape[0]


class _CurveGroup:
    """The curves of the group ``GROUP``: the fields of a frozen dataclass,
    in :data:`~t2spline.curves.SERIES` order, each sampled at the parameters
    of its ``crisp`` curve (:func:`~t2spline.curves.shared_params`, naming a
    curve ``WHAT``)."""

    def __post_init__(self):
        shared_params([("crisp", self.crisp), *self.items()], self.WHAT)

    def __iter__(self):
        return (getattr(self, field.name) for field in fields(self))

    def __len__(self) -> int:
        return len(fields(self))

    def items(self) -> tuple[tuple[str, Polyline], ...]:
        return tuple(zip(SERIES[self.GROUP], self))


@dataclass(frozen=True, eq=False)
class CurveBand(_CurveGroup):
    """Seven component curves sampled at identical parameter values."""

    GROUP, WHAT = "band", "band component"
    ll: Polyline
    l: Polyline
    rl: Polyline
    crisp: Polyline
    lr: Polyline
    r: Polyline
    rr: Polyline


@dataclass(frozen=True, eq=False)
class ReducedCurves(_CurveGroup):
    """Type-reduced curve triple sampled at identical parameter values: left
    interval curve, crisp, right."""

    GROUP, WHAT = "reduced", "reduced curve"
    left: Polyline
    crisp: Polyline
    right: Polyline


@dataclass(frozen=True, eq=False)
class DeviationReport:
    """Sample-wise Euclidean distances between two matched polylines."""

    max_distance: float
    mean_distance: float
    per_sample: np.ndarray
