"""Alpha-cut fuzzification, centroid-min type-reduction, defuzzification.

The cut of a fuzzy scalar at level ``alpha`` slides every component toward
the crisp value ``c``.  UMF components (ll, l, r, rr) move at level
``alpha``; LMF components (rl, lr) live on a triangle of height ``h`` and
are therefore cut at the effective level ``alpha / h``.  Two regimes follow:

* ``alpha <= h`` (*below*): all six components survive the cut;
* ``alpha > h``  (*between*): the LMF has been cut away entirely and only
  the four UMF components survive.

Type-reduction then collapses each side to the mean of its surviving cut
values (three terms below, two above), and defuzzification averages
(left, c, right) into one crisp number.

The chain is stated once, as array code over the ``(..., 8)`` coordinate
arrays the models store: :func:`alpha_cut_array`, :func:`type_reduce_array`
and :func:`defuzzify_array`, chained by :func:`solve`; vanished LMF entries
are the complement of an ``alpha <= h`` mask.  The scalar functions
(:func:`alpha_cut_scalar`, :func:`alpha_cut_point`, :func:`type_reduce`,
:func:`defuzzify`, :func:`pipeline_point`) are one-coordinate views of it,
as :func:`~t2spline.bspline.rational_point` is of :func:`~t2spline.bspline.sample_curves`.
There vanished LMF entries are ``None``, never numeric zero, since a literal
0.0 would poison averages for data away from the origin.  The tests compare
both with an independent scalar chain, bit for bit.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from .bspline import as_float, shown
from .errors import AlphaOutOfRange, T2SplineError, ValidationError
from .fuzzy import C, COMPONENTS, H, LR, RL, NT2FuzzyPoint, NT2FuzzyScalar, as_coords


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


#: The chain's arithmetic may overflow: :func:`solve` reports it, and the
#: scalar views return the inf or nan it gives.
_quietly = functools.partial(np.errstate, over="ignore", invalid="ignore")


def check_alpha(alpha: float) -> float:
    """``alpha`` as a float; raises :class:`AlphaOutOfRange` unless it is a number in [0, 1)."""
    try:
        alpha = as_float(alpha, "alpha")
    except T2SplineError as exc:
        raise AlphaOutOfRange(str(exc)) from None
    if not 0.0 <= alpha < 1.0:
        raise AlphaOutOfRange(f"alpha must lie in [0, 1), got {alpha!r}")
    return alpha


def alpha_cut_scalar(s: NT2FuzzyScalar, alpha: float) -> AlphaCutScalar:
    """Cut a fuzzy scalar at level ``alpha`` in [0, 1).

    The regime boundary ``alpha == h`` belongs to BELOW: there the scaled
    LMF cut reaches ``c`` exactly, so the three-term and collapsed readings
    coincide and the closed boundary avoids a spurious case.
    """
    alpha = check_alpha(alpha)
    with _quietly():
        cuts, below = alpha_cut_array(np.array([*s.components(), s.h]), alpha)
    lo, lp, li, c, ri, rp, ro = cuts.tolist()
    if below:
        return AlphaCutScalar(alpha, lo, lp, li, c, ri, rp, ro, Regime.BELOW)
    return AlphaCutScalar(alpha, lo, lp, None, c, None, rp, ro, Regime.BETWEEN)


def alpha_cut_point(p: NT2FuzzyPoint, alpha: float) -> tuple[AlphaCutScalar, AlphaCutScalar]:
    """Cut both coordinates of a fuzzy point independently.

    Components below the crisp coordinate follow the left-side formula and
    components above follow the right-side one, which is exactly what the
    per-coordinate cut does.
    """
    return (alpha_cut_scalar(p.x, alpha), alpha_cut_scalar(p.y, alpha))


def type_reduce(a: AlphaCutScalar) -> TRInterval:
    """Centroid-min type-reduction: per side, the mean of the surviving
    alpha-level values (three terms below h, two terms above)."""
    cuts = np.array([a.c if v is None else v for v in (*a.left, a.c, *a.right)], dtype=float)
    with _quietly():
        left, c, right = type_reduce_array(cuts, a.regime is Regime.BELOW)
    return TRInterval(left=float(left), c=float(c), right=float(right), alpha=a.alpha)


def defuzzify(t: TRInterval) -> float:
    """Collapse a type-reduced interval to the mean of (left, c, right)."""
    return float(defuzzify_array(t.left, t.c, t.right))


def pipeline_point(p: NT2FuzzyPoint, alpha: float) -> tuple[float, float]:
    """The crisp solution point of one fuzzy data point: its :func:`solve`
    solution.  Raises :class:`ValidationError` where :func:`solve` does."""
    return tuple(solve(as_coords([p]), alpha)[-1][0].tolist())


def alpha_cut_array(coords: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Cut every coordinate of a ``(..., 8)`` coordinate array at ``alpha``.

    Returns the ``(..., 7)`` cut values in component order and the
    ``alpha <= h`` mask.  Where the mask is False the LMF entries (``rl`` and
    ``lr``) have vanished and their slots hold the uncut components.
    """
    alpha = check_alpha(alpha)
    values, c, h = coords[..., COMPONENTS], coords[..., C:C + 1], coords[..., H]
    below = alpha <= h
    level = np.full(values.shape, alpha)
    level[..., [RL, LR]] = np.divide(alpha, h, out=np.zeros(h.shape), where=below)[..., None]
    cuts = values + level * (c - values)
    cuts[..., C] = coords[..., C]
    return cuts, below


def type_reduce_array(cuts: np.ndarray, below: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Centroid-min type-reduction of :func:`alpha_cut_array` output: the
    ``(left, c, right)`` arrays."""
    lo, lp, li, c, ri, rp, ro = np.moveaxis(cuts, -1, 0)
    left = np.where(below, (lo + lp + li) / 3.0, (lo + lp) / 2.0)
    right = np.where(below, (ri + rp + ro) / 3.0, (rp + ro) / 2.0)
    return left, c, right


def defuzzify_array(left: np.ndarray, c: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Collapse type-reduced arrays to the mean of (left, c, right)."""
    return (left + c + right) / 3.0


def solve(coords: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Cut, type-reduce and defuzzify an ``(n, 2, 8)`` coordinate array.

    Returns the ``(n, 2)`` arrays ``(left, c, right, solution)``: the
    type-reduced intervals and the crisp solution points.  Raises
    :class:`ValidationError` naming the first point and coordinate whose
    interval or solution overflows the float range.
    """
    with _quietly():  # overflow is reported below
        left, c, right = type_reduce_array(*alpha_cut_array(coords, alpha))
        solution = defuzzify_array(left, c, right)
    bad = ~(np.isfinite(left) & np.isfinite(right) & np.isfinite(solution))
    if bad.any():
        i, axis = np.unravel_index(np.argmax(bad), bad.shape)
        interval = (float(left[i, axis]), float(c[i, axis]), float(right[i, axis]))
        raise ValidationError(
            f"point {i}, coordinate {'xy'[axis]}: the type-reduced interval {interval} and its "
            f"defuzzified value {float(solution[i, axis])!r} at alpha {float(alpha)!r} must be finite"
        )
    return left, c, right, solution
