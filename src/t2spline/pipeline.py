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

The records of the scalar views, :class:`AlphaCutScalar`,
:class:`TRInterval` and their :class:`Regime`, live in
:mod:`t2spline._records`: no command builds them, so they load on first
use, also as names of this module (:func:`~t2spline.bspline.deferred`).
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING

import numpy as np

from .bspline import as_float, deferred
from .errors import AlphaOutOfRange, T2SplineError, ValidationError
from .fuzzy import C, COMPONENTS, H, LR, RL, as_coords, coordinate_name

if TYPE_CHECKING:
    from ._records import AlphaCutScalar, NT2FuzzyPoint, NT2FuzzyScalar, TRInterval

__getattr__, __dir__ = deferred(globals(), {"_records": ("Regime", "AlphaCutScalar", "TRInterval")})


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
    from ._records import AlphaCutScalar, Regime

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
    from ._records import Regime, TRInterval

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
        i = int(np.argmax(bad))
        interval = (float(left.flat[i]), float(c.flat[i]), float(right.flat[i]))
        raise ValidationError(
            f"{coordinate_name(i)}: the type-reduced interval {interval} and its "
            f"defuzzified value {float(solution.flat[i])!r} at alpha {float(alpha)!r} must be finite"
        )
    return left, c, right, solution
