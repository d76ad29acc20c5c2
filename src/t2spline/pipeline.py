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

The chain exists twice.  The scalar functions (:func:`alpha_cut_scalar`,
:func:`type_reduce`, :func:`defuzzify`, :func:`pipeline_point`) work on one
:class:`~t2spline.fuzzy.NT2FuzzyScalar`; vanished LMF entries are ``None``
there, never numeric zero, since a literal 0.0 would poison averages for
data away from the origin.  The array functions (:func:`alpha_cut_array`,
:func:`type_reduce_array`, :func:`defuzzify_array`, and :func:`solve`, which
chains them) work on the ``(..., 8)`` coordinate arrays the models store;
there the vanished entries are the complement of an ``alpha <= h`` mask.
Both use the same operations in the same order, so their results are equal
bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import AlphaOutOfRange, T2SplineError, ValidationError
from .fuzzy import NT2FuzzyPoint, NT2FuzzyScalar


class Regime(Enum):
    """Which alpha-cut case applies; selection is exhaustive and exclusive."""

    BELOW = "below"        # alpha <= h
    BETWEEN = "between"    # h < alpha < 1


@dataclass(frozen=True)
class AlphaCutScalar:
    """Alpha-level values of one fuzzy scalar.

    ``left_inner`` / ``right_inner`` are the cut LMF components; they are
    ``None`` in the *between* regime.  All present values lie between their
    source component and ``c``.
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
        inner_present = (self.left_inner is not None, self.right_inner is not None)
        if self.regime is Regime.BELOW and inner_present != (True, True):
            raise T2SplineError("below-regime cut must carry both inner components")
        if self.regime is Regime.BETWEEN and inner_present != (False, False):
            raise T2SplineError("between-regime cut must carry no inner components")

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
    """Type-reduced interval (left <= c <= right) at one cut level."""

    left: float
    c: float
    right: float
    alpha: float


def _toward(v: float, c: float, a: float) -> float:
    # Slide v toward c by fraction a.  This arrangement is weakly monotone
    # in a under floating point, which keeps alpha-nesting checks exact.
    return v + a * (c - v)


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 <= alpha < 1.0:
        raise AlphaOutOfRange(f"alpha must lie in [0, 1), got {alpha!r}")
    return alpha


def alpha_cut_scalar(s: NT2FuzzyScalar, alpha: float) -> AlphaCutScalar:
    """Cut a fuzzy scalar at level ``alpha`` in [0, 1).

    The regime boundary ``alpha == h`` belongs to BELOW: there the scaled
    LMF cut reaches ``c`` exactly, so the three-term and collapsed readings
    coincide and the closed boundary avoids a spurious case.
    """
    alpha = _check_alpha(alpha)
    below = alpha <= s.h
    if below:
        lmf_level = alpha / s.h
        left_inner = _toward(s.rl, s.c, lmf_level)
        right_inner = _toward(s.lr, s.c, lmf_level)
    else:
        left_inner = None
        right_inner = None
    return AlphaCutScalar(
        alpha=alpha,
        left_outer=_toward(s.ll, s.c, alpha),
        left_principal=_toward(s.l, s.c, alpha),
        left_inner=left_inner,
        c=s.c,
        right_inner=right_inner,
        right_principal=_toward(s.r, s.c, alpha),
        right_outer=_toward(s.rr, s.c, alpha),
        regime=Regime.BELOW if below else Regime.BETWEEN,
    )


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
    if a.regime is Regime.BELOW:
        left = (a.left_outer + a.left_principal + a.left_inner) / 3.0
        right = (a.right_inner + a.right_principal + a.right_outer) / 3.0
    else:
        left = (a.left_outer + a.left_principal) / 2.0
        right = (a.right_principal + a.right_outer) / 2.0
    return TRInterval(left=left, c=a.c, right=right, alpha=a.alpha)


def defuzzify(t: TRInterval) -> float:
    """Collapse a type-reduced interval to the mean of (left, c, right)."""
    return (t.left + t.c + t.right) / 3.0


def pipeline_point(p: NT2FuzzyPoint, alpha: float) -> tuple[float, float]:
    """Full chain per coordinate: cut, type-reduce, defuzzify.

    Returns the crisp solution point for one fuzzy data point.
    """
    cut_x, cut_y = alpha_cut_point(p, alpha)
    return (defuzzify(type_reduce(cut_x)), defuzzify(type_reduce(cut_y)))


def alpha_cut_array(coords: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Cut every coordinate of a ``(..., 8)`` coordinate array at ``alpha``.

    Returns the ``(..., 7)`` cut values in component order and the
    ``alpha <= h`` mask.  Where the mask is False the LMF entries (positions
    2 and 4) have vanished and their slots hold the uncut components.
    """
    alpha = _check_alpha(alpha)
    values, c, h = coords[..., :7], coords[..., 3:4], coords[..., 7]
    below = alpha <= h
    level = np.full(values.shape, alpha)
    level[..., [2, 4]] = np.divide(alpha, h, out=np.zeros(h.shape), where=below)[..., None]
    cuts = values + level * (c - values)
    cuts[..., 3] = coords[..., 3]
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
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported below
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
