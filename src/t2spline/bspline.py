"""Rational B-spline machinery: clamped knots, a vectorised basis, evaluation.

The basis is de Boor's triangular table (Piegl & Tiller, *The NURBS Book*,
algorithm A2.2 ``BasisFuns``): each parameter's knot span is found by binary
search and only the ``order`` basis functions that are non-zero on that span
are computed, for all parameters at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    OrderExceedsControlCount,
    ParameterOutOfDomain,
    T2SplineError,
    TooFewSamples,
)

#: Largest samples × control points product :func:`sample_curves` accepts:
#: the cell count of its dense ``(samples, n)`` basis matrix, 256 MiB of
#: float64.  Each curve's points are at most as many numbers, so a larger
#: request is refused before anything is allocated.
MAX_BASIS_CELLS = 2**25


@dataclass(frozen=True, eq=False)
class KnotVector:
    """Non-decreasing knot sequence of length n + order, clamped at both ends."""

    knots: np.ndarray
    order: int

    def __post_init__(self):
        knots = np.asarray(self.knots, dtype=float)
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "order", int(self.order))
        k = self.order
        if k < 2:
            raise T2SplineError(f"order must be at least 2, got {k}")
        n = knots.size - k
        if n < k:
            raise OrderExceedsControlCount(f"order {k} curve needs at least {k} control points, got {n}")
        if not np.all(np.diff(knots) >= 0.0):  # also rejects NaN
            raise T2SplineError("knots must be non-decreasing")
        if knots[k - 1] != knots[0] or knots[n] != knots[-1]:
            raise T2SplineError("knot vector must be clamped (end multiplicity = order)")

    @property
    def n_controls(self) -> int:
        return self.knots.size - self.order

    @property
    def domain(self) -> tuple[float, float]:
        """Parameter interval on which the full basis is defined."""
        return (float(self.knots[self.order - 1]), float(self.knots[self.n_controls]))


def clamped_uniform_knots(n: int, k: int) -> KnotVector:
    """Clamped uniform knot vector on [0, 1] for n control points, order k."""
    if k < 2:
        raise T2SplineError(f"order must be at least 2, got {k}")
    if k > n:
        raise OrderExceedsControlCount(f"order {k} exceeds control count {n}")
    interior = np.arange(1, n - k + 1, dtype=float) / (n - k + 1)
    return KnotVector(np.concatenate([np.zeros(k), interior, np.ones(k)]), order=k)


def basis_rows(knots: np.ndarray, order: int, ts) -> np.ndarray:
    """Dense ``(len(ts), n)`` matrix of the n basis functions of the given
    order over ``knots``, one row per parameter in ``ts``.

    Each row depends on its own parameter only, so a parameter evaluated
    alone or inside a batch gives identical bits.  The last non-empty span
    is closed on the right, so the row at the domain's upper end is defined.
    """
    knots = np.asarray(knots, dtype=float)
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    n = knots.size - order
    lo, hi = knots[order - 1], knots[n]
    if not lo < hi:
        raise T2SplineError(f"order {order} basis over these knots has an empty domain [{lo}, {hi}]")
    inside = (ts >= lo) & (ts <= hi)  # also rejects NaN
    if not inside.all():
        raise ParameterOutOfDomain(f"t={float(ts[~inside][0])!r} outside domain [{lo}, {hi}]")
    last = np.searchsorted(knots, hi, side="left") - 1
    span = np.minimum(np.searchsorted(knots, ts, side="right") - 1, last)[:, None]
    offsets = np.arange(1, order)
    left = ts[:, None] - knots[span + 1 - offsets]  # left[:, j - 1] = t - knots[span + 1 - j]
    right = knots[span + offsets] - ts[:, None]  # right[:, j - 1] = knots[span + j] - t
    values = np.zeros((ts.size, order))
    values[:, 0] = 1.0
    for j in range(1, order):
        # Order j + 1 from order j.  Each denominator is the length of a knot
        # interval containing the span, so it is positive; taking the ratios
        # first keeps every factor in [0, 1], even for subnormal intervals.
        den = right[:, :j] + left[:, j - 1 :: -1]
        rising = left[:, j - 1 :: -1] / den * values[:, :j]
        values[:, :j] *= right[:, :j] / den
        values[:, 1 : j + 1] += rising
    rows = np.zeros((ts.size, n))
    np.put_along_axis(rows, span - (order - 1) + np.arange(order), values, axis=1)
    return rows


def basis(kv: KnotVector, i: int, order: int, t: float) -> float:
    """Basis function N_i of the given order at parameter t (i is 0-based).

    Non-negative, zero outside [knots[i], knots[i + order]], and the basis
    functions of one knot vector sum to 1 across the domain.
    """
    n = kv.knots.size - order
    if not 0 <= i < n:
        raise IndexError(f"basis index {i} out of range for {n} basis functions")
    return float(basis_rows(kv.knots, order, t)[0, i])


def basis_row(kv: KnotVector, t: float) -> np.ndarray:
    """All n basis values of the knot vector's own order at parameter t."""
    return basis_rows(kv.knots, kv.order, t)[0]


def check_curve_setup(n: int, weights: np.ndarray, order: int, knots: KnotVector) -> None:
    """Raise unless order, weights and knots fit a curve over n control points."""
    if order < 2:
        raise T2SplineError(f"order must be at least 2, got {order}")
    if order > n:
        raise OrderExceedsControlCount(f"order {order} exceeds control count {n}")
    if weights.shape != (n,):
        raise T2SplineError(f"expected {n} weights, got shape {weights.shape}")
    if np.any(weights <= 0.0) or not np.all(np.isfinite(weights)):
        raise T2SplineError("weights must all be finite and > 0")
    if knots.order != order or knots.n_controls != n:
        raise T2SplineError(
            f"knot vector (order {knots.order}, {knots.n_controls} controls) "
            f"does not match model (order {order}, {n} controls)"
        )


@dataclass(frozen=True, eq=False)
class RationalCurveModel:
    """Crisp rational B-spline: n planar controls, n positive weights, order k."""

    controls: np.ndarray
    weights: np.ndarray
    order: int
    knots: KnotVector

    def __post_init__(self):
        controls = np.asarray(self.controls, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "controls", controls)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "order", int(self.order))
        if controls.ndim != 2 or controls.shape[1] != 2:
            raise T2SplineError(f"controls must be an (n, 2) array, got shape {controls.shape}")
        check_curve_setup(controls.shape[0], weights, self.order, self.knots)

    @classmethod
    def with_uniform_knots(cls, controls, weights=None, order: int = 3) -> "RationalCurveModel":
        controls = np.asarray(controls, dtype=float)
        n = controls.shape[0]
        if weights is None:
            weights = np.ones(n)
        return cls(controls, weights, order, clamped_uniform_knots(n, order))


@dataclass(frozen=True, eq=False)
class Polyline:
    """A sampled curve: points[i] evaluated at strictly increasing params[i]."""

    points: np.ndarray
    params: np.ndarray

    def __post_init__(self):
        points = np.asarray(self.points, dtype=float)
        params = np.asarray(self.params, dtype=float)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "params", params)
        if points.ndim != 2 or points.shape[1] != 2:
            raise T2SplineError(f"points must be an (m, 2) array, got shape {points.shape}")
        if params.shape != (points.shape[0],):
            raise T2SplineError("params must match points in length")
        if not np.all(np.diff(params) > 0.0):  # also rejects NaN
            raise T2SplineError("params must be strictly increasing")

    def __len__(self) -> int:
        return self.points.shape[0]


def rational_point(m: RationalCurveModel, t: float) -> np.ndarray:
    """Evaluate sum(w_i N_i(t) P_i) / sum(w_r N_r(t)) at parameter t.

    The denominator is positive everywhere on the domain (positive weights
    and partition of unity), so no pole handling is needed.
    """
    coeff = m.weights * basis_row(m.knots, t)
    return (coeff @ m.controls) / coeff.sum()


def sample_curve(m: RationalCurveModel, samples: int) -> Polyline:
    """Evaluate the curve at `samples` uniform parameters across the domain."""
    return sample_curves(m.knots, m.weights, m.controls[None], samples)[0]


def sample_curves(knots: KnotVector, weights: np.ndarray, polygons, samples: int) -> list[Polyline]:
    """Evaluate one rational curve per (n, 2) control polygon of the stack at
    `samples` uniform parameters; the weighted basis rows are computed once
    and shared by every polygon."""
    if samples < 2:
        raise TooFewSamples(f"need at least 2 samples, got {samples}")
    n = knots.n_controls
    if samples * n > MAX_BASIS_CELLS:
        raise T2SplineError(
            f"at most {MAX_BASIS_CELLS // n} samples are supported for {n} control points, got {samples}"
        )
    lo, hi = knots.domain
    ts = np.linspace(lo, hi, samples)
    coeff = basis_rows(knots.knots, knots.order, ts)
    coeff *= weights
    # One (1, n) @ (n, 2) product per sample and polygon, exactly as
    # rational_point computes it; a single (m, n) @ (n, 2) product would
    # round differently, and so can a matmul over a strided polygon, so the
    # stack is made contiguous.
    stack = np.ascontiguousarray(polygons, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported below
        points = np.matmul(coeff[None, :, None, :], stack[:, None])[:, :, 0]
        points /= coeff.sum(axis=1)[:, None]
    if not np.isfinite(points).all():
        raise T2SplineError(
            "curve points are not finite: the weighted control coordinates must stay within the float range"
        )
    return [Polyline(points=p, params=ts) for p in points]
