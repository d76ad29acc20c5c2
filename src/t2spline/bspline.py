"""Rational B-spline machinery: clamped knots, a vectorised basis, evaluation.

The basis is de Boor's triangular table (Piegl & Tiller, *The NURBS Book*,
algorithm A2.2 ``BasisFuns``): each parameter's knot span is found by binary
search and only the ``order`` basis functions that are non-zero on that span
are computed, for all parameters at once.  Curves sum these terms (A4.1) in
a fixed order, elementwise, so their bits do not depend on the BLAS build.
The kernels take checked objects only: :func:`basis_rows` a
:class:`KnotVector` and :func:`sample_curves` a :class:`RationalCurveModel`,
which states the rule that weights, order and knots fit its controls.

The input rules of the package are stated here once: a number
(:func:`as_float`, :func:`float_array`), an integer (:func:`is_integer`),
an array of planar points (:func:`point_array`), curve parameters
(:func:`param_array`) and the read-only copy of each array an object holds
(:func:`read_only_copy`); a refused value is shown by :func:`shown`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    OrderExceedsControlCount,
    ParameterOutOfDomain,
    T2SplineError,
    TooFewSamples,
)

#: Most samples :func:`sample_curves` takes: 256 MiB of float64 points per
#: curve.  A larger request is refused before anything is allocated.
MAX_SAMPLES = 2**24

#: Largest samples × order² product :func:`sample_curves` accepts: the basis
#: table costs order² steps per sample.  It binds from order 5; at order 400
#: it admits 2097 samples, about 1 s of basis work on a 2-vCPU Xeon.
MAX_BASIS_WORK = 335_544_320

#: Order of a curve built without one: quadratic.
DEFAULT_ORDER = 3

#: Most float64 knots numpy can size as one array: their bytes must fit an intp.
_MOST_KNOTS = np.iinfo(np.intp).max // np.dtype(float).itemsize


#: Types that are not numbers, although ``float()`` or numpy converts them
#: (None to NaN, a timedelta or datetime without a unit to its count):
#: refused by :func:`as_float` and :func:`float_array`.
_NOT_NUMBERS = (str, bytes, bool, np.bool_, np.complexfloating, np.timedelta64, np.datetime64, type(None))


def shown(value) -> str:
    """``value`` as a refusal message shows it: its ``repr``, but an integer
    too large for a float by its digit count, and a value whose ``repr``
    refuses an integer it holds by its type."""
    if is_integer(value) and _overflows(value):
        size = abs(int(value))
        digits = int(math.log10(size))  # the count, or one less
        return f"a {digits + (10**digits <= size)}-digit integer"
    try:
        return repr(value)
    except ValueError:  # an integer past sys.get_int_max_str_digits()
        return f"a {type(value).__name__} holding an integer too long to print"


def _overflows(value) -> bool:
    """Whether ``float(value)`` overflows."""
    try:
        float(value)
        return False
    except OverflowError:
        return True


def as_float(value, name: str) -> float:
    """``value`` as a float; raises :class:`T2SplineError` naming ``name``
    unless it is a number: a string, bytes, None or a bool is not, nor is a
    value ``float()`` refuses or overflows."""
    if not isinstance(value, _NOT_NUMBERS):
        try:
            return float(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise T2SplineError(f"{name} must be a number, got {shown(value)}")


def float_array(value, name: str) -> np.ndarray:
    """``value`` as a float array; raises :class:`T2SplineError` naming
    ``name`` when it is ragged or holds anything but numbers: a string,
    bytes, None, a bool or a value ``float()`` refuses or overflows, the
    first one overflowing named by :func:`shown`; an array of timedeltas or
    datetimes holds no numbers.  A numeric array is converted without
    looking at its elements (not copied when float), a flat list of plain
    ints and floats in one step."""
    if isinstance(value, np.ndarray) and value.dtype.kind in "fiu":
        return np.asarray(value, dtype=float)
    if isinstance(value, np.ndarray) and value.dtype.kind in "mM":
        raise T2SplineError(f"{name} must be a rectangular array of numbers: {value.dtype} values are not numbers")
    try:
        if type(value) is list and set(map(type, value)) <= {int, float}:
            return np.array(value, dtype=float)
        objects = np.array(value, dtype=object)
        if any(issubclass(kind, _NOT_NUMBERS) for kind in set(map(type, objects.flat))):
            bad = next(v for v in objects.flat if isinstance(v, _NOT_NUMBERS))
            raise TypeError(f"{bad!r} is not a number")
        return objects.astype(float)
    except OverflowError as exc:
        big = next(filter(_overflows, np.array(value, dtype=object).flat), None)
        reason = exc if big is None else f"{shown(big)} is too large for a float"
    except (TypeError, ValueError) as exc:
        reason = exc
    raise T2SplineError(f"{name} must be a rectangular array of numbers: {reason}")


def point_array(value, name: str) -> np.ndarray:
    """``value`` as an ``(m, 2)`` array of finite points (:func:`float_array`),
    ``(0, 2)`` if empty; raises :class:`T2SplineError` naming ``name`` otherwise."""
    points = float_array(value, name)
    points = points if points.size else points.reshape(0, 2)
    if points.ndim != 2 or points.shape[1] != 2:
        raise T2SplineError(f"{name} must be an (m, 2) array, got shape {points.shape}")
    if not np.isfinite(points).all():
        raise T2SplineError(f"{name} must be finite")
    return points


def param_array(value, name: str) -> np.ndarray:
    """``value`` as a 1-D array of finite, strictly increasing parameters
    (:func:`float_array`); raises :class:`T2SplineError` naming ``name`` otherwise."""
    params = float_array(value, name)
    if params.ndim != 1:
        raise T2SplineError(f"{name} must be a 1-D array, got shape {params.shape}")
    # NaN fails the comparison, and increasing parameters lie between the first and the last.
    # Neighbours are compared, not subtracted: a difference can overflow.
    if not (np.all(params[1:] > params[:-1]) and np.isfinite(params[:1]).all() and np.isfinite(params[-1:]).all()):
        raise T2SplineError(f"{name} must be finite and strictly increasing")
    return params


def read_only_copy(array: np.ndarray) -> np.ndarray:
    """A read-only copy of ``array``: no later write undoes the checks made on it."""
    copy = np.array(array)
    copy.flags.writeable = False
    return copy


def is_integer(value) -> bool:
    """True for a Python or numpy integer; a bool is not one, nor is a numpy
    timedelta, although numpy counts it as an integer type."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, (bool, np.timedelta64))


def check_order(order, n: int) -> int:
    """``order`` as an int; raises :class:`T2SplineError` unless it is an
    integer from 2 to ``n``, the control count."""
    if not is_integer(order):
        raise T2SplineError(f"order must be an integer, got {shown(order)}")
    k = int(order)  # compared as a Python int: a numpy integer can wrap
    if k < 2:
        raise T2SplineError(f"order must be at least 2, got {shown(order)}")
    if k > n:
        raise OrderExceedsControlCount(f"order {shown(order)} exceeds control count {shown(n)}")
    return k


def check_samples(samples, order: int) -> int:
    """``samples`` as an int if it is an integer from 2 to the most a curve
    of ``order``, a checked order, may take: within both :data:`MAX_SAMPLES`
    and :data:`MAX_BASIS_WORK`; else :class:`TooFewSamples` below 2 and
    :class:`T2SplineError` otherwise, with one message."""
    most = min(MAX_SAMPLES, MAX_BASIS_WORK // order**2)
    if is_integer(samples) and 2 <= samples <= most:
        return int(samples)
    error = TooFewSamples if is_integer(samples) and samples < 2 else T2SplineError
    raise error(f"samples must be an integer from 2 to {most} for order {order}, got {shown(samples)}")


@dataclass(frozen=True, eq=False)
class KnotVector:
    """Finite, non-decreasing knots, n + order >= 2 * order of them, clamped
    at both ends, with a non-empty domain; ``knots`` is a read-only copy."""

    knots: np.ndarray
    order: int

    def __post_init__(self):
        knots = read_only_copy(float_array(self.knots, "knots"))
        if knots.ndim != 1:
            raise T2SplineError(f"knots must be a 1-D array, got shape {knots.shape}")
        object.__setattr__(self, "knots", knots)
        k = check_order(self.order, math.inf)  # an integer of at least 2; the knots bound it
        if knots.size < 2 * k:
            raise OrderExceedsControlCount(f"order {shown(self.order)} needs at least twice as many knots, got {knots.size}")
        object.__setattr__(self, "order", k)
        if not np.isfinite(knots).all():
            raise T2SplineError("knots must be finite")
        if not np.all(np.diff(knots) >= 0.0):
            raise T2SplineError("knots must be non-decreasing")
        if knots[k - 1] != knots[0] or knots[-k] != knots[-1]:
            raise T2SplineError("knot vector must be clamped (end multiplicity = order)")
        lo, hi = self.domain
        if not lo < hi:
            raise T2SplineError(f"knot vector of order {k} has an empty domain [{lo}, {hi}]")

    @property
    def n_controls(self) -> int:
        return self.knots.size - self.order

    @property
    def domain(self) -> tuple[float, float]:
        """Parameter interval on which the full basis is defined."""
        return (float(self.knots[self.order - 1]), float(self.knots[self.n_controls]))


def clamped_uniform_knots(n: int, k: int) -> KnotVector:
    """Clamped uniform knot vector on [0, 1] for n control points, order k;
    refused unless numpy can size an array of its n + k float knots."""
    if not is_integer(n):
        raise T2SplineError(f"the control count must be an integer, got {shown(n)}")
    k = check_order(k, n)
    if int(n) > _MOST_KNOTS - k:  # compared as a Python int: numpy would size it wrongly or not at all
        raise T2SplineError(f"the control count must be at most {_MOST_KNOTS - k} for order {k}, got {shown(n)}")
    interior = np.arange(1, n - k + 1, dtype=float) / (n - k + 1)
    return KnotVector(np.concatenate([np.zeros(k), interior, np.ones(k)]), order=k)


def basis_rows(kv: KnotVector, ts) -> tuple[np.ndarray, np.ndarray]:
    """The ``(len(ts),)`` index of the first basis function of ``kv`` that
    may be non-zero at each parameter in ``ts`` (refused outside the domain
    with :class:`ParameterOutOfDomain`), and the ``(len(ts), kv.order)``
    values from it on; every other basis value is zero.

    Each row depends on its own parameter only, so a parameter evaluated
    alone or inside a batch gives identical bits.  The last non-empty span
    is closed on the right, so the row at the domain's upper end is defined.
    """
    knots, order, (lo, hi) = kv.knots, kv.order, kv.domain
    ts = np.atleast_1d(float_array(ts, "t"))
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
    return span[:, 0] - (order - 1), values


class _IndexOutOfRange(T2SplineError, IndexError):
    """A basis index out of range: also an ``IndexError``."""


def basis(kv: KnotVector, i: int, order: int, t: float) -> float:
    """Basis function N_i of the given order, from 2 to ``kv.order`` (the
    orders its knots are clamped at), at parameter t (i is 0-based).

    Non-negative, zero outside [knots[i], knots[i + order]], and the basis
    functions of one knot vector sum to 1 across the domain.
    """
    if not is_integer(i):
        raise T2SplineError(f"basis index must be an integer, got {shown(i)}")
    index = int(i)  # read as a Python int: a numpy unsigned index minus a signed one is a float
    kv = KnotVector(kv.knots, order)
    if not 0 <= index < kv.n_controls:
        raise _IndexOutOfRange(f"basis index {shown(i)} out of range for {kv.n_controls} basis functions")
    first, values = basis_rows(kv, _parameter(t))
    return float(values[0, index - first[0]]) if 0 <= index - first[0] < kv.order else 0.0


def basis_row(kv: KnotVector, t: float) -> np.ndarray:
    """All n basis values of the knot vector's own order at parameter t."""
    first, values = basis_rows(kv, _parameter(t))
    return np.pad(values[0], (first[0], kv.n_controls - kv.order - first[0]))


def _parameter(t) -> float:
    """``t`` as one float; raises :class:`T2SplineError` unless it is a
    single number (:func:`as_float`), so no parameter is dropped.  A 0-d
    array is one number; an array of any other shape is not."""
    if isinstance(t, np.ndarray) and t.ndim:
        raise T2SplineError(f"t must be a single number, got an array of shape {t.shape}")
    return as_float(t, "t")


@dataclass(frozen=True, eq=False)
class RationalCurveModel:
    """Crisp rational B-spline: n planar controls, n finite positive weights,
    an order from 2 to n and a :class:`KnotVector` of that order over n
    controls; ``controls`` and ``weights`` are read-only copies.  Refused in
    that order: controls, weight count, weight values, order, knots."""

    controls: np.ndarray
    weights: np.ndarray
    order: int
    knots: KnotVector

    def __post_init__(self):
        object.__setattr__(self, "controls", read_only_copy(point_array(self.controls, "controls")))
        object.__setattr__(self, "weights", read_only_copy(float_array(self.weights, "weights")))
        n, weights, knots = len(self.controls), self.weights, self.knots
        if weights.shape != (n,):
            raise T2SplineError(f"expected {n} weights, got shape {weights.shape}")
        if np.any(weights <= 0.0) or not np.all(np.isfinite(weights)):
            raise T2SplineError("weights must all be finite and > 0")
        object.__setattr__(self, "order", check_order(self.order, n))
        if not isinstance(knots, KnotVector):
            raise T2SplineError(f"knots must be a KnotVector, got {type(knots).__name__}")
        if knots.order != self.order or knots.n_controls != n:
            raise T2SplineError(
                f"knot vector (order {knots.order}, {knots.n_controls} controls) "
                f"does not match model (order {self.order}, {n} controls)"
            )

    @classmethod
    def with_uniform_knots(cls, controls, weights=None, order: int = DEFAULT_ORDER) -> "RationalCurveModel":
        controls = point_array(controls, "controls")
        weights = np.ones(len(controls)) if weights is None else weights
        return cls(controls, weights, order, clamped_uniform_knots(len(controls), order))


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


def rational_point(m: RationalCurveModel, t: float) -> np.ndarray:
    """Evaluate sum(w_i N_i(t) P_i) / sum(w_r N_r(t)) at parameter t."""
    return _points(m, m.controls[None], [_parameter(t)])[0, 0]


def sample_curve(m: RationalCurveModel, samples: int) -> Polyline:
    """Evaluate the curve at `samples` uniform parameters across the domain."""
    ts, points = sample_curves(m, m.controls[None], samples)
    return Polyline(points[0], ts)


def sample_curves(m: RationalCurveModel, polygons, samples: int) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate one rational curve per (n, 2) control polygon of the stack,
    with the weights and knots ``m`` checked, at `samples` uniform parameters
    ``ts``; return ``ts`` and the ``(polygons, samples, 2)`` points.  The
    basis terms are computed once, for every polygon."""
    samples = check_samples(samples, m.order)
    ts = np.linspace(*m.knots.domain, samples)
    return ts, _points(m, polygons, ts)


def _points(m: RationalCurveModel, polygons, ts) -> np.ndarray:
    """The ``(polygons, len(ts), 2)`` points of one curve of ``m`` per control
    polygon of the stack: numerator and denominator sum their ``order``
    non-zero terms in index order.  The denominator is positive on the domain
    (positive weights and partition of unity), so no pole handling is needed.

    Each gathered term is weighted and added in place and released before
    the next gather, so at most two arrays of the result's size are held."""
    first, values = basis_rows(m.knots, ts)
    stack = np.asarray(polygons, dtype=float)
    points = np.zeros((len(stack), len(first), 2))
    den = np.zeros(len(first))
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported below
        for j in range(m.order):
            coeff = np.take(m.weights, first + j) * values[:, j]
            term = np.take(stack, first + j, axis=1)
            term *= coeff[:, None]
            points += term
            del term
            den += coeff
        points /= den[:, None]
    if not np.isfinite(points).all():
        raise T2SplineError("curve points are not finite: the weighted control coordinates must stay within the float range")
    return points
