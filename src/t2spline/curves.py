"""Fuzzy rational B-spline curves: component bands, type-reduced and
defuzzified solution curves, and sample-wise deviation reports.

All processing happens on CONTROL points: the seven component control
polygons (and the type-reduced / defuzzified ones) share a single weight
vector and knot vector, so the basis is computed once and shared by every
polygon the requested curves need.  The controls are stored as one
``(n, 2, 8)`` coordinate array (see :mod:`t2spline.fuzzy`), so each
component polygon is a slice of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bspline import KnotVector, Polyline, RationalCurveModel, check_curve_setup, clamped_uniform_knots
from .bspline import sample_curve, sample_curves  # noqa: F401  (curves.sample_curve stays importable)
from .errors import SampleMismatch, T2SplineError
from .fuzzy import NT2FuzzyPoint, as_coords, points_of
from .pipeline import solve

#: Band labels in control-polygon order; "crisp" extracts the c component.
COMPONENT_LABELS = ("ll", "l", "rl", "crisp", "lr", "r", "rr")

#: Curve groups :func:`evaluate` produces, named like the :class:`Scene` fields.
GROUPS = ("band", "reduced", "defuzzified", "crisp")

DEFAULT_SAMPLES = 101


@dataclass(frozen=True, eq=False)
class FuzzyCurveModel:
    """Rational curve over fuzzy control points plus the pipeline cut level.

    ``coords`` is the read-only ``(n, 2, 8)`` coordinate array of the
    controls; it may be given as a sequence of :class:`NT2FuzzyPoint`.
    """

    coords: np.ndarray
    weights: np.ndarray
    order: int
    knots: KnotVector
    alpha: float

    def __post_init__(self):
        object.__setattr__(self, "coords", as_coords(self.coords))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        object.__setattr__(self, "order", int(self.order))
        object.__setattr__(self, "alpha", float(self.alpha))
        check_curve_setup(len(self.coords), self.weights, self.order, self.knots)
        if not 0.0 <= self.alpha < 1.0:
            raise T2SplineError(f"alpha must lie in [0, 1), got {self.alpha}")

    @classmethod
    def with_uniform_knots(cls, points, weights=None, order: int = 3, alpha: float = 0.8) -> "FuzzyCurveModel":
        if not isinstance(points, np.ndarray):
            points = tuple(points)
        if weights is None:
            weights = np.ones(len(points))
        return cls(points, weights, order, clamped_uniform_knots(len(points), order), alpha)

    @property
    def fuzzy_controls(self) -> tuple[NT2FuzzyPoint, ...]:
        """The controls as fuzzy points, built on each access."""
        return tuple(points_of(self.coords))

    def crisp_model(self) -> RationalCurveModel:
        """The rational curve through the crisp (c, c) control polygon."""
        return RationalCurveModel(self.coords[:, :, 3], self.weights, self.order, self.knots)


@dataclass(frozen=True, eq=False)
class CurveBand:
    """Seven component curves sampled at identical parameter values."""

    ll: Polyline
    l: Polyline
    rl: Polyline
    crisp: Polyline
    lr: Polyline
    r: Polyline
    rr: Polyline

    def __post_init__(self):
        ref = self.crisp.params
        for label, line in self.items():
            if line.params.shape != ref.shape or np.any(line.params != ref):
                raise SampleMismatch(f"band component {label} sampled at different parameters")

    def items(self) -> tuple[tuple[str, Polyline], ...]:
        return tuple((label, getattr(self, label)) for label in COMPONENT_LABELS)


class ReducedCurves(NamedTuple):
    """Type-reduced curve triple: left interval curve, crisp, right."""

    left: Polyline
    crisp: Polyline
    right: Polyline


@dataclass(frozen=True)
class DeviationReport:
    """Sample-wise Euclidean distances between two matched polylines."""

    max_distance: float
    mean_distance: float
    per_sample: np.ndarray


def component_polygons(model: FuzzyCurveModel) -> dict[str, np.ndarray]:
    """The seven crisp control polygons, one per component label: slices
    of the coordinate array."""
    return {label: model.coords[:, :, i] for i, label in enumerate(COMPONENT_LABELS)}


def evaluate(model: FuzzyCurveModel, groups, samples: int = DEFAULT_SAMPLES) -> dict:
    """Evaluate the requested curve groups (names from :data:`GROUPS`) as one
    stack of control polygons over one shared basis.

    The controls are cut and type-reduced once, and the one crisp polygon
    serves the band, the reduced triple and "crisp".  Returns a dict keyed by
    group: a :class:`CurveBand`, a :class:`ReducedCurves` or a :class:`Polyline`.
    """
    groups = set(groups)
    if not groups <= set(GROUPS):
        raise T2SplineError(f"unknown curve groups {sorted(groups - set(GROUPS))}")
    polygons = component_polygons(model) if "band" in groups else {"crisp": model.coords[:, :, 3]}
    if groups & {"reduced", "defuzzified"}:
        left, _, right, solution = solve(model.coords, model.alpha)
        if "reduced" in groups:
            polygons["tr_left"] = left
            polygons["tr_right"] = right
        if "defuzzified" in groups:
            polygons["defuzzified"] = solution
    lines = dict(zip(polygons, sample_curves(model.knots, model.weights, list(polygons.values()), samples)))
    out = {name: lines[name] for name in ("defuzzified", "crisp") if name in groups}
    if "band" in groups:
        out["band"] = CurveBand(**{label: lines[label] for label in COMPONENT_LABELS})
    if "reduced" in groups:
        out["reduced"] = ReducedCurves(left=lines["tr_left"], crisp=lines["crisp"], right=lines["tr_right"])
    return out


def fuzzy_curve_band(model: FuzzyCurveModel, samples: int = DEFAULT_SAMPLES) -> CurveBand:
    """Sample the rational curve over each of the seven component polygons.

    All seven curves share the model's weights, order and knots; only the
    control positions differ.
    """
    return evaluate(model, ["band"], samples)["band"]


def reduced_curves(model: FuzzyCurveModel, samples: int = DEFAULT_SAMPLES) -> ReducedCurves:
    """Cut and type-reduce every control point, then sample the rational
    curve over the left-interval, crisp, and right-interval polygons."""
    return evaluate(model, ["reduced"], samples)["reduced"]


def defuzzified_curve(model: FuzzyCurveModel, samples: int = DEFAULT_SAMPLES) -> Polyline:
    """Sample the rational curve over the defuzzified control polygon
    (the crisp solution curve)."""
    return evaluate(model, ["defuzzified"], samples)["defuzzified"]


def deviation(a: Polyline, b: Polyline) -> DeviationReport:
    """Per-sample Euclidean distance between two polylines sampled at the
    same parameters (matched-parameter distance, not closest-point)."""
    if len(a) != len(b) or np.any(a.params != b.params):
        raise SampleMismatch("polylines must be sampled at identical parameters")
    d = np.linalg.norm(a.points - b.points, axis=1)
    return DeviationReport(
        max_distance=float(d.max()), mean_distance=float(d.mean()), per_sample=d
    )
