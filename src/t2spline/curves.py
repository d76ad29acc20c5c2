"""Fuzzy rational B-spline curves: component bands, type-reduced and
defuzzified solution curves, and sample-wise deviation reports.

All processing happens on CONTROL points: the seven component control
polygons (and the type-reduced / defuzzified ones) share a single weight
vector and knot vector, so the basis is computed once and shared by every
polygon the requested curves need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bspline import KnotVector, Polyline, RationalCurveModel, check_curve_setup, clamped_uniform_knots
from .bspline import sample_curve, sample_curves  # noqa: F401  (curves.sample_curve stays importable)
from .errors import SampleMismatch, T2SplineError
from .fuzzy import NT2FuzzyPoint
from .pipeline import alpha_cut_point, defuzzify, type_reduce

#: Band labels in control-polygon order; "crisp" extracts the c component.
COMPONENT_LABELS = ("ll", "l", "rl", "crisp", "lr", "r", "rr")

_LABEL_TO_FIELD = {label: ("c" if label == "crisp" else label) for label in COMPONENT_LABELS}

#: Curve groups :func:`evaluate` produces, named like the :class:`Scene` fields.
GROUPS = ("band", "reduced", "defuzzified", "crisp")

DEFAULT_SAMPLES = 101


@dataclass(frozen=True, eq=False)
class FuzzyCurveModel:
    """Rational curve over fuzzy control points plus the pipeline cut level."""

    fuzzy_controls: tuple[NT2FuzzyPoint, ...]
    weights: np.ndarray
    order: int
    knots: KnotVector
    alpha: float

    def __post_init__(self):
        controls = tuple(self.fuzzy_controls)
        object.__setattr__(self, "fuzzy_controls", controls)
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        object.__setattr__(self, "order", int(self.order))
        object.__setattr__(self, "alpha", float(self.alpha))
        if not all(isinstance(p, NT2FuzzyPoint) for p in controls):
            raise T2SplineError("fuzzy_controls must be NT2FuzzyPoint instances")
        check_curve_setup(len(controls), self.weights, self.order, self.knots)
        if not 0.0 <= self.alpha < 1.0:
            raise T2SplineError(f"alpha must lie in [0, 1), got {self.alpha}")

    @classmethod
    def with_uniform_knots(cls, points, weights=None, order: int = 3, alpha: float = 0.8) -> "FuzzyCurveModel":
        points = tuple(points)
        if weights is None:
            weights = np.ones(len(points))
        return cls(points, weights, order, clamped_uniform_knots(len(points), order), alpha)

    def crisp_model(self) -> RationalCurveModel:
        """The rational curve through the crisp (c, c) control polygon."""
        return RationalCurveModel(component_polygons(self)["crisp"], self.weights, self.order, self.knots)


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
    """Extract the seven crisp control polygons, one per component label."""
    out = {}
    for label in COMPONENT_LABELS:
        field = _LABEL_TO_FIELD[label]
        out[label] = np.array(
            [(getattr(p.x, field), getattr(p.y, field)) for p in model.fuzzy_controls]
        )
    return out


def evaluate(model: FuzzyCurveModel, groups, samples: int = DEFAULT_SAMPLES) -> dict:
    """Evaluate the requested curve groups (names from :data:`GROUPS`) as one
    stack of control polygons over one shared basis.

    Each coordinate is cut and type-reduced once, and the one crisp polygon
    serves the band, the reduced triple and "crisp".  Returns a dict keyed by
    group: a :class:`CurveBand`, a :class:`ReducedCurves` or a :class:`Polyline`.
    """
    groups = set(groups)
    if not groups <= set(GROUPS):
        raise T2SplineError(f"unknown curve groups {sorted(groups - set(GROUPS))}")
    if "band" in groups:
        polygons = component_polygons(model)
    else:
        polygons = {"crisp": np.array([p.crisp_xy for p in model.fuzzy_controls])}
    if groups & {"reduced", "defuzzified"}:
        cuts = (alpha_cut_point(p, model.alpha) for p in model.fuzzy_controls)
        intervals = [(type_reduce(cut_x), type_reduce(cut_y)) for cut_x, cut_y in cuts]
        if "reduced" in groups:
            polygons["tr_left"] = np.array([(tx.left, ty.left) for tx, ty in intervals])
            polygons["tr_right"] = np.array([(tx.right, ty.right) for tx, ty in intervals])
        if "defuzzified" in groups:
            polygons["defuzzified"] = np.array([(defuzzify(tx), defuzzify(ty)) for tx, ty in intervals])
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
