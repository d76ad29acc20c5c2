"""Fuzzy rational B-spline curves: component bands, type-reduced and
defuzzified solution curves, and sample-wise deviation reports.

All processing happens on CONTROL points: the seven component control
polygons (and the type-reduced / defuzzified ones) share a single weight
vector and knot vector, so the curves are one basis times one stack of
polygons, sampled by :func:`evaluate` into one table of labelled points
sharing one parameter array (the rule of :func:`shared_params`); its views
:class:`CurveBand`, :class:`ReducedCurves` and
:class:`~t2spline.bspline.Polyline` are compared sample by sample, in a
:class:`DeviationReport`.  These records live in :mod:`t2spline._records`:
no command builds them, so they load on first use, all but the polyline
also as names of this module (:func:`~t2spline.bspline.deferred`).  The
controls are one ``(n, 2, 8)`` coordinate array (see
:mod:`t2spline.fuzzy`), so each component polygon is a slice of it.  A
:class:`FuzzyCurveModel` is solved when it is built, and refuses there, with
:class:`ValidationError`, controls whose type-reduced values overflow.

The curve-group rule is stated here once: :data:`SERIES` names the curves
each group gives, and :func:`evaluate` orders them into columns.  So is
the request rule: :func:`evaluate` takes a non-empty collection of names
from :data:`GROUPS` and ``"all"`` (every group, also beside other names),
and refuses an unknown name, an empty request, a non-collection and a bare
``str`` with :class:`T2SplineError`; the CLI's ``--series`` only splits
its comma-separated spec into such names.
:func:`evaluate`'s ``ts`` and ``{label: points}`` mapping are what the
writers of :mod:`t2spline.output` take, the one path from curves to bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .bspline import DEFAULT_ORDER, KnotVector, RationalCurveModel, clamped_uniform_knots, deferred
from .bspline import read_only_copy, sample_curve, sample_curves  # noqa: F401  (curves.sample_curve stays importable)
from .errors import SampleMismatch, T2SplineError
from .fuzzy import C, COMPONENT_FIELDS, as_coords, point_items, points_of
from .pipeline import check_alpha, solve

if TYPE_CHECKING:
    from ._records import CurveBand, DeviationReport, NT2FuzzyPoint, Polyline, ReducedCurves

__getattr__, __dir__ = deferred(globals(), {"_records": ("CurveBand", "ReducedCurves", "DeviationReport")})

#: Band labels in control-polygon order; "crisp" extracts the c component.
COMPONENT_LABELS = tuple("crisp" if name == "c" else name for name in COMPONENT_FIELDS)

#: Labels of the curves each group gives, in column order; a group of one
#: curve is named by its label.
SERIES = {
    "band": COMPONENT_LABELS,
    "reduced": ("tr_left", "crisp", "tr_right"),
    "crisp": ("crisp",),
    "defuzzified": ("defuzzified",),
}

#: Curve groups :func:`evaluate` produces.
GROUPS = tuple(SERIES)

#: Sample count of a curve, and cut level of a model, given none.
DEFAULT_SAMPLES = 101
DEFAULT_ALPHA = 0.8


@dataclass(frozen=True, eq=False)
class FuzzyCurveModel:
    """Rational curve over fuzzy control points plus the pipeline cut level.

    ``coords`` (the ``(n, 2, 8)`` coordinate array of the controls, which
    may be given as :class:`NT2FuzzyPoint` instances) is a read-only copy;
    ``weights`` and ``order`` are those of :meth:`crisp_model`, built once,
    which checks them and the knots.  The model is solved when built, after
    its other checks, and refuses an overflow there with
    :class:`ValidationError`, as a document does: ``solved`` holds read-only
    copies of the ``(n, 2)`` arrays ``(left, c, right, solution)`` of
    :func:`~t2spline.pipeline.solve` at ``alpha``.  Neither is a field, so
    ``replace(model, alpha=a)`` builds and solves a new model at ``a``.
    """

    coords: np.ndarray
    weights: np.ndarray
    order: int
    knots: KnotVector
    alpha: float

    def __post_init__(self):
        object.__setattr__(self, "coords", as_coords(self.coords))
        crisp = RationalCurveModel(self.coords[:, :, C], self.weights, self.order, self.knots)
        object.__setattr__(self, "_crisp", crisp)
        object.__setattr__(self, "weights", crisp.weights)
        object.__setattr__(self, "order", crisp.order)
        object.__setattr__(self, "alpha", check_alpha(self.alpha))
        object.__setattr__(self, "solved", tuple(map(read_only_copy, solve(self.coords, self.alpha))))

    @classmethod
    def with_uniform_knots(cls, points, weights=None, order=DEFAULT_ORDER, alpha=DEFAULT_ALPHA) -> "FuzzyCurveModel":
        points = point_items(points)
        weights = np.ones(len(points)) if weights is None else weights
        return cls(points, weights, order, clamped_uniform_knots(len(points), order), alpha)

    @property
    def fuzzy_controls(self) -> tuple[NT2FuzzyPoint, ...]:
        """The controls as fuzzy points, built on each access."""
        return tuple(points_of(self.coords))

    def crisp_model(self) -> RationalCurveModel:
        """The rational curve through the crisp (c, c) control polygon, built with the model."""
        return self._crisp


def shared_params(lines, what: str) -> np.ndarray:
    """The params all ``(label, Polyline)`` pairs of ``lines`` share, else :class:`SampleMismatch` naming ``what``.
    A line that is not a :class:`Polyline` is refused with :class:`T2SplineError`."""
    from ._records import Polyline

    first = lines[0][1]
    for label, line in lines:
        if not isinstance(line, Polyline):
            raise T2SplineError(f"{what} {label} must be a Polyline, got {type(line).__name__}")
        if not np.array_equal(line.params, first.params):
            raise SampleMismatch(f"{what} {label} sampled at different parameters")
    return first.params


def component_polygons(model: FuzzyCurveModel) -> dict[str, np.ndarray]:
    """The seven crisp control polygons, one per component label: slices
    of the coordinate array."""
    return {label: model.coords[:, :, i] for i, label in enumerate(COMPONENT_LABELS)}


def evaluate(model: FuzzyCurveModel, groups, samples: int = DEFAULT_SAMPLES) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Evaluate the requested curve groups as one stack of control polygons
    over one shared basis.

    ``groups`` is a non-empty collection (any iterable but a ``str`` or
    ``bytes``) of names from :data:`GROUPS` and ``"all"``, which requests
    every group, also beside other names.  A request holding an unknown
    name is refused naming every unknown name, and so is an empty request,
    a ``str``, ``bytes`` or non-iterable and one holding an unhashable
    name: each with one :class:`T2SplineError` naming the choices.

    The type-reduced and defuzzified polygons are the model's ``solved``
    arrays.  Returns the sample parameters ``ts`` and a dict of ``(samples,
    2)`` points keyed by label: the labels of the groups, in :data:`SERIES`
    column order, each label once, at its first place.
    """
    choices = ", ".join((*GROUPS, "all"))
    try:
        names = set() if isinstance(groups, (str, bytes)) else set(groups)
    except (TypeError, ValueError):  # not iterable, or a name that is not hashable: a generic timedelta raises ValueError
        names = set()
    if not names:
        raise T2SplineError(f"series must be a non-empty collection of names from {choices}, got {type(groups).__name__}")
    unknown = names - {*GROUPS, "all"}
    if unknown:
        raise T2SplineError(f"unknown series {sorted(unknown, key=str)}; choose from {choices}")
    groups = set(GROUPS) if "all" in names else names
    labels = list(dict.fromkeys(label for group in GROUPS if group in groups for label in SERIES[group]))
    polygons = component_polygons(model)
    polygons["tr_left"], _, polygons["tr_right"], polygons["defuzzified"] = model.solved
    ts, points = sample_curves(model.crisp_model(), [polygons[label] for label in labels], samples)
    return ts, dict(zip(labels, points))


def _views(model: FuzzyCurveModel, group: str, samples: int) -> list[Polyline]:
    """The curves of one group as polylines sharing one parameter array."""
    from ._records import Polyline

    ts, points = evaluate(model, [group], samples)
    return [Polyline(points[label], ts) for label in SERIES[group]]


def fuzzy_curve_band(model: FuzzyCurveModel, samples: int = DEFAULT_SAMPLES) -> CurveBand:
    """Sample the rational curve over each of the seven component polygons.

    All seven curves share the model's weights, order and knots; only the
    control positions differ.
    """
    from ._records import CurveBand

    return CurveBand(*_views(model, "band", samples))


def reduced_curves(model: FuzzyCurveModel, samples: int = DEFAULT_SAMPLES) -> ReducedCurves:
    """Cut and type-reduce every control point, then sample the rational
    curve over the left-interval, crisp, and right-interval polygons."""
    from ._records import ReducedCurves

    return ReducedCurves(*_views(model, "reduced", samples))


def defuzzified_curve(model: FuzzyCurveModel, samples: int = DEFAULT_SAMPLES) -> Polyline:
    """Sample the rational curve over the defuzzified control polygon
    (the crisp solution curve)."""
    return _views(model, "defuzzified", samples)[0]


def deviation(a: Polyline, b: Polyline) -> DeviationReport:
    """Per-sample Euclidean distance between two polylines sampled at the
    same parameters (matched-parameter distance, not closest-point)."""
    from ._records import DeviationReport

    shared_params([("a", a), ("b", b)], "polyline")
    d = np.linalg.norm(a.points - b.points, axis=1)
    return DeviationReport(
        max_distance=float(d.max()), mean_distance=float(d.mean()), per_sample=d
    )
