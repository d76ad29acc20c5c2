"""The call boundary of the package, stated once.

:data:`ENTRY_POINTS` names each public constructor and each function that
takes data, with one set of valid arguments; :data:`INTERNALS` does the
same for the number rules and kernels behind them that rows call directly.
:data:`REFUSALS` holds the inputs they refuse: rows of ``(entry,
parameter, value, exception class, exact message)``.  A row calls its entry
with the valid arguments and ``value`` for ``parameter`` (a tuple of
parameters takes a tuple of values), and :func:`assert_refused` checks that
exactly that class is raised, with exactly that message, and nothing written.

The rows are filed by test module, then by the test that runs them.
:func:`refusal_tests` builds each such test, from a list of rows or from
an ``{id: rows}`` dict, parametrized by those ids, and each module collects
its own, so a test keeps the id it had when it checked its inputs by hand.
``test_refusal``, collected here, runs the rows of no such test.

:func:`test_a_hostile_value_is_returned_or_refused` puts one value of a
hostile pool into one parameter of one entry point.

The command line is the last boundary.  :data:`CLI_REFUSALS` holds the
inputs its commands refuse, as rows of ``(argv, document, exit code, exact
standard error)``, and :data:`CLI_OUTPUTS` the inputs its writing commands
accept, as rows of ``(argv, document)``; both are filed by the test of
``test_cli`` that runs them.  :func:`assert_cli_refused` checks a refusal,
and :func:`assert_cli_writes` that an accepted row writes the bytes
:func:`oracle_output` predicts from ``tests/oracles.py``.
:func:`test_a_mutated_document_is_accepted_or_refused_by_every_command`
runs one edit of a small valid document through every command that reads
one.

Every output goes through one target.  :data:`OUTPUT_TARGETS` holds the
paths it is written to, as rows of ``(given, before, fault, outcome)``
filed by the test that runs them, and :func:`assert_target_written` runs
each row through every writer of :data:`WRITERS` and every command of
:data:`OUT_COMMANDS`; the targets they refuse are rows of :data:`REFUSALS`.
"""

import codecs
import contextlib
import errno
import fcntl
import functools
import io
import json
import math
import operator
import os
import pathlib
import shlex
import stat
import tempfile
import types
import warnings
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from texts import assert_same_text
from t2spline import (
    AlphaCutScalar, AlphaOutOfRange, CurveBand, FuzzyCurveModel, HeightOutOfRange, KnotVector, ModelDocument,
    NegativeSpread, NT2FuzzyPoint, NT2FuzzyScalar, OrderExceedsControlCount, OrderingViolation, ParameterOutOfDomain,
    ParseError, Polyline, RationalCurveModel, ReducedCurves, Regime, SampleMismatch, Scene, SpreadOrderViolation,
    T2SplineError, TooFewSamples, TRInterval, ValidationError, alpha_cut_point, alpha_cut_scalar, basis, basis_row,
    clamped_uniform_knots, component_polygons, defuzzified_curve, defuzzify, demo_document, deviation, document_to_json,
    fuzzy_curve_band, parse_document, pipeline_point, rational_point, reduced_curves, render_svg, sample_curve,
    save_document, svg_document, type_reduce, write_csv,
)
from t2spline import cli, output
from t2spline.bspline import MAX_SAMPLES, _IndexOutOfRange, check_order, check_samples, float_array, sample_curves
from t2spline.curves import evaluate
from t2spline.fuzzy import COORD_FIELDS, as_coords, row_from_spreads
from t2spline.output import BLOCK_CELLS, write_output, write_pipeline_csv, write_pipeline_json
from t2spline.pipeline import solve


class _Discard(io.TextIOBase):
    """A text stream that drops what is written to it."""

    def write(self, text):
        return len(text)


SINK = _Discard()
KV = clamped_uniform_knots(4, 3)
CONTROLS = np.array([[0.0, 0.0], [2.0, 4.0], [5.0, 5.0], [7.0, 1.0]])
WEIGHTS = np.array([1.0, 1.0, 3.0, 1.0])
CURVE = RationalCurveModel(CONTROLS, WEIGHTS, 3, KV)
CRISP_CURVE = RationalCurveModel.with_uniform_knots(CONTROLS)
SCALAR = NT2FuzzyScalar(4, 4.3, 4.6, 5, 5.4, 5.7, 6, 0.6)
POINT = NT2FuzzyPoint(SCALAR, SCALAR)
CRISP_POINT = NT2FuzzyPoint.crisp(2.0, 4.0)
CRISP_POINTS = [NT2FuzzyPoint.crisp(x, y) for x, y in CONTROLS.tolist()]
CRISP_COORDS = as_coords(CRISP_POINTS)
DOC = demo_document()
MODEL = DOC.model
CUT = alpha_cut_scalar(SCALAR, 0.5)
LINE = sample_curve(CRISP_CURVE, 21)
ASYMMETRIC = FuzzyCurveModel.with_uniform_knots(  # spreads heavier on the left
    [NT2FuzzyPoint(*(NT2FuzzyScalar.from_spreads(v, (0.9, 0.6, 0.3, 0.2, 0.3, 0.45), 0.6) for v in xy)) for xy in CONTROLS.tolist()]
)
BAND = fuzzy_curve_band(ASYMMETRIC, 21)
REDUCED = reduced_curves(ASYMMETRIC, 21)
HUGE = 10**5000  # float() overflows on it, and repr() refuses it

#: Each public constructor and each function that takes data: the callable
#: and one set of valid arguments, by name.
ENTRY_POINTS = {
    "KnotVector": (KnotVector, dict(knots=[0, 0, 0, 0.5, 1, 1, 1], order=3)),
    "clamped_uniform_knots": (clamped_uniform_knots, dict(n=4, k=3)),
    "basis": (basis, dict(kv=KV, i=0, order=3, t=0.5)),
    "basis_row": (basis_row, dict(kv=KV, t=0.5)),
    "RationalCurveModel": (RationalCurveModel, dict(controls=CONTROLS, weights=WEIGHTS, order=3, knots=KV)),
    "RationalCurveModel.with_uniform_knots": (RationalCurveModel.with_uniform_knots, dict(controls=CONTROLS, weights=None, order=3)),
    "Polyline": (Polyline, dict(points=np.zeros((3, 2)), params=[0.0, 0.5, 1.0])),
    "rational_point": (rational_point, dict(m=CURVE, t=0.5)),
    "sample_curve": (sample_curve, dict(m=CURVE, samples=5)),
    "NT2FuzzyScalar": (NT2FuzzyScalar, dict(zip(COORD_FIELDS, (4, 4.3, 4.6, 5, 5.4, 5.7, 6, 0.6)))),
    "NT2FuzzyScalar.from_spreads": (NT2FuzzyScalar.from_spreads, dict(c=5, spreads=(1, 0.7, 0.4, 0.4, 0.7, 1), h=0.6)),
    "NT2FuzzyScalar.membership_upper": (NT2FuzzyScalar.membership_upper, dict(self=SCALAR, x=4.5)),
    "NT2FuzzyScalar.membership_lower": (NT2FuzzyScalar.membership_lower, dict(self=SCALAR, x=4.5)),
    "NT2FuzzyPoint": (NT2FuzzyPoint, dict(x=SCALAR, y=SCALAR)),
    "NT2FuzzyPoint.crisp": (NT2FuzzyPoint.crisp, dict(x=1.0, y=2.0, h=0.5)),
    "FuzzyCurveModel": (FuzzyCurveModel, dict(coords=MODEL.coords, weights=WEIGHTS, order=3, knots=KV, alpha=0.8)),
    "FuzzyCurveModel.with_uniform_knots": (FuzzyCurveModel.with_uniform_knots, dict(points=CRISP_COORDS, weights=None, order=3, alpha=0.8)),
    "ModelDocument": (ModelDocument, dict(points=MODEL.coords, weights=[1, 1, 3, 1], order=3, alpha=0.8, samples=101)),
    "ModelDocument.to_model": (ModelDocument.to_model, dict(self=DOC, order=None, alpha=None)),
    "AlphaCutScalar": (AlphaCutScalar, dict(alpha=0.5, left_outer=1, left_principal=2, left_inner=3, c=4, right_inner=5, right_principal=6, right_outer=7, regime=Regime.BELOW)),
    "alpha_cut_scalar": (alpha_cut_scalar, dict(s=SCALAR, alpha=0.5)),
    "alpha_cut_point": (alpha_cut_point, dict(p=POINT, alpha=0.5)),
    "type_reduce": (type_reduce, dict(a=CUT)),
    "TRInterval": (TRInterval, dict(left=1, c=2, right=3, alpha=0.5)),
    "defuzzify": (defuzzify, dict(t=type_reduce(CUT))),
    "pipeline_point": (pipeline_point, dict(p=POINT, alpha=0.5)),
    "component_polygons": (component_polygons, dict(model=MODEL)),
    "curves.evaluate": (evaluate, dict(model=ASYMMETRIC, groups=["crisp"], samples=5)),
    "fuzzy_curve_band": (fuzzy_curve_band, dict(model=MODEL, samples=5)),
    "reduced_curves": (reduced_curves, dict(model=MODEL, samples=5)),
    "defuzzified_curve": (defuzzified_curve, dict(model=MODEL, samples=5)),
    "deviation": (deviation, dict(a=LINE, b=LINE)),
    "CurveBand": (CurveBand, dict(zip(("ll", "l", "rl", "crisp", "lr", "r", "rr"), BAND))),
    "ReducedCurves": (ReducedCurves, dict(zip(("left", "crisp", "right"), REDUCED))),
    "Scene": (Scene, dict(series={"crisp": CONTROLS}, controls=CONTROLS, title="t")),
    "svg_document": (svg_document, dict(scene=Scene({"crisp": CONTROLS}, CONTROLS, "t"))),
    "render_svg": (render_svg, dict(scene=Scene({"crisp": CONTROLS}, CONTROLS, "t"), path_or_file=SINK)),
    "write_csv": (write_csv, dict(ts=np.linspace(0.0, 1.0, 5), series={"crisp": np.zeros((5, 2))}, path_or_file=SINK)),
    "output.write_pipeline_json": (write_pipeline_json, dict(alpha=0.8, points=np.zeros((1, 2)), path_or_file=SINK)),
    "output.write_pipeline_csv": (write_pipeline_csv, dict(points=np.zeros((1, 2)), path_or_file=SINK)),
    "output.write_output": (write_output, dict(target=SINK, render=lambda f: f.write("text"))),
    "parse_document": (parse_document, dict(text=document_to_json(DOC))),
    "document_to_json": (document_to_json, dict(doc=DOC)),
    "save_document": (save_document, dict(doc=DOC, path=SINK)),
}

#: The module functions behind the entry points that the rows call or a
#: hostile value is drawn for: the number and integer rules, the spreads
#: rule, and kernels that read what a model checked.
INTERNALS = {
    "bspline.float_array": (float_array, dict(value=[1.0, 2.0], name="w")),
    "bspline.check_order": (check_order, dict(order=3, n=4)),
    "bspline.check_samples": (check_samples, dict(samples=5, order=3)),
    "bspline.sample_curves": (sample_curves, dict(m=CURVE, polygons=CONTROLS[None], samples=5)),
    "fuzzy.as_coords": (as_coords, dict(points=CRISP_COORDS)),
    "fuzzy.row_from_spreads": (row_from_spreads, dict(c=5, spreads=(1, 0.7, 0.4, 0.4, 0.7, 1), h=0.6)),
    "pipeline.solve": (solve, dict(coords=CRISP_COORDS, alpha=0.5)),
}


#: The entry points that write a file, those with a ``path_or_file``,
#: ``path`` or ``target`` parameter, by function name: the entry and that parameter.
WRITERS = {
    entry.split(".")[-1]: (entry, parameter)
    for entry, (_, valid) in ENTRY_POINTS.items()
    for parameter in valid.keys() & {"path_or_file", "path", "target"}
}


def call(entry, parameter, value):
    """Call ``entry`` with its valid arguments, ``value`` given for
    ``parameter``; a tuple of parameters takes a tuple of values."""
    function, valid = {**ENTRY_POINTS, **INTERNALS}[entry]
    given = dict(zip(parameter, value)) if isinstance(parameter, tuple) else {parameter: value}
    return function(**{**valid, **given})


@contextlib.contextmanager
def _empty_folder():
    """A new folder, made the working folder, that must be left empty."""
    with tempfile.TemporaryDirectory() as folder, pytest.MonkeyPatch.context() as patch:
        patch.chdir(folder)
        yield
        assert os.listdir(folder) == []


def assert_refused(entry, parameter, value, cls, message):
    """The row's call, made from an :func:`_empty_folder`, raises exactly
    ``cls``, with exactly ``message``, and writes nothing: the folder and
    any stream the row gives stay empty."""
    with _empty_folder(), pytest.raises(cls) as exc:
        call(entry, parameter, value)
    assert type(exc.value) is cls
    assert str(exc.value) == message
    for given in value if isinstance(parameter, tuple) else [value]:
        assert not isinstance(given, (io.StringIO, io.BytesIO)) or not given.getvalue()


def refusal_tests(tests, check=assert_refused):
    """The test of each ``{name: rows}`` item of ``tests``, by name, which
    checks each row with ``check``: a list of rows is checked in one test,
    and a ``{id: row or rows}`` dict in a test parametrized by those ids."""

    def build(name, cases):
        if isinstance(cases, dict):
            @pytest.mark.parametrize("case", list(cases.values()), ids=list(cases))
            def test(case):
                for row in case if isinstance(case, list) else [case]:
                    check(*row)
        else:
            def test():
                for row in cases:
                    check(*row)
        test.__name__ = test.__qualname__ = name
        return test

    return {name: build(name, cases) for name, cases in tests.items()}


def _flat(n, order):
    """The curve of order ``order`` with n unit weights and all n controls at the origin."""
    return RationalCurveModel(np.zeros((n, 2)), np.ones(n), order, clamped_uniform_knots(n, order))


_FIVE_POINTS = [NT2FuzzyPoint.crisp(i, i) for i in range(5)]
_WIDE = NT2FuzzyScalar(-1e308, -1e308, 0, 1e308, 1e308, 1e308, 1e308, 0.6)
_OVERFLOWING = [POINT, NT2FuzzyPoint(SCALAR, _WIDE), POINT]
_OVERFLOW = "point 1, coordinate y: the type-reduced interval (inf, 1e+308, inf) and its defuzzified value inf at alpha 0.5 must be finite"
_MOST_CONTROLS = np.iinfo(np.intp).max // 8 - 2  # of order 2: numpy sizes no more float64 knots
_ORDER4 = KnotVector([0, 0, 0, 0, 0.25, 0.5, 0.5, 0.75, 1, 1, 1, 1], 4)
_NON_FINITE = {name: np.array([[0.0, 0.0], [1.0, bad], [2.0, 0.0]]) for name, bad in [("nan", np.nan), ("inf", np.inf), ("-inf", -np.inf)]}
_NOT_ONE_T = {
    "list": ([0.1, 0.2], "t must be a number, got [0.1, 0.2]"),
    "one-element-list": ([0.5], "t must be a number, got [0.5]"),
    "tuple": ((0.5,), "t must be a number, got (0.5,)"),
    "array": (np.array([0.1, 0.2]), "t must be a single number, got an array of shape (2,)"),
    "one-element-array": (np.array([0.5]), "t must be a single number, got an array of shape (1,)"),
    "2-d-array": (np.zeros((3, 2)), "t must be a single number, got an array of shape (3, 2)"),
}
_NOT_POLYLINES = {"string": "x", "array": np.zeros((5, 2)), "none": None}
_NUMBERS = "tr_left must be a rectangular array of numbers: "
_BAD_POINTS = {
    "ragged": ([[0.0, 1.0]] * 4 + [[2.0]], _NUMBERS + "setting an array element with a sequence."),
    "strings": ([["a", "b"]] * 5, _NUMBERS + "'a' is not a number"),
    "none": ([[1.0, None]] * 5, _NUMBERS + "None is not a number"),
    "nan": (np.full((5, 2), np.nan), "tr_left must be finite"),
    "three-columns": (np.zeros((5, 3)), "tr_left must be an (m, 2) array, got shape (5, 3)"),
    "polyline": (Polyline(np.zeros((5, 2)), np.arange(5.0)), _NUMBERS + "float() argument must be a string or a real number, not 'Polyline'"),
}
_NOT_LABELLED = {
    "pairs": ([("crisp", np.zeros((5, 2)))], "series must be a mapping of labels to points, got list"),
    "string": ("crisp", "series must be a mapping of labels to points, got str"),
    "int-label": ({1: np.zeros((5, 2))}, "a series label must be a str, got int"),
    "tuple-label": ({("crisp",): np.zeros((5, 2))}, "a series label must be a str, got tuple"),
}
_SOLVE_OK = [0.0, 0.5, 0.8, 1.0, 1.2, 1.5, 2.0, 0.6]
_SOLVE_WIDE = [-1e308, -1e308, 0.0, 1e308, 1e308, 1e308, 1e308, 0.6]

REFUSALS = {
    "test_bspline": {
        "test_a_float_array_names_the_integer_that_overflows": {
            "value0": ("bspline.float_array", "value", [1, 10**400, 1.5], T2SplineError, "w must be a rectangular array of numbers: a 401-digit integer is too large for a float"),
            "value1": ("bspline.float_array", "value", [[1.0], [10**400]], T2SplineError, "w must be a rectangular array of numbers: a 401-digit integer is too large for a float"),
            "value2": ("bspline.float_array", "value", np.array([2, 10**400], dtype=object), T2SplineError, "w must be a rectangular array of numbers: a 401-digit integer is too large for a float"),
        },
        "test_order_exceeds_control_count": [("clamped_uniform_knots", "n", 2, OrderExceedsControlCount, "order 3 exceeds control count 2")],
        "test_knot_vector_rejects_decreasing_and_unclamped": [
            ("KnotVector", "knots", np.array([0, 0, 0, 0.5, 0.4, 1, 1]), T2SplineError, "knots must be non-decreasing"),
            ("KnotVector", "knots", np.array([0, 0, 0.1, 0.5, 1, 1, 1]), T2SplineError, "knot vector must be clamped (end multiplicity = order)"),
        ],
        "test_basis_domain_and_index_errors": [
            ("basis", "t", -0.01, ParameterOutOfDomain, "t=-0.01 outside domain [0.0, 1.0]"),
            ("basis", "t", 1.01, ParameterOutOfDomain, "t=1.01 outside domain [0.0, 1.0]"),
            ("basis", "i", 4, _IndexOutOfRange, "basis index 4 out of range for 4 basis functions"),
            ("basis", "i", "0", T2SplineError, "basis index must be an integer, got '0'"),
            ("basis", "i", True, T2SplineError, "basis index must be an integer, got True"),
            ("basis", "i", 0.5, T2SplineError, "basis index must be an integer, got 0.5"),
            ("basis", "order", "3", T2SplineError, "order must be an integer, got '3'"),
            ("basis", "order", True, T2SplineError, "order must be an integer, got True"),
            ("basis", "order", 1, T2SplineError, "order must be at least 2, got 1"),
        ],
        "test_model_validation": [
            ("RationalCurveModel", "weights", np.array([1.0, -1.0, 1.0, 1.0]), T2SplineError, "weights must all be finite and > 0"),
            ("RationalCurveModel", "weights", np.array([1.0, 0.0, 1.0, 1.0]), T2SplineError, "weights must all be finite and > 0"),
            ("RationalCurveModel.with_uniform_knots", ("controls", "weights"), (CONTROLS[:2], np.ones(2)), OrderExceedsControlCount, "order 3 exceeds control count 2"),
            ("RationalCurveModel", ("weights", "knots"), (np.ones(4), clamped_uniform_knots(5, 3)), T2SplineError, "knot vector (order 3, 5 controls) does not match model (order 3, 4 controls)"),
        ],
        "test_model_rejects_non_finite_controls": {
            name: [
                ("RationalCurveModel.with_uniform_knots", ("controls", "order"), (controls, 2), T2SplineError, "controls must be finite"),
                ("Polyline", "points", controls, T2SplineError, "points must be finite"),
                ("svg_document", "scene", Scene({}, controls), T2SplineError, "controls must be finite"),
                ("svg_document", "scene", Scene({"crisp": controls}), T2SplineError, "crisp must be finite"),
            ]
            for name, controls in _NON_FINITE.items()
        },
        "test_model_knots_must_be_a_knot_vector": {
            "rational-none": ("RationalCurveModel", "knots", None, T2SplineError, "knots must be a KnotVector, got NoneType"),
            "rational-knot-array": ("RationalCurveModel", "knots", KV.knots, T2SplineError, "knots must be a KnotVector, got ndarray"),
            "fuzzy-none": ("FuzzyCurveModel", "knots", None, T2SplineError, "knots must be a KnotVector, got NoneType"),
        },
        "test_model_order_must_match_the_knots": {
            "1": ("RationalCurveModel", ("weights", "order"), (np.ones(4), 1), T2SplineError, "order must be at least 2, got 1"),
            "4": ("RationalCurveModel", ("weights", "order"), (np.ones(4), 4), T2SplineError, "knot vector (order 3, 4 controls) does not match model (order 4, 4 controls)"),
        },
        "test_too_few_samples": [("sample_curve", "samples", 1, TooFewSamples, "samples must be an integer from 2 to 16777216 for order 3, got 1")],
        "test_polyline_validation": [
            ("Polyline", "params", np.array([0.0, 0.5, 0.5]), T2SplineError, "params must be finite and strictly increasing"),
            ("Polyline", "params", np.array([0.0, 0.5]), T2SplineError, "params must match points in length"),
        ],
        "test_polyline_and_model_reject_arrays_that_are_not_point_pairs": {
            f"shape{i}": [
                ("Polyline", ("points", "params"), (np.zeros(shape), np.arange(3.0)), T2SplineError, f"points must be an (m, 2) array, got shape {shape}"),
                ("RationalCurveModel", ("controls", "weights", "order", "knots"), (np.zeros(shape), np.ones(3), 2, clamped_uniform_knots(3, 2)), T2SplineError, f"controls must be an (m, 2) array, got shape {shape}"),
            ]
            for i, shape in enumerate([(3,), (3, 3), (3, 2, 1)])
        },
        "test_constructors_reject_ragged_or_non_numeric_arrays": {
            "knots-ragged": ("KnotVector", ("knots", "order"), ([0, 0, [0, 1], 1, 1], 2), T2SplineError, "knots must be a rectangular array of numbers: setting an array element with a sequence."),
            "model-ragged-controls": ("RationalCurveModel.with_uniform_knots", ("controls", "order"), ([[0, 0], [1], [2, 0]], 2), T2SplineError, "controls must be a rectangular array of numbers: setting an array element with a sequence."),
            "model-string-weights": ("RationalCurveModel.with_uniform_knots", "weights", ["a", 1, 1, 1], T2SplineError, "weights must be a rectangular array of numbers: 'a' is not a number"),
            "polyline-complex-points": ("Polyline", ("points", "params"), (np.array([[1 + 2j, 2]]), [0.0]), T2SplineError, "points must be a rectangular array of numbers: float() argument must be a string or a real number, not 'complex'"),
            "polyline-object-params": ("Polyline", ("points", "params"), ([[1.0, 2.0]], [{}]), T2SplineError, "params must be a rectangular array of numbers: float() argument must be a string or a real number, not 'dict'"),
            "polyline-ragged-points": ("Polyline", ("points", "params"), ([[1.0, 2.0], [3.0]], [0.0, 1.0]), T2SplineError, "points must be a rectangular array of numbers: setting an array element with a sequence."),
            "polyline-string-points": ("Polyline", ("points", "params"), ([["a", "b"]], [0.0]), T2SplineError, "points must be a rectangular array of numbers: 'a' is not a number"),
        },
        "test_constructors_reject_strings_none_and_bools": {
            "knots-string-array": ("KnotVector", ("knots", "order"), (np.array(["0", "0", "1", "1"]), 2), T2SplineError, "knots must be a rectangular array of numbers: '0' is not a number"),
            "model-bool-array-weights": ("RationalCurveModel.with_uniform_knots", "weights", np.ones(4, dtype=bool), T2SplineError, "weights must be a rectangular array of numbers: True is not a number"),
            "model-bool-weights": ("RationalCurveModel.with_uniform_knots", "weights", [True, 1, 1, 1], T2SplineError, "weights must be a rectangular array of numbers: True is not a number"),
            "model-numeric-string-controls": ("RationalCurveModel.with_uniform_knots", ("controls", "order"), ([["0", "0"], ["1", "1"], ["2", "0"]], 2), T2SplineError, "controls must be a rectangular array of numbers: '0' is not a number"),
            "polyline-bool-params": ("Polyline", ("points", "params"), ([[1.0, 2.0]], [False]), T2SplineError, "params must be a rectangular array of numbers: False is not a number"),
            "polyline-bytes": ("Polyline", ("points", "params"), ([[b"1", 2]], [0.0]), T2SplineError, "points must be a rectangular array of numbers: b'1' is not a number"),
            "polyline-none": ("Polyline", ("points", "params"), ([[None, 2]], [0.0]), T2SplineError, "points must be a rectangular array of numbers: None is not a number"),
            "polyline-numeric-strings": ("Polyline", ("points", "params"), ([["1", "2"]], [0.0]), T2SplineError, "points must be a rectangular array of numbers: '1' is not a number"),
        },
        "test_knot_vector_rejects_nan_knot": [("KnotVector", "knots", np.array([0, 0, 0, np.nan, 1, 1, 1]), T2SplineError, "knots must be finite")],
        "test_knot_vector_refuses_a_non_finite_knot": {
            "inf": ("KnotVector", "knots", [0, 0, 0, np.inf, np.inf, np.inf], T2SplineError, "knots must be finite"),
            "minus-inf": ("KnotVector", "knots", [-np.inf] * 3 + [0] * 3, T2SplineError, "knots must be finite"),
            "nan": ("KnotVector", "knots", [0, 0, 0, np.nan, 1, 1, 1], T2SplineError, "knots must be finite"),
        },
        "test_knot_vector_refuses_an_empty_domain": {
            "knots0-3": ("KnotVector", ("knots", "order"), (np.ones(6), 3), T2SplineError, "knot vector of order 3 has an empty domain [1.0, 1.0]"),
            "knots1-2": ("KnotVector", ("knots", "order"), (np.zeros(4), 2), T2SplineError, "knot vector of order 2 has an empty domain [0.0, 0.0]"),
            "knots2-4": ("KnotVector", ("knots", "order"), ([2.5] * 8, 4), T2SplineError, "knot vector of order 4 has an empty domain [2.5, 2.5]"),
        },
        "test_knot_vector_refuses_knots_that_are_not_one_dimensional": [("KnotVector", "knots", np.zeros((3, 2)), T2SplineError, "knots must be a 1-D array, got shape (3, 2)")],
        "test_knot_vector_of_no_knots_names_the_knot_count_and_the_order": [("KnotVector", "knots", np.zeros(0), OrderExceedsControlCount, "order 3 needs at least twice as many knots, got 0")],
        "test_basis_of_an_order_beyond_the_knots_names_the_knot_count_and_the_order": [("basis", "order", 9, OrderExceedsControlCount, "order 9 needs at least twice as many knots, got 7")],
        "test_one_parameter_evaluators_refuse_a_t_that_is_not_one_number": {
            f"{entry}-{name}": (entry, "t", t, T2SplineError, message)
            for name, (t, message) in _NOT_ONE_T.items()
            for entry in ("basis_row", "basis", "rational_point")
        },
        "test_basis_of_knot_vector_with_empty_domain_rejected": [("KnotVector", "knots", np.zeros(6), T2SplineError, "knot vector of order 3 has an empty domain [0.0, 0.0]")],
        "test_basis_of_another_order_with_an_empty_domain_rejected": [("basis", ("kv", "t"), (KnotVector([0, 0, 1, 1, 1, 1], 2), 1.0), T2SplineError, "knot vector must be clamped (end multiplicity = order)")],
        "test_a_numpy_complex_scalar_is_not_a_number": {
            "fuzzy-scalar": ("NT2FuzzyScalar", "ll", np.complex128(1 + 2j), T2SplineError, "ll must be a number, got np.complex128(1+2j)"),
            "pipeline-alpha": ("pipeline_point", ("p", "alpha"), (NT2FuzzyPoint.crisp(1, 1), np.complex64(0.5 + 0.25j)), AlphaOutOfRange, "alpha must be a number, got np.complex64(0.5+0.25j)"),
            "rational-point-t": ("rational_point", "t", np.complex128(0.5 + 3j), T2SplineError, "t must be a number, got np.complex128(0.5+3j)"),
            "float-array": ("bspline.float_array", "value", [np.complex128(3 + 1j), 1.0], T2SplineError, "w must be a rectangular array of numbers: np.complex128(3+1j) is not a number"),
        },
        "test_a_control_count_the_knots_cannot_hold_is_refused": {
            name: ("clamped_uniform_knots", ("n", "k"), (n, 2), T2SplineError, f"the control count must be at most {_MOST_CONTROLS} for order 2, got {text}")
            for name, n, text in [
                ("2**63-1", 2**63 - 1, 2**63 - 1), ("2**63", 2**63, 2**63), ("uint64-2**63", np.uint64(2**63), "np.uint64(9223372036854775808)"),
                ("2**60+7", 2**60 + 7, 2**60 + 7), ("2**62", 2**62, 2**62), ("2**64+5", 2**64 + 5, 2**64 + 5), ("10**400", 10**400, "a 401-digit integer"),
            ]
        },
        "test_polyline_rejects_nan_param": [("Polyline", "params", np.array([0.0, np.nan, 1.0]), T2SplineError, "params must be finite and strictly increasing")],
        "test_polyline_needs_a_point": [("Polyline", ("points", "params"), (np.zeros((0, 2)), np.zeros(0)), T2SplineError, "a polyline needs at least one point")],
        "test_sample_count_above_bound_rejected_before_allocation": [
            ("sample_curve", "samples", samples, T2SplineError, f"samples must be an integer from 2 to {MAX_SAMPLES} for order 3, got {samples}")
            for samples in (MAX_SAMPLES + 1, 10**9, 10**12)
        ],
        "test_sample_bound_checks_the_order_first": {
            str(order): ("ModelDocument", ("points", "weights", "order", "samples"), (_FIVE_POINTS, [1.0] * 5, order, 10**9), ValidationError, message)
            for order, message in [
                (3.7, "order must be an integer, got 3.7"), (True, "order must be an integer, got True"), ("3", "order must be an integer, got '3'"),
                (1, "order must be at least 2, got 1"), (6, "order 6 exceeds control count 5"),
            ]
        },
    },
    "test_curves": {
        "test_deviation_rejects_mismatched_sampling": {
            "length": ("deviation", "b", sample_curve(CRISP_CURVE, 22), SampleMismatch, "polyline b sampled at different parameters"),
            "same-length": ("deviation", "b", Polyline(LINE.points, LINE.params * 0.5), SampleMismatch, "polyline b sampled at different parameters"),
        },
        "test_band_rejects_differently_sampled_components": {
            "length": ("CurveBand", "r", fuzzy_curve_band(ASYMMETRIC, 22).r, SampleMismatch, "band component r sampled at different parameters"),
            "same-length": ("CurveBand", "r", Polyline(BAND.r.points, BAND.r.params * 0.5), SampleMismatch, "band component r sampled at different parameters"),
        },
        "test_deviation_and_band_refuse_what_is_not_a_polyline": {
            name: [
                ("deviation", "b", other, T2SplineError, f"polyline b must be a Polyline, got {type(other).__name__}"),
                ("deviation", "a", other, T2SplineError, f"polyline a must be a Polyline, got {type(other).__name__}"),
                ("CurveBand", "ll", other, T2SplineError, f"band component ll must be a Polyline, got {type(other).__name__}"),
                ("ReducedCurves", "left", other, T2SplineError, f"reduced curve tr_left must be a Polyline, got {type(other).__name__}"),
            ]
            for name, other in _NOT_POLYLINES.items()
        },
        "test_reduced_curves_reject_differently_sampled_curves": {
            "length": ("ReducedCurves", "right", reduced_curves(ASYMMETRIC, 22).right, SampleMismatch, "reduced curve tr_right sampled at different parameters"),
            "same-length": ("ReducedCurves", "right", Polyline(REDUCED.right.points, REDUCED.right.params * 0.5), SampleMismatch, "reduced curve tr_right sampled at different parameters"),
        },
        "test_evaluate_rejects_unknown_groups": [("curves.evaluate", "groups", ["band", "tr_left", "bogus"], T2SplineError, "unknown series ['bogus', 'tr_left']; choose from band, reduced, crisp, defuzzified, all")],
        "test_evaluate_names_every_unknown_series": {
            "two-unknown": ("curves.evaluate", "groups", ["bogus", "tr_left"], T2SplineError, "unknown series ['bogus', 'tr_left']; choose from band, reduced, crisp, defuzzified, all"),
            "all-and-unknown": ("curves.evaluate", "groups", ["all", "bogus"], T2SplineError, "unknown series ['bogus']; choose from band, reduced, crisp, defuzzified, all"),
            "not-a-str": ("curves.evaluate", "groups", {"crisp", 7}, T2SplineError, "unknown series [7]; choose from band, reduced, crisp, defuzzified, all"),
        },
        "test_evaluate_refuses_a_request_that_is_not_a_collection_of_names": {
            "empty-list": ("curves.evaluate", "groups", [], T2SplineError, "series must be a non-empty collection of names from band, reduced, crisp, defuzzified, all, got list"),
            "empty-set": ("curves.evaluate", "groups", set(), T2SplineError, "series must be a non-empty collection of names from band, reduced, crisp, defuzzified, all, got set"),
            "int": ("curves.evaluate", "groups", 0, T2SplineError, "series must be a non-empty collection of names from band, reduced, crisp, defuzzified, all, got int"),
            "none": ("curves.evaluate", "groups", None, T2SplineError, "series must be a non-empty collection of names from band, reduced, crisp, defuzzified, all, got NoneType"),
            "str": ("curves.evaluate", "groups", "crisp", T2SplineError, "series must be a non-empty collection of names from band, reduced, crisp, defuzzified, all, got str"),
            "bytes": ("curves.evaluate", "groups", b"crisp", T2SplineError, "series must be a non-empty collection of names from band, reduced, crisp, defuzzified, all, got bytes"),
            "unhashable-name": ("curves.evaluate", "groups", [["crisp"]], T2SplineError, "series must be a non-empty collection of names from band, reduced, crisp, defuzzified, all, got list"),
        },
        "test_fuzzy_model_validation": [
            ("FuzzyCurveModel.with_uniform_knots", "alpha", 1.0, AlphaOutOfRange, "alpha must lie in [0, 1), got 1.0"),
            ("FuzzyCurveModel.with_uniform_knots", "weights", np.array([1, 1, 1, -1.0]), T2SplineError, "weights must all be finite and > 0"),
            ("FuzzyCurveModel.with_uniform_knots", "points", CRISP_POINTS[:2], OrderExceedsControlCount, "order 3 exceeds control count 2"),
        ],
        "test_fuzzy_model_alpha_is_checked_by_the_pipeline_rule": {
            repr(alpha): ("FuzzyCurveModel.with_uniform_knots", "alpha", alpha, AlphaOutOfRange, f"alpha must lie in [0, 1), got {alpha!r}")
            for alpha in (1.0, math.nan, -0.1)
        },
        "test_fuzzy_model_order_must_match_the_knots": {
            "1": ("FuzzyCurveModel", ("coords", "weights", "order"), (CRISP_POINTS, np.ones(4), 1), T2SplineError, "order must be at least 2, got 1"),
            "4": ("FuzzyCurveModel", ("coords", "weights", "order"), (CRISP_POINTS, np.ones(4), 4), T2SplineError, "knot vector (order 3, 4 controls) does not match model (order 4, 4 controls)"),
        },
        "test_a_zero_dimensional_coordinate_array_is_refused_by_its_shape": {
            "document": ("ModelDocument", ("points", "weights", "order", "alpha", "samples"), (np.array(0.5), [1], 2, 0.5, 5), ValidationError, "coordinates must be an (n, 2, 8) array, got shape ()"),
            "with-uniform-knots": ("FuzzyCurveModel.with_uniform_knots", "points", np.array(0.5), T2SplineError, "coordinates must be an (n, 2, 8) array, got shape ()"),
        },
        "test_integer_and_alpha_inputs_of_constructors_raise_the_package_error": {
            "knots-float-order": ("clamped_uniform_knots", "k", 3.0, T2SplineError, "order must be an integer, got 3.0"),
            "knots-bool-order": ("clamped_uniform_knots", "k", True, T2SplineError, "order must be an integer, got True"),
            "to-model-float-order": ("ModelDocument.to_model", "order", 2.5, T2SplineError, "order must be an integer, got 2.5"),
            "to-model-float-order-equal-to-the-document-order": ("ModelDocument.to_model", "order", 3.0, T2SplineError, "order must be an integer, got 3.0"),
            "to-model-bool-alpha-at-document-alpha-0": ("ModelDocument.to_model", ("self", "alpha"), (ModelDocument(CRISP_COORDS, np.ones(4), 3, 0.0, 101), False), AlphaOutOfRange, "alpha must be a number, got False"),
            "rational-string-order": ("RationalCurveModel.with_uniform_knots", "order", "3", T2SplineError, "order must be an integer, got '3'"),
            "fuzzy-string-order": ("FuzzyCurveModel.with_uniform_knots", "order", "3", T2SplineError, "order must be an integer, got '3'"),
            "knot-vector-float-order": ("KnotVector", "order", 3.7, T2SplineError, "order must be an integer, got 3.7"),
            "knot-vector-none-order": ("KnotVector", "order", None, T2SplineError, "order must be an integer, got None"),
            "rational-float-order": ("RationalCurveModel", ("weights", "order"), (np.ones(4), 3.7), T2SplineError, "order must be an integer, got 3.7"),
            "fuzzy-integral-float-order": ("FuzzyCurveModel", ("coords", "weights", "order"), (CRISP_COORDS, np.ones(4), 3.0), T2SplineError, "order must be an integer, got 3.0"),
            "float-samples": ("sample_curve", ("m", "samples"), (CRISP_CURVE, 2.5), T2SplineError, "samples must be an integer from 2 to 16777216 for order 3, got 2.5"),
            "none-samples": ("sample_curve", ("m", "samples"), (CRISP_CURVE, None), T2SplineError, "samples must be an integer from 2 to 16777216 for order 3, got None"),
            "bool-samples": ("sample_curve", ("m", "samples"), (CRISP_CURVE, True), T2SplineError, "samples must be an integer from 2 to 16777216 for order 3, got True"),
            "none-alpha": ("FuzzyCurveModel.with_uniform_knots", "alpha", None, AlphaOutOfRange, "alpha must be a number, got None"),
            "string-alpha": ("FuzzyCurveModel.with_uniform_knots", "alpha", "0.5", AlphaOutOfRange, "alpha must be a number, got '0.5'"),
            "bool-alpha": ("FuzzyCurveModel.with_uniform_knots", "alpha", False, AlphaOutOfRange, "alpha must be a number, got False"),
            "document-int-points": ("ModelDocument", ("points", "weights"), (5, np.ones(4)), ValidationError, "fuzzy_controls must be NT2FuzzyPoint instances or an (n, 2, 8) array, got int"),
            "fuzzy-int-coords": ("FuzzyCurveModel", ("coords", "weights"), (5, np.ones(4)), T2SplineError, "fuzzy_controls must be NT2FuzzyPoint instances or an (n, 2, 8) array, got int"),
            "uniform-knots-int-points": ("FuzzyCurveModel.with_uniform_knots", "points", 5, T2SplineError, "fuzzy_controls must be NT2FuzzyPoint instances or an (n, 2, 8) array, got int"),
            "as-coords-int": ("fuzzy.as_coords", "points", 5, T2SplineError, "fuzzy_controls must be NT2FuzzyPoint instances or an (n, 2, 8) array, got int"),
            "uniform-knots-overflowing-alpha": ("FuzzyCurveModel.with_uniform_knots", "alpha", 10**400, AlphaOutOfRange, "alpha must be a number, got a 401-digit integer"),
            "document-overflowing-alpha": ("ModelDocument", ("points", "weights", "alpha"), (CRISP_COORDS, np.ones(4), 10**400), ValidationError, "alpha must be a number, got a 401-digit integer"),
            "to-model-overflowing-alpha": ("ModelDocument.to_model", "alpha", 10**400, AlphaOutOfRange, "alpha must be a number, got a 401-digit integer"),
            "cut-overflowing-alpha": ("alpha_cut_scalar", ("s", "alpha"), (CRISP_POINT.x, 10**400), AlphaOutOfRange, "alpha must be a number, got a 401-digit integer"),
            "pipeline-point-overflowing-alpha": ("pipeline_point", ("p", "alpha"), (CRISP_POINT, 10**400), AlphaOutOfRange, "alpha must be a number, got a 401-digit integer"),
            "basis-row-string-t": ("basis_row", "t", "0.5", T2SplineError, "t must be a number, got '0.5'"),
            "basis-string-t": ("basis", "t", "0.25", T2SplineError, "t must be a number, got '0.25'"),
            "rational-point-bool-t": ("rational_point", ("m", "t"), (CRISP_CURVE, True), T2SplineError, "t must be a number, got True"),
            "rational-point-overflowing-t": ("rational_point", ("m", "t"), (CRISP_CURVE, 10**400), T2SplineError, "t must be a number, got a 401-digit integer"),
            "membership-string-x": ("NT2FuzzyScalar.membership_upper", ("self", "x"), (CRISP_POINT.x, "0.1"), T2SplineError, "x must be a number, got '0.1'"),
            "uniform-knots-string-count": ("clamped_uniform_knots", "n", "4", T2SplineError, "the control count must be an integer, got '4'"),
            "rational-int-controls": ("RationalCurveModel.with_uniform_knots", "controls", 5, T2SplineError, "controls must be an (m, 2) array, got shape ()"),
            "fuzzy-string-coords": ("FuzzyCurveModel.with_uniform_knots", "points", CRISP_COORDS.astype(str), T2SplineError, "coordinates must be a rectangular array of numbers: '0.0' is not a number"),
            "fuzzy-complex-coords": ("FuzzyCurveModel.with_uniform_knots", "points", CRISP_COORDS.astype(complex), T2SplineError, "coordinates must be a rectangular array of numbers: float() argument must be a string or a real number, not 'complex'"),
            "as-coords-bool": ("fuzzy.as_coords", "points", CRISP_COORDS.astype(bool), T2SplineError, "coordinates must be a rectangular array of numbers: False is not a number"),
        },
        "test_an_integer_too_long_to_print_is_shown_by_its_digit_count": {
            "check-order": ("bspline.check_order", "order", HUGE, OrderExceedsControlCount, "order a 5001-digit integer exceeds control count 4"),
            "check-samples": ("bspline.check_samples", "samples", HUGE, T2SplineError, "samples must be an integer from 2 to 16777216 for order 3, got a 5001-digit integer"),
            "basis-index": ("basis", "i", HUGE, _IndexOutOfRange, "basis index a 5001-digit integer out of range for 4 basis functions"),
            "scalar-component": ("NT2FuzzyScalar", "rr", HUGE, T2SplineError, "rr must be a number, got a 5001-digit integer"),
            "from-spreads-crisp": ("NT2FuzzyScalar.from_spreads", "c", HUGE, T2SplineError, "c must be a number, got a 5001-digit integer"),
            "from-spreads-spread": ("NT2FuzzyScalar.from_spreads", "spreads", (1, 1, 1, 1, 1, -HUGE), T2SplineError, "spread outer_right must be a number, got a 5001-digit integer"),
            "membership-x": ("NT2FuzzyScalar.membership_upper", ("self", "x"), (CRISP_POINT.x, HUGE), T2SplineError, "x must be a number, got a 5001-digit integer"),
            "uniform-knots-order": ("FuzzyCurveModel.with_uniform_knots", "order", HUGE, OrderExceedsControlCount, "order a 5001-digit integer exceeds control count 4"),
            "uniform-knots-alpha": ("FuzzyCurveModel.with_uniform_knots", "alpha", HUGE, AlphaOutOfRange, "alpha must be a number, got a 5001-digit integer"),
            "document-order": ("ModelDocument", ("points", "weights", "order"), (CRISP_COORDS, np.ones(4), HUGE), ValidationError, "order a 5001-digit integer exceeds control count 4"),
            "document-samples": ("ModelDocument", ("points", "weights", "samples"), (CRISP_COORDS, np.ones(4), HUGE), ValidationError, "samples must be an integer from 2 to 16777216 for order 3, got a 5001-digit integer"),
            "to-model-order": ("ModelDocument.to_model", "order", HUGE, OrderExceedsControlCount, "order a 5001-digit integer exceeds control count 4"),
            "to-model-alpha": ("ModelDocument.to_model", "alpha", HUGE, AlphaOutOfRange, "alpha must be a number, got a 5001-digit integer"),
            "band-samples": ("fuzzy_curve_band", "samples", HUGE, T2SplineError, "samples must be an integer from 2 to 16777216 for order 3, got a 5001-digit integer"),
            "sample-curve-samples": ("sample_curve", ("m", "samples"), (CRISP_CURVE, HUGE), T2SplineError, "samples must be an integer from 2 to 16777216 for order 3, got a 5001-digit integer"),
            "cut-alpha": ("alpha_cut_scalar", ("s", "alpha"), (CRISP_POINT.x, HUGE), AlphaOutOfRange, "alpha must be a number, got a 5001-digit integer"),
            "knot-vector-order": ("KnotVector", ("knots", "order"), ([0, 0, 0, 1, 1, 1], HUGE), OrderExceedsControlCount, "order a 5001-digit integer needs at least twice as many knots, got 6"),
            "from-spreads-spreads": ("NT2FuzzyScalar.from_spreads", "spreads", HUGE, T2SplineError, "spreads must be the six values outer_left, principal_left, inner_left, inner_right, principal_right, outer_right, got a 5001-digit integer"),
            "cut-regime": ("AlphaCutScalar", "regime", HUGE, T2SplineError, "regime must be a Regime, got a 5001-digit integer"),
        },
    },
    "test_fuzzy": {
        "test_ordering_violation_names_the_pair": [("NT2FuzzyScalar", ("l", "rl"), (4.6, 4.3), OrderingViolation, "ordering violated: l > rl (4.6 > 4.3)")],
        "test_height_out_of_range": {
            repr(h): ("NT2FuzzyScalar", "h", h, HeightOutOfRange, f"h must lie in (0, 1], got {h!r}") for h in (0.0, -0.2, 1.0001, math.nan)
        },
        "test_non_finite_component_rejected": [("NT2FuzzyScalar", "rl", math.inf, T2SplineError, "components must be finite, got [4.0, 4.3, inf, 5.0, 5.4, 5.7, 6.0]")],
        "test_scalar_constructors_reject_what_is_not_a_number": {
            "bool-component": ("NT2FuzzyScalar", "ll", True, T2SplineError, "ll must be a number, got True"),
            "bool-height": ("NT2FuzzyScalar", "h", True, T2SplineError, "h must be a number, got True"),
            "bool-spread": ("NT2FuzzyScalar.from_spreads", "spreads", (True, 1, 1, 1, 1, 1), T2SplineError, "spread outer_left must be a number, got True"),
            "bytes-component": ("NT2FuzzyScalar", "c", b"4", T2SplineError, "c must be a number, got b'4'"),
            "none-component": ("NT2FuzzyScalar", "rr", None, T2SplineError, "rr must be a number, got None"),
            "none-crisp": ("NT2FuzzyScalar.from_spreads", "c", None, T2SplineError, "c must be a number, got None"),
            "none-spread": ("NT2FuzzyScalar.from_spreads", "spreads", (1, 1, None, 1, 1, 1), T2SplineError, "spread inner_left must be a number, got None"),
            "numeric-string-component": ("NT2FuzzyScalar", "ll", "1", T2SplineError, "ll must be a number, got '1'"),
            "numeric-string-crisp": ("NT2FuzzyScalar.from_spreads", "c", "5", T2SplineError, "c must be a number, got '5'"),
            "numpy-bool-component": ("NT2FuzzyScalar", "ll", np.True_, T2SplineError, "ll must be a number, got np.True_"),
            "overflowing-int": ("NT2FuzzyScalar", "rr", 10**400, T2SplineError, "rr must be a number, got a 401-digit integer"),
            "refused-by-float": ("NT2FuzzyScalar", "h", 0.5j, T2SplineError, "h must be a number, got 0.5j"),
            "string-height-of-spreads": ("NT2FuzzyScalar.from_spreads", "h", "0.5", T2SplineError, "h must be a number, got '0.5'"),
            "string-spread": ("NT2FuzzyScalar.from_spreads", "spreads", (1, 1, 1, 1, 1, "1"), T2SplineError, "spread outer_right must be a number, got '1'"),
        },
        "test_from_spreads_rejects_other_than_six_spreads": {
            "five": ("NT2FuzzyScalar.from_spreads", "spreads", (1,) * 5, T2SplineError, "spreads must be the six values outer_left, principal_left, inner_left, inner_right, principal_right, outer_right, got a tuple of 5 values"),
            "seven": ("NT2FuzzyScalar.from_spreads", "spreads", [1] * 7, T2SplineError, "spreads must be the six values outer_left, principal_left, inner_left, inner_right, principal_right, outer_right, got a list of 7 values"),
            "five-too-long-to-print": ("NT2FuzzyScalar.from_spreads", "spreads", (10**5000,) * 5, T2SplineError, "spreads must be the six values outer_left, principal_left, inner_left, inner_right, principal_right, outer_right, got a tuple of 5 values"),
            "int": ("NT2FuzzyScalar.from_spreads", "spreads", 3, T2SplineError, "spreads must be the six values outer_left, principal_left, inner_left, inner_right, principal_right, outer_right, got 3"),
            "none": ("NT2FuzzyScalar.from_spreads", "spreads", None, T2SplineError, "spreads must be the six values outer_left, principal_left, inner_left, inner_right, principal_right, outer_right, got None"),
        },
        "test_from_spreads_rejects_negative": [("NT2FuzzyScalar.from_spreads", "spreads", (1, 0.7, -0.1, 0.4, 0.7, 1), NegativeSpread, "spread inner_left must be >= 0, got -0.1")],
        "test_from_spreads_rejects_bad_side_order": [
            ("NT2FuzzyScalar.from_spreads", "spreads", (0.4, 0.7, 1, 0.4, 0.7, 1), SpreadOrderViolation, "left spreads must satisfy inner <= principal <= outer, got (1.0, 0.7, 0.4)"),
            ("NT2FuzzyScalar.from_spreads", "spreads", (1, 0.7, 0.4, 0.7, 0.4, 1), SpreadOrderViolation, "right spreads must satisfy inner <= principal <= outer, got (0.7, 0.4, 1.0)"),
        ],
        "test_point_rejects_non_scalar_coordinates": [("NT2FuzzyPoint", "x", 1.0, T2SplineError, "coordinate x must be an NT2FuzzyScalar, got float")],
        "test_coordinate_array_shape_and_values_checked": [
            ("fuzzy.as_coords", "points", np.zeros((3, 8)), T2SplineError, "coordinates must be an (n, 2, 8) array, got shape (3, 8)"),
            ("fuzzy.as_coords", "points", np.array([[[4, 4.3, 4.6, 5, 5.4, 5.7, 6, 0.6], [4, 4.3, 4.6, 5, 5.4, 5.7, 6, 1.5]]]), ValidationError, "point 0, coordinate y: h must lie in (0, 1], got 1.5"),
            ("fuzzy.as_coords", "points", [SCALAR], T2SplineError, "fuzzy_controls must be NT2FuzzyPoint instances"),
        ],
    },
    "test_pipeline": {
        "test_alpha_out_of_range": {
            repr(alpha): ("alpha_cut_scalar", "alpha", alpha, AlphaOutOfRange, f"alpha must lie in [0, 1), got {alpha!r}")
            for alpha in (-0.1, 1.0, 1.5, math.nan)
        },
        "test_cut_scalar_structural_consistency_enforced": [
            ("AlphaCutScalar", ("left_inner", "right_inner"), (None, None), T2SplineError, "below-regime cut must carry both inner components"),
            ("AlphaCutScalar", "regime", Regime.BETWEEN, T2SplineError, "between-regime cut must carry no inner components"),
        ],
        "test_cut_and_interval_records_hold_numbers": {
            "cut-string": ("AlphaCutScalar", "left_outer", "a", T2SplineError, "left_outer must be a number, got 'a'"),
            "cut-none-inner-of-the-between-regime": ("AlphaCutScalar", ("left_inner", "right_inner", "regime", "right_outer"), (None, None, Regime.BETWEEN, None), T2SplineError, "right_outer must be a number, got None"),
            "cut-overflowing-alpha": ("AlphaCutScalar", "alpha", HUGE, T2SplineError, "alpha must be a number, got a 5001-digit integer"),
            "interval-string": ("TRInterval", "left", "x", T2SplineError, "left must be a number, got 'x'"),
            "interval-bool": ("TRInterval", "alpha", True, T2SplineError, "alpha must be a number, got True"),
        },
        "test_cut_scalar_regime_must_be_a_regime": {
            str(regime): ("AlphaCutScalar", "regime", regime, T2SplineError, f"regime must be a Regime, got {regime!r}") for regime in ("below", None)
        },
        "test_pipeline_point_refuses_an_overflowing_point_as_solve_does": [("pipeline_point", ("p", "alpha"), (NT2FuzzyPoint(NT2FuzzyScalar(-1e308, -1e308, -1e308, 0.0, 1e308, 1e308, 1e308, 0.5), NT2FuzzyPoint.crisp(0, 0).y), 0.3), ValidationError, "point 0, coordinate x: the type-reduced interval (-inf, 0.0, inf) and its defuzzified value nan at alpha 0.3 must be finite")],
        "test_array_chain_alpha_out_of_range": {
            repr(alpha): ("pipeline.solve", "alpha", alpha, AlphaOutOfRange, f"alpha must lie in [0, 1), got {alpha!r}") for alpha in (-0.1, 1.0, math.nan)
        },
        "test_array_chain_names_the_first_overflowing_coordinate": [
            ("pipeline.solve", "coords", np.array([[_SOLVE_OK, _SOLVE_OK], [_SOLVE_OK, _SOLVE_WIDE], [_SOLVE_WIDE, _SOLVE_OK]]), ValidationError, _OVERFLOW),
            ("pipeline.solve", "coords", np.array([[[1e308] * 7 + [0.9], _SOLVE_OK]]), ValidationError, "point 0, coordinate x: the type-reduced interval (inf, 1e+308, inf) and its defuzzified value inf at alpha 0.5 must be finite"),
        ],
    },
    "test_output": {
        "test_csv_rejects_mismatched_series": {
            "length": ("write_csv", ("ts", "series"), (np.linspace(0.0, 1.0, 21), {"a": np.zeros((21, 2)), "b": np.zeros((22, 2))}), SampleMismatch, "series b has 22 points for 21 parameters"),
            "same-length": ("write_csv", ("ts", "series"), (np.linspace(0.0, 1.0, 21), {"a": np.zeros((22, 2)), "b": np.zeros((22, 2))}), SampleMismatch, "series a has 22 points for 21 parameters"),
        },
        "test_csv_rejects_no_series": [("write_csv", "series", {}, T2SplineError, "no series to write")],
        "test_csv_rejects_series_that_is_not_iterable": {
            "int": ("write_csv", "series", 5, T2SplineError, "series must be a mapping of labels to points, got int"),
            "none": ("write_csv", "series", None, T2SplineError, "series must be a mapping of labels to points, got NoneType"),
            "0-d-array": ("write_csv", "series", np.array(1.0), T2SplineError, "series must be a mapping of labels to points, got ndarray"),
        },
        "test_writers_reject_points_that_are_not_finite_point_pairs": {
            name: [
                ("write_csv", "series", {"crisp": np.zeros((5, 2)), "tr_left": points}, T2SplineError, message),
                ("svg_document", "scene", Scene({"crisp": np.zeros((5, 2)), "tr_left": points}), T2SplineError, message),
            ]
            for name, (points, message) in _BAD_POINTS.items()
        },
        "test_csv_rejects_params_that_are_not_finite_and_strictly_increasing": {
            "2-d": ("write_csv", "ts", np.zeros((5, 2)), T2SplineError, "ts must be a 1-D array, got shape (5, 2)"),
            "decreasing": ("write_csv", "ts", np.linspace(1.0, 0.0, 5), T2SplineError, "ts must be finite and strictly increasing"),
            "nan": ("write_csv", "ts", np.array([0.0, 0.25, np.nan, 0.75, 1.0]), T2SplineError, "ts must be finite and strictly increasing"),
            "inf": ("write_csv", "ts", np.array([0.0, 0.25, 0.5, 0.75, np.inf]), T2SplineError, "ts must be finite and strictly increasing"),
            "strings": ("write_csv", "ts", ["0", "1", "2", "3", "4"], T2SplineError, "ts must be a rectangular array of numbers: '0' is not a number"),
        },
        "test_writers_reject_what_is_not_a_mapping_of_str_labels": {
            name: [("write_csv", "series", series, T2SplineError, message), ("svg_document", "scene", Scene(series), T2SplineError, message)]
            for name, (series, message) in _NOT_LABELLED.items()
        },
        "test_svg_refuses_a_series_labelled_controls": [("svg_document", "scene", Scene({"controls": np.array([[0.0, 0.0], [1.0, 1.0]])}, np.array([[0.0, 0.0], [1.0, 1.0]])), T2SplineError, "unknown series label 'controls'")],
        "test_svg_refuses_a_title_that_is_not_a_string": {
            "scene": ("svg_document", "scene", Scene({}, title=5), T2SplineError, "title must be a str, got int"),
            "figure": ("render_svg", "scene", Scene({}, title=5), T2SplineError, "title must be a str, got int"),
        },
        "test_writers_refuse_text_they_cannot_write": {
            "csv-label-surrogate": ("write_csv", ("series", "path_or_file"), ({"x\ud800": np.zeros((5, 2))}, "out.csv"), T2SplineError, "a series label must encode as UTF-8, got 'x\\ud800'"),
            "svg-label-surrogate": ("svg_document", "scene", Scene({"crisp\ud800": np.zeros((5, 2))}), T2SplineError, "a series label must encode as UTF-8, got 'crisp\\ud800'"),
            "figure-title-surrogate": ("render_svg", ("scene", "path_or_file"), (Scene({}, title="bad\ud800"), "out.svg"), T2SplineError, "title must hold only characters XML allows, got 'bad\\ud800'"),
            "title-vertical-tab": ("svg_document", "scene", Scene({}, title="bad\x0b"), T2SplineError, "title must hold only characters XML allows, got 'bad\\x0b'"),
            "title-nul": ("svg_document", "scene", Scene({}, title="\x00"), T2SplineError, "title must hold only characters XML allows, got '\\x00'"),
            "title-non-character": ("svg_document", "scene", Scene({}, title="\ufffe"), T2SplineError, "title must hold only characters XML allows, got '\\ufffe'"),
        },
        "test_svg_rejects_controls_that_are_not_point_pairs": {
            "controls0": ("svg_document", "scene", Scene({}, np.array([1.0, 2.0])), T2SplineError, "controls must be an (m, 2) array, got shape (2,)"),
            "controls1": ("svg_document", "scene", Scene({}, np.zeros((3, 3))), T2SplineError, "controls must be an (m, 2) array, got shape (3, 3)"),
            "5.0": ("svg_document", "scene", Scene({}, np.float64(5.0)), T2SplineError, "controls must be an (m, 2) array, got shape ()"),
            "series-1d": ("svg_document", "scene", Scene({"crisp": np.array([1.0, 2.0])}), T2SplineError, "crisp must be an (m, 2) array, got shape (2,)"),
            "series-3-columns": ("svg_document", "scene", Scene({"tr_left": np.zeros((3, 3))}), T2SplineError, "tr_left must be an (m, 2) array, got shape (3, 3)"),
            "unknown-label": ("svg_document", "scene", Scene({"bogus": np.zeros((2, 2))}), T2SplineError, "unknown series label 'bogus'"),
            "non-str-label": ("svg_document", "scene", Scene({("crisp",): np.zeros((2, 2))}), T2SplineError, "a series label must be a str, got tuple"),
        },
        "test_svg_rejects_ragged_or_non_numeric_controls": {
            "controls0": ("svg_document", "scene", Scene({}, [[1.0, 2.0], [3.0]]), T2SplineError, "controls must be a rectangular array of numbers: setting an array element with a sequence."),
            "controls1": ("svg_document", "scene", Scene({}, [["a", "b"]]), T2SplineError, "controls must be a rectangular array of numbers: 'a' is not a number"),
            "controls2": ("svg_document", "scene", Scene({}, [[1.0, {}]]), T2SplineError, "controls must be a rectangular array of numbers: float() argument must be a string or a real number, not 'dict'"),
            "series-ragged": ("svg_document", "scene", Scene({"defuzzified": [[1.0, 2.0], [3.0]]}), T2SplineError, "defuzzified must be a rectangular array of numbers: setting an array element with a sequence."),
            "series-strings": ("svg_document", "scene", Scene({"ll": [["a", "b"]]}), T2SplineError, "ll must be a rectangular array of numbers: 'a' is not a number"),
            "series-none": ("svg_document", "scene", Scene({"rr": [[1.0, None]]}), T2SplineError, "rr must be a rectangular array of numbers: None is not a number"),
        },
        "test_writers_refuse_a_target_that_is_no_stream_or_path": {
            f"{writer}-{kind}": (*WRITERS[writer], target, T2SplineError, f"output target must be a text stream or a path, got {type(target).__name__}")
            for writer in WRITERS
            for kind, target in (("none", None), ("int", 3), ("ndarray", np.zeros(3)), ("binary-stream", io.BytesIO()))
        },
        "test_writers_refuse_a_path_holding_nul": {
            f"{writer}-{kind}": (*WRITERS[writer], target, T2SplineError, f"output path must not hold a NUL character, got {target!r}")
            for writer in WRITERS
            for kind, target in (("str", "a\0b"), ("bytes", b"a\0b"), ("path", pathlib.Path("a\0b")))
        },
        # An empty path is refused with the error ``open`` raises for it.
        "test_writers_refuse_an_empty_path_as_open_does": {
            f"{writer}-{kind}": (*WRITERS[writer], target, FileNotFoundError, f"[Errno 2] No such file or directory: {target!r}")
            for writer in WRITERS
            for kind, target in (("str", ""), ("bytes", b""))
        },
        "test_pipeline_writers_refuse_what_no_solution_holds": {
            "csv-shape": ("output.write_pipeline_csv", ("points", "path_or_file"), (np.zeros((2, 3)), io.StringIO()), T2SplineError, "points must be an (m, 2) array, got shape (2, 3)"),
            "json-nan": ("output.write_pipeline_json", ("points", "path_or_file"), ([[0.0, np.nan]], io.StringIO()), T2SplineError, "points must be finite"),
            "json-alpha": ("output.write_pipeline_json", ("alpha", "path_or_file"), (1.5, io.StringIO()), AlphaOutOfRange, "alpha must lie in [0, 1), got 1.5"),
        },
        "test_svg_rejects_series_that_are_not_label_point_pairs": {
            name: ("svg_document", "scene", Scene(series), T2SplineError, f"series must be a mapping of labels to points, got {type(series).__name__}")
            for name, series in [
                ("int", 5), ("none", None), ("string", "crisp"), ("single", [("crisp",)]),
                ("triple", [("crisp", np.zeros((2, 2)), "")]), ("list-pair", [["crisp", np.zeros((2, 2))]]),
            ]
        },
    },
    "test_document": {
        "test_model_document_refuses_a_sample_count_the_parser_refuses": [("ModelDocument", "samples", 1, ValidationError, "samples must be an integer from 2 to 16777216 for order 3, got 1")],
        "test_model_document_refuses_weights_that_are_not_numbers": {
            "bool": ("ModelDocument", "weights", [1, True, 1, 1], ValidationError, "weights must be a rectangular array of numbers: True is not a number"),
            "string": ("ModelDocument", "weights", [1, "2", 1, 1], ValidationError, "weights must be a rectangular array of numbers: '2' is not a number"),
        },
        "test_model_document_without_points_raises_the_package_error": [("ModelDocument", ("points", "weights"), ([], []), ValidationError, "order 3 exceeds control count 0")],
        "test_a_document_that_is_not_text_is_a_parse_error": {
            name: ("parse_document", "text", value, ParseError, f"a document must be str, bytes or bytearray text, got {type(value).__name__}")
            for name, value in [("float", 1.0), ("none", None), ("list", [1]), ("dict", {"points": []})]
        },
        "test_model_document_refuses_an_overflow_the_parser_refuses": [("ModelDocument", ("points", "weights", "order", "alpha"), (_OVERFLOWING, [1, 1, 1], 2, 0.5), ValidationError, _OVERFLOW)],
    },
    "test_boundary": {
        "test_refusal": {
            "knot-vector-wrapping-numpy-order": ("KnotVector", ("knots", "order"), ([0, 0, 1, 1], np.uint64(2**64 - 1)), OrderExceedsControlCount, "order np.uint64(18446744073709551615) needs at least twice as many knots, got 4"),
            "basis-order-past-the-clamped-ends": ("basis", ("kv", "order"), (_ORDER4, 5), T2SplineError, "knot vector must be clamped (end multiplicity = order)"),
            **{
                f"sample-curves-past-the-point-bound-{n}": ("bspline.sample_curves", ("m", "polygons", "samples"), (_flat(n, 3), np.zeros((1, n, 2)), MAX_SAMPLES + 1), T2SplineError, f"samples must be an integer from 2 to {MAX_SAMPLES} for order 3, got {MAX_SAMPLES + 1}")
                for n in (4, 400, 5000)
            },
            **{
                f"sample-curves-past-the-work-bound-{samples}": ("bspline.sample_curves", ("m", "polygons", "samples"), (_flat(400, 400), np.zeros((1, 400, 2)), samples), T2SplineError, f"samples must be an integer from 2 to 2097 for order 400, got {samples}")
                for samples in (2098, 10**9, 10**12)
            },
            "fuzzy-model-overflow": ("FuzzyCurveModel", ("coords", "weights", "order", "knots", "alpha"), (_OVERFLOWING, [1, 1, 1], 2, clamped_uniform_knots(3, 2), 0.5), ValidationError, _OVERFLOW),
            "uniform-knots-overflow": ("FuzzyCurveModel.with_uniform_knots", ("points", "order", "alpha"), (_OVERFLOWING, 2, 0.5), ValidationError, _OVERFLOW),
            "to-model-float-order": ("ModelDocument.to_model", ("self", "order"), (ModelDocument([POINT] * 3, [1, 1, 1], 3, 0.8, 101), 3.0), T2SplineError, "order must be an integer, got 3.0"),
            "to-model-bool-alpha": ("ModelDocument.to_model", ("self", "alpha"), (ModelDocument([POINT] * 3, [1, 1, 1], 3, 0.8, 101), False), AlphaOutOfRange, "alpha must be a number, got False"),
            # A timedelta is a numpy integer type; it and a datetime are no numbers.
            "uniform-knots-timedelta-count": ("clamped_uniform_knots", "n", np.timedelta64(5), T2SplineError, "the control count must be an integer, got np.timedelta64(5)"),
            "uniform-knots-timedelta-days-count": ("clamped_uniform_knots", "n", np.timedelta64(4, "D"), T2SplineError, "the control count must be an integer, got np.timedelta64(4,'D')"),
            "knot-vector-timedelta-order": ("KnotVector", "order", np.timedelta64(3), T2SplineError, "order must be an integer, got np.timedelta64(3)"),
            "scalar-timedelta-component": ("NT2FuzzyScalar", "c", np.timedelta64(1, "D"), T2SplineError, "c must be a number, got np.timedelta64(1,'D')"),
            "scalar-datetime-height": ("NT2FuzzyScalar", "h", np.datetime64(1, "s"), T2SplineError, "h must be a number, got np.datetime64('1970-01-01T00:00:01')"),
            "sample-curve-timedelta-samples": ("sample_curve", "samples", np.timedelta64(5, "D"), T2SplineError, "samples must be an integer from 2 to 16777216 for order 3, got np.timedelta64(5,'D')"),
            "basis-timedelta-index": ("basis", "i", np.timedelta64(1), T2SplineError, "basis index must be an integer, got np.timedelta64(1)"),
            "float-array-timedelta-array": ("bspline.float_array", "value", np.array([1, 2], "m8"), T2SplineError, "w must be a rectangular array of numbers: timedelta64 values are not numbers"),
            "float-array-timedelta-seconds-array": ("bspline.float_array", "value", np.array([1, 2], "m8[s]"), T2SplineError, "w must be a rectangular array of numbers: timedelta64[s] values are not numbers"),
            "float-array-datetime-array": ("bspline.float_array", "value", np.array(["2020-01-01"], "M8[D]"), T2SplineError, "w must be a rectangular array of numbers: datetime64[D] values are not numbers"),
            "float-array-timedelta-in-a-list": ("bspline.float_array", "value", [np.timedelta64(1), 2.0], T2SplineError, "w must be a rectangular array of numbers: np.timedelta64(1) is not a number"),
            "float-array-datetime-in-a-list": ("bspline.float_array", "value", [np.datetime64(1, "s")], T2SplineError, "w must be a rectangular array of numbers: np.datetime64('1970-01-01T00:00:01') is not a number"),
            "polyline-timedelta-points": ("Polyline", "points", np.zeros((3, 2), "m8[s]"), T2SplineError, "points must be a rectangular array of numbers: timedelta64[s] values are not numbers"),
            "alpha-timedelta": ("alpha_cut_scalar", "alpha", np.timedelta64(0), AlphaOutOfRange, "alpha must be a number, got np.timedelta64(0)"),
            "evaluate-timedelta-name": ("curves.evaluate", "groups", [np.timedelta64(1)], T2SplineError, "series must be a non-empty collection of names from band, reduced, crisp, defuzzified, all, got list"),
        },
    },
}

globals().update(refusal_tests(REFUSALS["test_boundary"]))


#: Types of the package's objects: a parameter whose valid value is one
#: gets that object in every draw.
_OBJECTS = (KnotVector, RationalCurveModel, Polyline, FuzzyCurveModel, ModelDocument, NT2FuzzyScalar, NT2FuzzyPoint, AlphaCutScalar, TRInterval, Scene, Regime)

#: Each (entry point, parameter) pair a hostile value is drawn for: every
#: parameter but a model and a render function, also of the spreads rule,
#: which the parser calls with a document's values.
_DRAWN = [
    (entry, parameter)
    for entry, (_, valid) in [*ENTRY_POINTS.items(), ("fuzzy.row_from_spreads", INTERNALS["fuzzy.row_from_spreads"])]
    for parameter, value in valid.items()
    if not (isinstance(value, _OBJECTS) or callable(value))
]

#: Values that are no valid input, or are one only by a narrow rule; each
#: mutable one is built afresh for each draw.
_HOSTILE = st.one_of(
    st.sampled_from([
        2**63 - 1, 2**63, -(2**63) - 1, 2**64, 10**400, -(10**400), 10**5000, -1, 0, 1, 2, 3,
        True, False, None, "", "1", "nan", "\0", b"", b"1",
        math.nan, math.inf, -math.inf, -0.0, 5e-324, -5e-324, 1e308, 0.5,
        np.int8(-1), np.uint64(2**64 - 1), np.float16(1), np.float32("nan"), np.longdouble(0.5), np.bool_(True),
        np.complex64(1), np.complex128(0.5 + 1j), np.str_("1"), np.bytes_(b"1"), np.void(b"1"),
        np.datetime64("2020-01-01"), np.datetime64(3, "s"), np.timedelta64(2, "D"),
        Fraction(1, 3), Fraction(10**400), Decimal("0.5"), Decimal("sNaN"), Decimal("1e400"), 1 + 2j, (), frozenset(),
    ]),
    st.sampled_from([
        lambda: np.timedelta64(3), lambda: np.timedelta64("NaT"),  # generic timedeltas cannot be hashed
        list, dict, set, lambda: [[]], lambda: [[], []], lambda: [1, [2]], lambda: [[1.0, 2.0], [3.0]], lambda: [[1.0, 2.0], [3.0, 4.0]],
        lambda: [[0.0, 1.0, 2.0]] * 3, lambda: [-1e308, 1e308], lambda: [10**400, 1], lambda: [np.timedelta64(1), 2.0], lambda: [None, 1.0], lambda: ["a", "b"],
        lambda: {"crisp": np.zeros((2, 2))}, lambda: {1: [[0.0, 0.0]]},
        lambda: np.array(0.5), lambda: np.array([]), lambda: np.zeros((2, 2)), lambda: np.zeros((2, 2, 2)), lambda: np.ones((1, 2, 8)),
        lambda: np.array([1 + 1j, 2]), lambda: np.array(["a", "b"]), lambda: np.array([b"a"]), lambda: np.array([True, False]),
        lambda: np.array([1, 2], "m8"), lambda: np.array([1, 2], "m8[s]"), lambda: np.zeros((2, 2), "m8[D]"), lambda: np.array(["2020-01-01"], "M8[D]"),
        lambda: np.array([None, 1.0], dtype=object), lambda: np.array([np.inf, np.inf]), lambda: np.full((2, 2), np.nan),
        lambda: np.array([10**400, 1], dtype=object), lambda: np.zeros(3, dtype=[("a", float)]), io.BytesIO, io.StringIO,
    ]).map(lambda make: make()),
    st.builds(iter, st.lists(st.floats(), max_size=3)),
    st.floats(),
)


@settings(deadline=None)
@given(where=st.sampled_from(_DRAWN), value=_HOSTILE)
@example(where=("clamped_uniform_knots", "n"), value=np.timedelta64(5))
@example(where=("clamped_uniform_knots", "n"), value=np.timedelta64(4, "D"))
@example(where=("NT2FuzzyScalar", "c"), value=np.timedelta64(1, "D"))
@example(where=("sample_curve", "samples"), value=np.timedelta64(5, "D"))
@example(where=("curves.evaluate", "groups"), value=[np.timedelta64(1)])
@example(where=("Polyline", "params"), value=[-1e308, 1e308])
def test_a_hostile_value_is_returned_or_refused(where, value):
    """One hostile value in one parameter of one entry point, the others
    valid: the call returns or raises :class:`T2SplineError`, and warns of
    nothing.

    An output target may also be the empty path, refused as ``open``
    refuses it; a drawn path is written in a new working folder.

    Out of scope: a parameter that takes one of the package's objects or a
    render function gets its valid value.  A value that is not the object
    the parameter names raises ``AttributeError`` or ``TypeError`` there.
    No integer from 4 to 2**63 - 2 is drawn: as a control count up to
    ``bspline._MOST_KNOTS`` or a sample count up to ``MAX_SAMPLES`` it is
    valid, and allocates arrays of that length.
    """
    entry, parameter = where
    with warnings.catch_warnings(), tempfile.TemporaryDirectory() as folder, pytest.MonkeyPatch.context() as patch:
        warnings.simplefilter("error")
        patch.chdir(folder)
        try:
            call(entry, parameter, value)
        except T2SplineError:
            pass
        except FileNotFoundError:
            assert where in WRITERS.values() and value in ("", b"")


# --- the command line ------------------------------------------------------------


def run_cli(argv, document=None, sentinel=None):
    """``cli.run`` in process on the command line ``argv``, split into words
    as a POSIX shell splits it, its ``{doc}`` and ``{out}`` two paths in a
    new directory that hold ``document`` and ``sentinel`` (text or bytes)
    unless None.  Returns the exit code, the
    standard output and error with the paths shown as ``{doc}`` and
    ``{out}``, and the bytes at ``{out}`` afterwards (None if absent)."""
    with tempfile.TemporaryDirectory() as folder:
        paths = {"{doc}": pathlib.Path(folder, "doc.json"), "{out}": pathlib.Path(folder, "out")}
        for path, data in zip(paths.values(), (document, sentinel)):
            if data is not None:
                path.write_bytes(data.encode() if isinstance(data, str) else data)
        streams = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(streams[0]), contextlib.redirect_stderr(streams[1]):
            code = cli.run([str(paths.get(arg, arg)) for arg in shlex.split(argv)])
        after = paths["{out}"].read_bytes() if paths["{out}"].exists() else None
    shown = [functools.reduce(lambda text, key: text.replace(str(paths[key]), key), paths, s.getvalue()) for s in streams]
    return code, *shown, after


def cli_output(argv, document) -> str:
    """What the command ``argv`` writes to ``{out}`` from ``document``; it must succeed silently."""
    code, stdout, stderr, out = run_cli(argv, document)
    assert (code, stdout, stderr) == (0, "", ""), (argv, stderr)
    return out.decode()


def assert_cli_refused(argv, document, code, message):
    """The row's command exits ``code`` with nothing on standard output and
    the line ``message`` on standard error, after the usage of an argparse
    error, and leaves ``{out}`` as it was: absent, or a sentinel's bytes."""
    for sentinel in (None, b"sentinel\r\n"):
        got, stdout, stderr, after = run_cli(argv, document, sentinel)
        *usage, last = stderr.splitlines(keepends=True) or [""]
        assert (got, stdout, last, after) == (code, "", message, sentinel)
        assert usage == [] if message.startswith("error: ") else usage[0].startswith("usage: t2spline")


def assert_cli_writes(argv, document):
    """The row's command, run once with ``--out`` and once to standard
    output, exits 0 with nothing on standard error, and writes the bytes of
    :func:`oracle_output` both times."""
    expected = oracle_output(argv, document)
    code, stdout, stderr, written = run_cli(argv + " --out {out}", document)
    assert (code, stdout, stderr) == (0, "", ""), (argv, stderr)
    assert_same_text(written, expected)
    code, stdout, stderr, _ = run_cli(argv, document)
    assert (code, stderr) == (0, ""), (argv, stderr)
    assert_same_text(stdout.encode(), expected)


_BAND = ["ll", "l", "rl", "crisp", "lr", "r", "rr"]

#: Curve labels, in column and drawing order, for each --series subset.
_SERIES_COLUMNS = {
    "band": _BAND,
    "reduced": ["tr_left", "crisp", "tr_right"],
    "defuzzified": ["defuzzified"],
    "crisp": ["crisp"],
    "band,reduced": [*_BAND, "tr_left", "tr_right"],
    "band,defuzzified": [*_BAND, "defuzzified"],
    "band,crisp": _BAND,
    "reduced,defuzzified": ["tr_left", "crisp", "tr_right", "defuzzified"],
    "reduced,crisp": ["tr_left", "crisp", "tr_right"],
    "defuzzified,crisp": ["crisp", "defuzzified"],
    "band,reduced,defuzzified": [*_BAND, "tr_left", "tr_right", "defuzzified"],
    "band,reduced,crisp": [*_BAND, "tr_left", "tr_right"],
    "band,defuzzified,crisp": [*_BAND, "defuzzified"],
    "reduced,defuzzified,crisp": ["tr_left", "crisp", "tr_right", "defuzzified"],
    "band,reduced,defuzzified,crisp": [*_BAND, "tr_left", "tr_right", "defuzzified"],
}


def oracle_output(argv, document) -> bytes:
    """The bytes that ``pipeline``, ``curve`` or ``plot`` write for ``argv``
    from ``document``, with the row's ``--alpha``, ``--order``,
    ``--samples``, ``--series`` and ``--format`` read from ``argv``.  The
    library parses the document, builds its model and evaluates the curve
    points; ``tests/oracles.py`` solves and prints, and the columns and
    curves follow :data:`_SERIES_COLUMNS`."""
    command, _, *rest = shlex.split(argv)
    options = dict(zip(rest[::2], rest[1::2]))
    doc = parse_document(document)
    alpha = float(options.get("--alpha", doc.model.alpha))
    model = FuzzyCurveModel.with_uniform_knots(doc.model.coords, doc.model.weights, int(options.get("--order", doc.model.order)), alpha)
    if command == "pipeline":
        solution = np.array([oracles.pipeline_point(rows, alpha) for rows in model.coords.tolist()])
        if options.get("--format", "json") == "json":
            return oracles.pipeline_json(alpha, solution).encode()
        table = oracles.csv_table(["index", "x", "y"], np.column_stack([np.arange(len(solution)), solution]), ["%d", "%.16e", "%.16e"])
        return table.encode()
    names = {name.strip() for name in options.get("--series", "all").split(",")} - {""} or {"all"}
    groups = [group for group in ("band", "reduced", "defuzzified", "crisp") if {group, "all"} & names]
    labels = _SERIES_COLUMNS[",".join(groups)]
    ts, series = evaluate(model, groups, int(options.get("--samples", doc.samples)))
    if command == "curve":
        header = ["t", *(f"{label}_{axis}" for label in labels for axis in "xy")]
        return oracles.csv_table(header, np.column_stack([ts, *(series[label] for label in labels)]), ["%.16e"] * len(header)).encode()
    crisp_controls = model.coords[:, :, COORD_FIELDS.index("c")].tolist()
    return oracles.svg_figure([(label, series[label]) for label in labels], crisp_controls, "", output).encode()


def cli_rows(table):
    """Every row of the CLI table ``table``."""
    for cases in table.values():
        for rows in cases.values() if isinstance(cases, dict) else [cases]:
            yield from rows


def edited(raw, path, text) -> str:
    """The JSON text of ``raw`` with the node at ``path``, keys and indices,
    replaced by (or added as) the JSON ``text``, or deleted if it is None."""
    raw = json.loads(json.dumps(raw))  # a copy that shares no node
    *parents, last = path
    node = functools.reduce(operator.getitem, parents, raw)
    if text is None:
        del node[last]
        return json.dumps(raw)
    node[last] = "\0"
    return json.dumps(raw).replace(json.dumps("\0"), text)


def gen_style_document(seed=5, n=40):
    """Abscissae in micro-units and heights on both sides of the cut level,
    as the benchmark's generated documents have."""
    rng = np.random.default_rng(seed)
    points = []
    for i in range(n):
        coords = []
        for c in (i * 1_500_000 + int(rng.integers(-300_000, 300_000)), int(rng.integers(-2_000_000, 2_000_000))):
            left = np.sort(rng.integers(0, 1_200_000, 3))[::-1]
            right = np.sort(rng.integers(0, 1_200_000, 3))
            micro = (c - left[0], c - left[1], c - left[2], c, c + right[0], c + right[1], c + right[2])
            coord = {k: int(v) / 1e6 for k, v in zip(("ll", "l", "rl", "c", "lr", "r", "rr"), micro)}
            coord["h"] = int(rng.integers(500, 1000)) / 1000
            coords.append(coord)
        points.append({"x": coords[0], "y": coords[1]})
    return {"order": 3, "alpha": 0.8, "weights": [int(w) / 1000 for w in rng.integers(500, 3000, n)], "points": points}


def order4_document(n=12):
    """Order-4 document with asymmetric spreads and heights on both sides
    of the cut level, so both alpha-cut regimes occur."""
    rng = np.random.default_rng(12)
    points = []
    for i in range(n):
        coords = []
        for c in (1.5 * i + rng.uniform(-0.3, 0.3), rng.uniform(-2.0, 2.0)):
            left = np.sort(rng.uniform(0.05, 1.0, 3))[::-1]
            right = np.sort(rng.uniform(0.05, 1.0, 3))
            coords.append(NT2FuzzyScalar.from_spreads(c, (*left, *right), rng.uniform(0.5, 1.0)))
        points.append(NT2FuzzyPoint(*coords))
    weights = list(rng.uniform(0.5, 3.0, n))
    return ModelDocument(points=points, weights=weights, order=4, alpha=0.8, samples=37)


def _demo_scaled(scale, points=None):
    """The demo document, the seven components of each coordinate of
    ``points`` (all by default) multiplied by ``scale``."""
    raw = json.loads(DEMO_TEXT)
    for i, point in enumerate(raw["points"]):
        if points is None or i in points:
            for coord in point.values():
                coord.update({key: value * scale for key, value in coord.items() if key != "h"})
    return raw


DEMO_TEXT = document_to_json(DOC)
_DEMO, _MANY = json.loads(DEMO_TEXT), gen_style_document(n=400)
BROKEN = edited(_DEMO, ("points", 0, "x", "l"), "0.7")  # the demo with l > rl
_UNIT = {"ll": 0, "l": 0.5, "rl": 0.8, "c": 1, "lr": 1.2, "r": 1.5, "rr": 2, "h": 0.6}
_UNITS = {"points": [{"x": _UNIT, "y": _UNIT}] * 3}
_WIDE_X = {"order": 2, "alpha": 0.5, "points": [{"x": dict(zip(_UNIT, (-1e308, -1e308, 0, 1e308, 1e308, 1e308, 1e308, 0.6))), "y": _UNIT}, *_UNITS["points"][1:]]}
#: A valid document whose curve points overflow: a weight of 100 on a control at 5e307.
HEAVY = json.dumps({"weights": [1, 1, 100, 1], "points": [{"x": dict.fromkeys(_UNIT, 5e307) | {"h": 0.5}, "y": dict.fromkeys(_UNIT, 1.0) | {"h": 0.5}}] * 4})
_SAMPLES = "error: samples must be an integer from 2 to {} for order {}, got {}\n"
_UNKNOWN = "error: unknown series [{!r}]; choose from band, reduced, crisp, defuzzified, all\n"
_NOT_FINITE = "error: curve points are not finite: the weighted control coordinates must stay within the float range\n"

#: The inputs the commands refuse, filed by the test of ``test_cli`` that
#: runs them, as a list of rows or an ``{id: rows}`` dict: ``(argv,
#: document, exit code, exact standard error)``, where ``argv`` is a command
#: line (see :func:`run_cli`) in which ``{doc}`` and ``{out}`` stand for
#: paths, and an argparse usage error pins the last line of its message.
CLI_REFUSALS = {
    "test_validate_broken_ordering_exits_1": [("validate {doc}", BROKEN, 1, "error: point 0, coordinate x: ordering violated: l > rl (0.7 > -0.3)\n")],
    "test_missing_file_exits_2": [("validate {doc}", None, 2, "error: [Errno 2] No such file or directory: '{doc}'\n")],
    "test_malformed_json_exits_2": [("validate {doc}", "{not json", 2, "error: cannot parse {doc}: line 1, column 2: Expecting property name enclosed in double quotes\n")],
    "test_usage_error_returns_argparse_code": [
        ("", None, 2, "t2spline: error: the following arguments are required: command\n"),
        ("bogus-command", None, 2, "t2spline: error: argument command: invalid choice: 'bogus-command' (choose from 'demo', 'validate', 'pipeline', 'curve', 'plot')\n"),
        ("demo --out", None, 2, "t2spline demo: error: argument --out: expected one argument\n"),
    ],
    "test_curve_rejects_unknown_series": [("curve {doc} --series nonsense", DEMO_TEXT, 1, _UNKNOWN.format("nonsense"))],
    "test_series_spec_exit_code_and_error_line": {
        f"{command}-{name}": [(f"{command} {{doc}} --series {spec}", DEMO_TEXT, 1, _UNKNOWN.format("bogus"))] for command in ("curve", "plot") for name, spec in (("unknown", "bogus"), ("all-and-unknown", "all,bogus"))
    },
    "test_non_utf8_input_exits_2": {command: [(f"{command} {{doc}}", b'{"points": [], "note": "caf\xe9"}', 2, "error: cannot parse {doc}: not UTF-8 text: invalid continuation byte\n")] for command in ("validate", "curve")},
    "test_deeply_nested_json_exits_2": {command: [(f"{command} {{doc}}", "[" * 100000, 2, "error: cannot parse {doc}: document is nested too deeply\n")] for command in ("validate", "curve")},
    "test_curve_order_below_two_exits_1": {order: [(f"curve {{doc}} --order {order}", DEMO_TEXT, 1, f"error: order must be at least 2, got {order}\n")] for order in ("-1", "0", "1")},
    "test_failed_curve_creates_no_output_file": [("curve {doc} --samples 1 --out {out}", DEMO_TEXT, 1, _SAMPLES.format(MAX_SAMPLES, 3, 1))],
    "test_oversized_sample_count_exits_1_without_output": {command: [(f"{command} {{doc}} --samples {10**9} --out {{out}}", DEMO_TEXT, 1, _SAMPLES.format(MAX_SAMPLES, 3, 10**9))] for command in ("curve", "plot")},
    # At order 20 the basis work admits 838,860 samples.
    "test_many_points_at_a_million_samples_exit_1_without_output": [
        (f"curve {{doc}} --samples {samples} --out {{out}}", json.dumps({**_MANY, "order": 20}), 1, _SAMPLES.format(838860, 20, samples)) for samples in (10**6, 10**9, 10**12)
    ],
    # 16,777,216 samples are the most a curve takes, but at order 400 their basis work would take hours.
    "test_high_order_document_at_the_sample_bound_is_refused_at_once": [
        (argv, json.dumps({**_MANY, "order": 400, "samples": 2**24}), 1, _SAMPLES.format(2097, 400, 2**24)) for argv in ("validate {doc}", "curve {doc} --out {out}")
    ],
    "test_a_sample_count_is_refused_with_one_message": [
        (argv, document, 1, _SAMPLES.format(MAX_SAMPLES, 3, 1)) for argv, document in (("validate {doc}", json.dumps({**_DEMO, "samples": 1})), ("curve {doc} --samples 1", DEMO_TEXT))
    ],
    "test_overflowing_type_reduction_is_refused": {
        argv.split()[0]: [(argv, json.dumps(_WIDE_X), 1, "error: point 0, coordinate x: the type-reduced interval (inf, 1e+308, inf) and its defuzzified value inf at alpha 0.5 must be finite\n")]
        for argv in ("validate {doc}", "pipeline {doc} --out {out}", "curve {doc} --out {out}", "plot {doc} --out {out}")
    },
    "test_non_finite_curve_points_are_refused": {command: [(f"{command} {{doc}} --series crisp --out {{out}}", HEAVY, 1, _NOT_FINITE)] for command in ("curve", "plot")},
    "test_huge_integer_literal_exits_without_traceback": {
        "400-1": [("validate {doc}", edited(_UNITS, ("points", 0, "x", "rr"), "1" + "0" * 400), 1, "error: point 0, coordinate x.rr must be a number, got a 401-digit integer\n")],
        "5000-2": [("validate {doc}", edited(_UNITS, ("points", 0, "x", "rr"), "1" + "0" * 5000), 2, "error: cannot parse {doc}: an integer literal has too many digits to convert\n")],
    },
    "test_an_empty_out_path_exits_2": {
        command: [(f"{command}{' {doc}' if document else ''} --out ''", document, 2, "error: [Errno 2] No such file or directory: ''\n")]
        for command, document in (("demo", None), ("pipeline", DEMO_TEXT), ("curve", DEMO_TEXT), ("plot", DEMO_TEXT))
    },
}

ORDER4_TEXT = document_to_json(order4_document())
_GENERATED = gen_style_document()

#: The inputs the writing commands accept, filed as :data:`CLI_REFUSALS` is:
#: ``(argv, document)``, where ``{doc}`` stands for a path.
#: Each row pins the bytes it writes: :func:`assert_cli_writes` checks it.
CLI_OUTPUTS = {
    "test_curve_crisp_two_samples_hits_endpoints": [("curve {doc} --series crisp --samples 2", DEMO_TEXT)],
    "test_curve_all_series_columns": [("curve {doc} --samples 5", DEMO_TEXT)],
    # An empty spec, and one naming ``all``, write what ``--series all`` writes.
    "test_series_spec_exit_code_and_error_line": {
        f"{command}-{name}": [(f"{command} {{doc}} --series {spec}", DEMO_TEXT)]
        for command in ("curve", "plot") for name, spec in (("empty", "''"), ("comma", ","), ("all-beside-a-group", "' crisp , all '"))
    },
    "test_plot_writes_svg": [("plot {doc} --series crisp,defuzzified", DEMO_TEXT)],
    "test_pipeline_json_matches_library": [("pipeline {doc}", DEMO_TEXT)],
    "test_pipeline_csv_format": [("pipeline {doc} --format csv", DEMO_TEXT)],
    "test_alpha_override_changes_pipeline": [("pipeline {doc}", DEMO_TEXT), ("pipeline {doc} --alpha 0.2", DEMO_TEXT)],
    "test_samples_override": [("curve {doc} --series crisp --samples 7", DEMO_TEXT)],
    "test_curve_all_columns_match_library_views": {"demo": [("curve {doc} --series all", DEMO_TEXT)], "order4": [("curve {doc} --series all", ORDER4_TEXT)]},
    "test_pipeline_output_equals_the_scalar_chain_serialised": {
        f"{alpha}-{source}": [(f"pipeline {{doc}} --format {fmt}" + ("" if alpha is None else f" --alpha {alpha}"), text) for fmt in ("json", "csv")]
        for source, text in (("demo", DEMO_TEXT), ("generated", json.dumps(_GENERATED, indent=2)))
        for alpha in (None, "0.3", "0")
    },
    # --order and --alpha write the bytes of the document saved with that
    # order and alpha: its own alpha, or a coordinate's height (the boundary
    # of the two cut regimes).
    "test_overrides_give_the_bytes_of_the_document_saved_with_them": {
        f"{source}-{cut}": [
            row
            for argv, order in (("curve {doc} --series all", " --order 2"), ("plot {doc}", " --order 2"), ("pipeline {doc}", ""), ("pipeline {doc} --format csv", ""))
            for row in ((f"{argv}{order} --alpha {alpha!r}", json.dumps(raw)), (argv, json.dumps({**raw, "order": 2, "alpha": alpha})))
        ]
        for source, raw in (("demo", _DEMO), ("generated", _GENERATED))
        for cut, alpha in (("own", raw["alpha"]), ("height", raw["points"][1]["y"]["h"]))
    },
    "test_series_subset_column_and_drawing_order": {spec: [(f"{command} {{doc}} --series {spec} --samples 3", DEMO_TEXT) for command in ("curve", "plot")] for spec in _SERIES_COLUMNS},
    "test_plot_equals_the_scene_of_library_views": {spec: [(f"plot {{doc}} --series {spec}", ORDER4_TEXT)] for spec in _SERIES_COLUMNS},
    "test_curve_equals_the_table_of_library_views": {spec: [(f"curve {{doc}} --series {spec}", ORDER4_TEXT)] for spec in _SERIES_COLUMNS},
    "test_pipeline_csv_across_row_blocks": [("pipeline {doc} --format csv", json.dumps(gen_style_document(n=2 * (BLOCK_CELLS // 3) + 1), indent=2))],
    # Solutions beyond the positional range of repr, below 1e-4 beside
    # ordinary ones in one block, and in two blocks.
    "test_pipeline_json_equals_json_dumps_of_the_scalar_chain": {
        name: [("pipeline {doc} --format json", json.dumps(raw, indent=2))]
        for name, raw in (
            ("demo-1e-9", _demo_scaled(1e-9)), ("demo-1e20", _demo_scaled(1e20)), ("demo-one-point-1e-3", _demo_scaled(1e-3, points={0})),
            ("generated-two-blocks", gen_style_document(n=BLOCK_CELLS // 2 + 1)),
        )
    },
    "test_a_document_with_a_utf8_byte_order_mark_is_read": [(argv, codecs.BOM_UTF8 + DEMO_TEXT.encode()) for argv in ("pipeline {doc}", "curve {doc}", "plot {doc}")],
    # Every component 0, 5e-324 and 0: a span too small to divide the canvas by.
    "test_plot_of_a_subnormal_span_draws_finite_pixels": [
        ("plot {doc} --series crisp", json.dumps({"order": 2, "points": [{"x": dict.fromkeys(_UNIT, v) | {"h": 1}, "y": dict.fromkeys(_UNIT, v) | {"h": 1}} for v in (0, 5e-324, 0)]}))
    ],
}

#: Every command that writes to ``--out``, as the output-target rows run it.
OUT_COMMANDS = {
    "demo": "demo", "pipeline-json": "pipeline {doc} --format json", "pipeline-csv": "pipeline {doc} --format csv",
    "curve": "curve {doc} --series all", "plot": "plot {doc}",
}
#: Every command that reads a document, as the mutated-document property runs it.
CLI_COMMANDS = {"validate": "validate {doc}", **{name: f"{argv} --out {{out}}" for name, argv in OUT_COMMANDS.items() if name != "demo"}}


#: The JSON texts an edit puts in a node's place.  No integer from 4 to
#: 2**24 is one: as a sample count it is valid, and allocates that many points.
_HOSTILE_JSON = [
    "NaN", "Infinity", "-Infinity", "1" + "0" * 399, "-1" + "0" * 399, "1" + "0" * 4999, "0", "1", "2", "3", "-1", "0.5", "-0.0", "1e308", "-1e308", "5e-324",
    str(2**63), '""', '"1"', '"x"', "true", "false", "null", "[]", "{}", "[[]]", "[null]", "[1, [2]]", "[0.5, 0.5]", '{"x": {}}',
]
#: The small valid documents an edit starts from: the demo and six generated points.
_SMALL = [_DEMO, gen_style_document(n=6)]


def _paths(node, path=()):
    """The path of every node below ``node``: a tuple of keys and indices."""
    for key, child in node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ():
        yield path + (key,)
        yield from _paths(child, path + (key,))


@st.composite
def _mutated_documents(draw):
    """A document of ``_SMALL`` with one node replaced, deleted or added;
    then perhaps cut short or given a byte that is not UTF-8."""
    raw, edit = draw(st.sampled_from(_SMALL)), draw(st.sampled_from(["replace", "delete", "add"]))
    if edit == "add":
        objects = [p for p in [(), *_paths(raw)] if isinstance(functools.reduce(operator.getitem, p, raw), dict)]
        path = draw(st.sampled_from(objects)) + (draw(st.sampled_from(["points", "weights", "order", "samples", "x", "h", "c", "bogus"])),)
    else:
        path = draw(st.sampled_from(list(_paths(raw))))
    text = edited(raw, path, None if edit == "delete" else draw(st.sampled_from(_HOSTILE_JSON))).encode()
    at = draw(st.integers(0, len(text)))  # most texts stay whole: the parser alone refuses the others
    return draw(st.sampled_from([text] * 6 + [text[:at], text[:at] + b"\xe9" + text[at:]]))


@settings(deadline=None)
@given(document=_mutated_documents())
@example(document=HEAVY)
def test_a_mutated_document_is_accepted_or_refused_by_every_command(document):
    """Each command exits 0, 1 or 2; a refusal prints one ``error:`` line and
    no output, and leaves ``--out`` as it was.  Every command refuses what
    ``validate`` refuses, with its code and line; ``curve`` and ``plot`` may
    also refuse, with exit 1, a valid document whose curve points are not
    finite.  A writing command that accepts the document writes the bytes of
    :func:`oracle_output`.  No draw holds more than 40 points or a sample
    count from 4 to 2**24: those are valid, and allocate arrays that long."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        results = {name: run_cli(argv, document, b"sentinel\r\n") for name, argv in CLI_COMMANDS.items()}
    verdict = results["validate"][:3]
    for name, (code, stdout, stderr, after) in results.items():
        assert code in (0, 1, 2), name
        assert (stdout, after, stderr.count("\n"), stderr[:7]) == ("", b"sentinel\r\n", 1, "error: ") if code else stderr == "", name
        if verdict[0]:
            assert (code, stdout, stderr) == verdict, name
        elif code:
            assert name in ("curve", "plot") and (code, stderr) == (1, _NOT_FINITE), name
        elif name != "validate":
            assert_same_text(after, oracle_output(CLI_COMMANDS[name], document))


# --- the output target ------------------------------------------------------------

_OLD = b"previous,bytes\r\n"

#: What the output path ``out`` holds before a write, by name: a function
#: that places it there, with a file ``target`` or ``other`` beside it.
_BEFORE = {
    "nothing": lambda out: None,
    "a file": lambda out: out.write_bytes(_OLD),
    "a private file": lambda out: (out.write_bytes(_OLD), out.chmod(0o600)),
    "a symlink": lambda out: (out.with_name("target").write_bytes(_OLD), out.symlink_to("target")),
    "a hard link": lambda out: (out.write_bytes(_OLD), os.link(out, out.with_name("other"))),
    "a FIFO": os.mkfifo,
}


def _open_failing(error):
    """``open`` as ``output`` calls it, for a text file whose first write
    stops half-way with ``error``."""

    class HalfWritten(io.TextIOWrapper):
        def write(self, text):
            super().write(text[: len(text) // 2])
            raise error.with_traceback(None)

    return lambda file, mode, **kwargs: HalfWritten(open(file, "wb"), **kwargs)


def _os_failing(name, code):
    """The ``os`` module, as ``output`` reads it, with its function ``name``
    failing with errno ``code``."""
    return types.SimpleNamespace(**{**vars(os), name: mock.Mock(side_effect=OSError(code, os.strerror(code)))})


_ENOSPC, _EPERM = (OSError(code, os.strerror(code)) for code in (errno.ENOSPC, errno.EPERM))

#: Each fault a write may meet, by name: the name of ``t2spline.output`` it
#: is injected through, its replacement, and the error the write then fails
#: with (None: the write goes on another way).
_FAULTS = {
    "disk full": ("open", _open_failing(_ENOSPC), _ENOSPC),
    "render fails": ("open", _open_failing(T2SplineError("render failed")), T2SplineError("render failed")),
    "os.open refused": ("os", _os_failing("open", errno.EACCES), None),
    "fchmod refused": ("os", _os_failing("fchmod", errno.EPERM), _EPERM),
}

#: Where the writers and the commands' ``--out`` put their output, filed by
#: the test of ``test_output`` or ``test_cli`` that runs them: rows of
#: ``(given, before, fault, outcome)``.  ``given`` turns the path into the
#: target a writer is given (a command takes its text), ``before`` names
#: what the path holds (:data:`_BEFORE`) and ``fault`` what the write meets
#: (:data:`_FAULTS`, or None).  :func:`assert_target_written` checks the
#: ``outcome``: the path is ``created``, ``replaced`` by a new file of the
#: old one's mode, written ``in place`` or left ``untouched``.
OUTPUT_TARGETS = {
    "test_output": {
        "test_a_bytes_path_is_replaced_only_once_rendered": [
            (str, "nothing", None, "created"), (os.fsencode, "nothing", None, "created"), (pathlib.Path, "nothing", None, "created"),
            (os.fsencode, "a file", "render fails", "untouched"), (os.fsencode, "a file", "disk full", "untouched"), (os.fsencode, "a file", None, "replaced"),
        ],
        "test_failed_csv_write_leaves_an_existing_file_untouched": [
            (pathlib.Path, before, fault, "untouched") for before in ("a file", "nothing") for fault in ("render fails", "disk full")
        ],
        "test_output_is_written_in_place_when_no_file_can_be_made_beside_it": [(pathlib.Path, "a file", "os.open refused", "in place")],
        "test_staged_file_is_removed_when_its_mode_cannot_be_set": [(pathlib.Path, "a file", "fchmod refused", "untouched")],
    },
    "test_cli": {
        "test_failed_render_leaves_existing_output_untouched": [(str, "a file", fault, "untouched") for fault in ("render fails", "disk full")],
        "test_out_through_symlink_keeps_the_link": [(str, "a symlink", None, "in place")],
        "test_out_keeps_the_mode_of_an_existing_file": [(str, "a private file", None, "replaced")],
        "test_out_keeps_hard_links": [(str, "a hard link", None, "in place")],
        "test_out_to_a_fifo_writes_into_it": [(str, "a FIFO", None, "in place")],
    },
}


@functools.cache
def _output(name) -> bytes:
    """What the writer or the command ``name`` writes to a text stream."""
    if name in WRITERS:
        stream = io.StringIO()
        call(*WRITERS[name], stream)
        return stream.getvalue().encode()
    code, stdout, stderr, _ = run_cli(OUT_COMMANDS[name], DEMO_TEXT)
    assert (code, stderr) == (0, ""), stderr
    return stdout.encode()


def _write(name, target, error) -> str:
    """Write the output of the writer or the command ``name`` to ``target``:
    "" if it succeeds, or the text of the error of ``error``'s class it
    fails with (a command exits 2 for an ``OSError`` and 1 for a
    :class:`T2SplineError`, with that text on one line)."""
    if name in WRITERS:
        try:
            call(*WRITERS[name], target)
        except (type(error) if error else ()) as exc:
            return str(exc)
        return ""
    code, stdout, stderr, _ = run_cli(f"{OUT_COMMANDS[name]} --out {shlex.quote(os.fsdecode(target))}", DEMO_TEXT)
    assert (code, stdout) == ((2 if isinstance(error, OSError) else 1) if stderr else 0, ""), stderr
    return stderr.removeprefix("error: ").removesuffix("\n")


def _snapshot(folder) -> dict:
    """What each name in ``folder`` holds: its file type, inode, mode, link
    count, link text and, for a regular file, its bytes."""
    state = {}
    for entry in os.scandir(folder):
        st = entry.stat(follow_symlinks=False)
        link = os.readlink(entry.path) if entry.is_symlink() else None
        data = pathlib.Path(entry.path).read_bytes() if stat.S_ISREG(st.st_mode) else None
        state[entry.name] = [stat.S_IFMT(st.st_mode), st.st_ino, stat.S_IMODE(st.st_mode), st.st_nlink, link, data]
    return state


def assert_target_written(given, before, fault, outcome):
    """Each writer of :data:`WRITERS` and each command of
    :data:`OUT_COMMANDS`, run from an :func:`_empty_folder`, writes to the
    path ``out`` of another new folder the row places ``before`` at, under
    ``fault``, and fails with the fault's error, if it has one.  Afterwards
    each name in that folder holds what it held, with these changes: a
    ``created`` or ``replaced`` path holds a new regular file of the output,
    of the mode a new file gets or the old file's mode; a file written ``in
    place`` keeps its inode and mode and holds the output under each of its
    names; a FIFO passes the output to its reader, and the output must fit
    in its pipe, so the write never waits."""
    error = _FAULTS[fault][2] if fault else None
    for name in [*WRITERS, *OUT_COMMANDS]:
        data = _output(name)
        with _empty_folder(), tempfile.TemporaryDirectory() as folder:
            out = pathlib.Path(folder, "out")
            _BEFORE[before](out)
            expected = _snapshot(folder)
            with contextlib.ExitStack() as stack:
                if fault:
                    stack.enter_context(mock.patch.object(output, *_FAULTS[fault][:2], create=True))
                if before == "a FIFO":  # a reader lets the writer open the FIFO at once
                    stack.callback(os.close, reader := os.open(out, os.O_RDONLY | os.O_NONBLOCK))
                    assert len(data) <= fcntl.fcntl(reader, fcntl.F_GETPIPE_SZ), name
                written = _write(name, given(out), error)
                if before == "a FIFO":
                    assert b"".join(iter(functools.partial(os.read, reader, 1 << 16), b"")) == data, name
            after = _snapshot(folder)
            assert written == (str(error) if error else ""), name
            if outcome == "created":
                os.umask(umask := os.umask(0))  # reads the umask
                expected["out"] = [stat.S_IFREG, None, 0o666 & ~umask, 1, None, None]
            if outcome in ("created", "replaced"):
                assert after["out"][1] != expected["out"][1], name
                expected["out"][1], expected["out"][5] = after["out"][1], data
            for held in expected.values() if outcome == "in place" else ():
                if held[1] == out.stat().st_ino and held[5] is not None:
                    held[5] = data
            assert after == expected, name
