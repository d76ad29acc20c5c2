"""The record classes of ``t2spline._records`` and the SVG renderer of
``t2spline._svg`` load on first use.

No command imports the records, nor does reading, refusing or building a
document, and every function of the package that builds or tests one finds
it in a fresh interpreter, where no earlier access has bound the name in the
function's module.  Only ``plot`` imports the renderer, and no command
imports :mod:`csv`."""

import dataclasses
import importlib
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import t2spline
from t2spline import (
    alpha_cut_scalar,
    defuzzified_curve,
    demo_document,
    deviation,
    document_to_json,
    fuzzy_curve_band,
    reduced_curves,
    sample_curve,
    type_reduce,
)

ROOT = Path(__file__).resolve().parents[1]
RECORDS = "t2spline._records"
SVG = "t2spline._svg"

#: Each moved class and the module it is documented in.
OWNERS = {
    "NT2FuzzyScalar": "fuzzy",
    "NT2FuzzyPoint": "fuzzy",
    "AlphaCutScalar": "pipeline",
    "TRInterval": "pipeline",
    "Regime": "pipeline",
    "Polyline": "bspline",
    "CurveBand": "curves",
    "ReducedCurves": "curves",
    "DeviationReport": "curves",
}

#: What runs before the code under test, given the paths ``FILES`` of the
#: ``files`` fixture: imports that load no record class, the documents'
#: texts as ``DOC``, ``SPREADS`` and ``BAD_SPREADS``, the output path ``OUT``,
#: and the outcome of an expression.
PRELUDE = """
import json, sys
from pathlib import Path
from types import SimpleNamespace
import t2spline
from t2spline import (
    alpha_cut_scalar, cli, defuzzified_curve, demo_document, deviation, document_to_json,
    fuzzy_curve_band, output, parse_document, pipeline_point, reduced_curves, sample_curve, type_reduce,
)
from t2spline.fuzzy import as_coords, coords_from_rows

DOC, SPREADS, BAD_SPREADS = (Path(path).read_text(encoding="utf-8") for path in FILES[:3])
OUT = FILES[3]


def outcome(expression):
    try:
        value = eval(expression)
        return [type(value).__name__, repr(value)]
    except Exception as exc:
        return [type(exc).__name__, str(exc)]
"""


def _spreads_document(spreads: dict) -> str:
    """The demo document with the x coordinate of its first point in spreads form."""
    raw = json.loads(document_to_json(demo_document()))
    raw["points"][0]["x"] = {"c": 0.5, "h": 0.6, "spreads": spreads}
    return json.dumps(raw)


@pytest.fixture
def files(tmp_path) -> list[str]:
    """An explicit-form document, a spreads-form one, a refused spreads-form
    one, and an output path."""
    spreads = dict(outer_left=0.9, principal_left=0.6, inner_left=0.3, inner_right=0.2, principal_right=0.4, outer_right=0.6)
    texts = (document_to_json(demo_document()), _spreads_document(spreads), _spreads_document(spreads | {"inner_left": 0.7}))
    paths = [tmp_path / name for name in ("doc.json", "spreads.json", "bad.json")]
    for path, text in zip(paths, texts):
        path.write_text(text, encoding="utf-8")
    return [*map(str, paths), str(tmp_path / "out")]


def run_fresh(code: str, files: list[str]) -> list:
    """The JSON value a fresh interpreter prints last, after :data:`PRELUDE`
    of ``files`` and ``code``."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", "import sys\nFILES = sys.argv[1:]\n" + PRELUDE + code, *files],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


#: Command lines, over the paths ``DOC``, ``SPREADS``, ``BAD`` and ``OUT``
#: of the ``files`` fixture, and their exit codes.
COMMANDS = {
    "curve DOC --out OUT": 0,
    "curve DOC --series band,reduced --alpha 0.5 --order 2 --samples 7 --out OUT": 0,
    "plot DOC --out OUT": 0,
    "pipeline DOC --format json --out OUT": 0,
    "pipeline DOC --format csv --out OUT": 0,
    "validate DOC": 0,
    "demo --out OUT": 0,
    "curve SPREADS --out OUT": 0,
    "validate BAD": 1,
}


@pytest.mark.parametrize("argv, exit_code", COMMANDS.items(), ids=COMMANDS.keys())
def test_no_command_that_reads_a_document_loads_the_records(argv, exit_code, files):
    """``import t2spline.cli`` and one ``cli.run``, of a command that reads
    an explicit, spreads-form or refused document or of ``demo``, leave the
    record classes and :mod:`csv` unloaded, and the SVG renderer too unless
    the command is ``plot``; touching a record class afterwards loads them."""
    code = f"""
paths = dict(zip(("DOC", "SPREADS", "BAD", "OUT"), FILES))
argv = [paths.get(word, word) for word in {argv!r}.split()]
code = cli.run(argv)
loaded = [name in sys.modules for name in ({RECORDS!r}, {SVG!r}, "csv")]
t2spline.NT2FuzzyScalar
print(json.dumps([code, loaded, {RECORDS!r} in sys.modules]))
"""
    assert run_fresh(code, files) == [exit_code, [False, argv.startswith("plot "), False], True]


#: Expressions over the names of :data:`PRELUDE` that read, refuse or build
#: a document without a record class: the type of its value or error, and
#: the message of an error.
RECORD_FREE_USES = {
    "parse-spreads-form": ("parse_document(SPREADS).model.coords.tolist()", "list", None),
    "parse-refused-spreads-form": (
        "parse_document(BAD_SPREADS)",
        "ValidationError",
        "point 0, coordinate x: left spreads must satisfy inner <= principal <= outer, got (0.7, 0.6, 0.9)",
    ),
    "coords-from-rows-refusal": (
        "coords_from_rows([[0, 1, 2, 3, 4, 5, 6, 2.0]])",
        "ValidationError",
        "point 0, coordinate x: h must lie in (0, 1], got 2.0",
    ),
    "demo-document": ("document_to_json(demo_document())", "str", None),
    "demo-command": ("(cli.run(['demo', '--out', OUT]), Path(OUT).read_text(encoding='utf-8'))", "tuple", None),
}

#: Each first use of a record class in the package: an expression over the
#: names of :data:`PRELUDE`, the type of its value or error, and the message
#: of an error.
FIRST_USES = {
    "as-coords-of-points": ("as_coords(parse_document(DOC).points).tolist()", "list", None),
    "as-coords-refusal": ("as_coords([object()])", "T2SplineError", "fuzzy_controls must be NT2FuzzyPoint instances"),
    "document-points": ("parse_document(DOC).points", "list", None),
    "fuzzy-controls": ("parse_document(DOC).model.fuzzy_controls", "tuple", None),
    "alpha-cut-scalar": ("[alpha_cut_scalar(p.x, 0.55) for p in parse_document(DOC).points]", "list", None),
    "type-reduce": ("[type_reduce(alpha_cut_scalar(p.y, 0.55)) for p in parse_document(DOC).points]", "list", None),
    "pipeline-point": ("pipeline_point(parse_document(DOC).points[2], 0.3)", "tuple", None),
    "sample-curve": ("sample_curve(parse_document(DOC).model.crisp_model(), 5)", "Polyline", None),
    "fuzzy-curve-band": ("fuzzy_curve_band(parse_document(DOC).model, 5)", "CurveBand", None),
    "reduced-curves": ("reduced_curves(parse_document(DOC).model, 5)", "ReducedCurves", None),
    "defuzzified-curve": ("defuzzified_curve(parse_document(DOC).model, 5)", "Polyline", None),
    "deviation": (
        "deviation(sample_curve((m := parse_document(DOC).model).crisp_model(), 5), defuzzified_curve(m, 5))",
        "DeviationReport",
        None,
    ),
    "deviation-refusal": ("deviation(object(), object())", "T2SplineError", "polyline a must be a Polyline, got object"),
}


def fresh_and_here(expression, kind, message, files, tmp_path, module=RECORDS) -> tuple[list, list]:
    """Whether a fresh interpreter has ``module`` loaded before and after
    ``expression``, with its outcome there between them, and its outcome in
    this process, where the module was loaded long before: the type and
    ``repr`` of a value or the type and message of an error, checked to be
    ``kind`` and ``message``."""
    code = f"""
loaded = {module!r} in sys.modules
print(json.dumps([loaded, outcome({expression!r}), {module!r} in sys.modules]))
"""
    names = {"FILES": [*files[:3], str(tmp_path / "here")]}
    exec(PRELUDE, names)
    here = names["outcome"](expression)
    assert here[0] == kind and (message is None or here[1] == message), here
    return run_fresh(code, files), here


@pytest.mark.parametrize("expression, kind, message", FIRST_USES.values(), ids=FIRST_USES.keys())
def test_a_first_use_in_a_fresh_interpreter_loads_the_records_and_gives_the_same_outcome(expression, kind, message, files, tmp_path):
    """The outcome is the expected one, and the one the same expression has
    in this process."""
    fresh, here = fresh_and_here(expression, kind, message, files, tmp_path)
    assert fresh == [False, here, True]


@pytest.mark.parametrize("expression, kind, message", RECORD_FREE_USES.values(), ids=RECORD_FREE_USES.keys())
def test_a_document_is_read_refused_or_built_without_the_records(expression, kind, message, files, tmp_path):
    """The outcome is the expected one, and the one the same expression has
    in this process, and the record classes stay unloaded."""
    fresh, here = fresh_and_here(expression, kind, message, files, tmp_path)
    assert fresh == [False, here, False]


#: Each first use of the SVG renderer: an expression over the names of
#: :data:`PRELUDE`, the type of its value or error, and the message of an
#: error.  A scene that is no :class:`Scene` draws without touching the class.
SVG_FIRST_USES = {
    "package-scene": ("t2spline.Scene", "type", None),
    "output-series-style": ("output.SERIES_STYLE", "dict", None),
    "svg-document": (
        "output.svg_document(SimpleNamespace(series={'crisp': [[0.0, 1.0], [2.0, 3.0]]}, controls=None, title='t'))",
        "str",
        None,
    ),
    "svg-document-refusal": (
        "output.svg_document(SimpleNamespace(series={}, controls=None, title='bad\\x0b'))",
        "T2SplineError",
        "title must hold only characters XML allows, got 'bad\\x0b'",
    ),
}


@pytest.mark.parametrize("expression, kind, message", SVG_FIRST_USES.values(), ids=SVG_FIRST_USES.keys())
def test_a_first_use_of_the_renderer_loads_it_and_gives_the_same_outcome(expression, kind, message, files, tmp_path):
    """The outcome is the expected one, and the one the same expression has
    in this process, and only the first use loads the renderer."""
    fresh, here = fresh_and_here(expression, kind, message, files, tmp_path, SVG)
    assert fresh == [False, here, True]


def _sample(name: str):
    """A value of the record class ``name``, built from the demo model."""
    model = demo_document().model
    point = model.fuzzy_controls[1]
    band = fuzzy_curve_band(model, 5)
    return {
        "NT2FuzzyScalar": point.x,
        "NT2FuzzyPoint": point,
        "AlphaCutScalar": alpha_cut_scalar(point.y, 0.3),
        "TRInterval": type_reduce(alpha_cut_scalar(point.y, 0.7)),
        "Regime": alpha_cut_scalar(point.y, 0.7).regime,
        "Polyline": sample_curve(model.crisp_model(), 5),
        "CurveBand": band,
        "ReducedCurves": reduced_curves(model, 5),
        "DeviationReport": deviation(band.ll, band.rr),
    }[name]


def _same(a, b) -> bool:
    """Whether ``a`` and ``b`` hold the same value: arrays element by
    element, dataclasses field by field, whatever their ``__eq__``."""
    if isinstance(a, np.ndarray):
        return type(b) is np.ndarray and np.array_equal(a, b)
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(_same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    return type(a) is type(b) and a == b


@pytest.mark.parametrize("name", OWNERS)
def test_a_moved_record_is_one_class_that_pickles_and_is_replaced(name):
    """The class is one object under the package and under its owner module,
    and ``dir`` of both lists it; a value of it pickles to an equal value,
    and ``dataclasses.replace`` builds an equal one (an Enum member is no
    dataclass: unpickled, it is the member itself)."""
    owner = importlib.import_module(f"t2spline.{OWNERS[name]}")
    cls = getattr(t2spline, name)
    assert cls is getattr(owner, name) and name in dir(owner) and name in dir(t2spline)
    value = _sample(name)
    assert type(value) is cls
    copy = pickle.loads(pickle.dumps(value))
    if name == "Regime":
        assert copy is value
    else:
        assert _same(copy, value) and _same(dataclasses.replace(value), value)


def test_an_unknown_name_is_still_no_attribute():
    """The first-use lookup refuses every other name as a module does."""
    for module in (t2spline, t2spline.fuzzy, t2spline.pipeline, t2spline.bspline, t2spline.curves):
        with pytest.raises(AttributeError, match=f"module '{module.__name__}' has no attribute 'NoSuchRecord'"):
            module.NoSuchRecord
