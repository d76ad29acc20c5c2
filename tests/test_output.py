import csv
import io
import os
import pathlib
import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from test_boundary import REFUSALS, refusal_tests
from texts import assert_same_text

from t2spline import (
    Polyline,
    Scene,
    T2SplineError,
    demo_document,
    reduced_curves,
    render_svg,
    sample_curve,
    save_document,
    svg_document,
    write_csv,
)
from t2spline import output
from t2spline.curves import SERIES, evaluate
from t2spline.output import BLOCK_CELLS

# The refusal tests of this module are rows of test_boundary.REFUSALS.
globals().update(refusal_tests(REFUSALS["test_output"]))


@pytest.fixture
def model():
    return demo_document().to_model()


def csv_text(ts, series):
    buf = io.StringIO()
    write_csv(ts, series, buf)
    return buf.getvalue()


# --- CSV --------------------------------------------------------------------

def test_crisp_only_two_samples_three_lines(model):
    text = csv_text(*evaluate(model, ["crisp"], 2))
    rows = text.strip().split("\n")
    assert len(rows) == 3
    assert rows[0] == "t,crisp_x,crisp_y"


def test_band_csv_has_fifteen_columns(model):
    rows = list(csv.reader(io.StringIO(csv_text(*evaluate(model, ["band"], 4)))))
    assert len(rows[0]) == 15
    assert rows[0][0] == "t"
    assert rows[0][1:3] == ["ll_x", "ll_y"]
    assert rows[0][7:9] == ["crisp_x", "crisp_y"]


def test_csv_round_trips_doubles(model):
    line = sample_curve(model.crisp_model(), 7)
    rows = list(csv.reader(io.StringIO(csv_text(line.params, {"crisp": line.points}))))
    for i, row in enumerate(rows[1:]):
        assert float(row[0]) == line.params[i]
        assert float(row[1]) == line.points[i, 0]
        assert float(row[2]) == line.points[i, 1]


def test_csv_deterministic_bytes(tmp_path, model):
    ts, band = evaluate(model, ["band"], 11)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(ts, band, p1)
    write_csv(ts, band, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_failed_csv_write_leaves_an_existing_file_untouched(tmp_path, model, monkeypatch):
    path = tmp_path / "band.csv"
    path.write_bytes(b"previous,bytes\r\n")

    def half_then_fail(f, *args):
        f.write("t,crisp_x\n0.0,")
        raise T2SplineError("write failed")

    monkeypatch.setattr(output, "write_table", half_then_fail)
    with pytest.raises(T2SplineError, match="write failed"):
        write_csv(*evaluate(model, ["crisp"], 5), path)
    assert path.read_bytes() == b"previous,bytes\r\n"
    assert [p.name for p in tmp_path.iterdir()] == ["band.csv"]


def test_csv_of_reduced_curves_labels_their_columns(model):
    """The columns of ``evaluate``'s arrays are those of the library's view."""
    text = csv_text(*evaluate(model, ["reduced"], 5))
    red = reduced_curves(model, 5)
    assert text.split("\n")[0] == "t,tr_left_x,tr_left_y,crisp_x,crisp_y,tr_right_x,tr_right_y"
    assert text == csv_text(red.crisp.params, {label: line.points for label, line in red.items()})


def test_csv_values_have_full_precision(model):
    text = csv_text(*evaluate(model, ["crisp"], 3))
    data_cell = text.strip().split("\n")[2].split(",")[1]
    mantissa = data_cell.split("e")[0].replace("-", "").replace(".", "")
    assert len(mantissa) == 17


def test_csv_rows_across_blocks_equal_cell_by_cell_formatting():
    rows = 2 * (BLOCK_CELLS // 3) + 1
    rng = np.random.default_rng(8)
    points = rng.normal(size=(rows, 2)) * 10.0 ** rng.integers(-320, 300, size=(rows, 2))
    points[:4] = [[-0.0, 0.0], [5e-324, -5e-324], [2.2250738585072014e-308, -1e-310], [1.7976931348623157e308, 1.0]]
    line = Polyline(points, np.cumsum(rng.uniform(1e-3, 1.0, rows)) - 10.0)
    cells = np.column_stack([line.params, line.points])
    expected = "t,curve_x,curve_y\n" + "".join(",".join(map("{:.16e}".format, row)) + "\n" for row in cells)
    assert csv_text(line.params, {"curve": line.points}) == expected


@st.composite
def _float_tables(draw):
    """A table of 1 to 24 columns and 1 to 3 blocks' worth of rows, of any
    doubles (subnormal, huge, ±0, inf, NaN) and doubles below 1e17 in
    magnitude, most cells one drawn fill value."""
    cell = st.floats() | st.floats(-1e17, 1e17)
    k = draw(st.integers(1, 24))
    rows = draw(st.integers(1, 3 * BLOCK_CELLS // k))
    return draw(hnp.arrays(np.float64, (rows, k), elements=cell, fill=cell))


@settings(deadline=None)
# 1234567890123456.25 and .75 are ties at 17 digits, printed as 1.2345678901234562e+15
# and 1.2345678901234568e+15: each rounds to the even last digit.
@example(np.array([[9.999999999999998e16, 1234567890123456.75, 1234567890123456.25, -0.0]]))
@example(np.array([[9.999999999999998e16, 1234567890123456.75, -0.0, 5e-324]]))
@given(cells=_float_tables())
def test_float_tables_print_exactly_as_the_percent_template(cells):
    k = cells.shape[1]
    header = [f"c{i}" for i in range(k)]
    formats = [output.FLOAT_FORMAT] * k
    buf = io.StringIO()
    output.write_table(buf, header, [cells[:, :1], cells[:, 1:]], formats)
    assert_same_text(buf.getvalue(), oracles.csv_table(header, cells, formats))
    # One block is printed without the template exactly when every cell is
    # ±0 or has 1e-6 < |cell| < 1e17.
    inside = (cells == 0) | ((np.abs(cells) > 1e-6) & (np.abs(cells) < 1e17))
    assert (output._format_e16(cells) is not None) == inside.all()


# Each decade from 1e-06 to 1e17 and its neighbours, each alone in a table:
# 1e-06 prints 9.9999999999999995e-07 and 1e17 prints 1.0000000000000000e+17,
# outside the domain, and the double below a decade is the one that would
# round up to the next exponent if any did.
for _decade in (float(f"1e{e}") for e in range(-6, 18)):
    for _cell in (np.nextafter(_decade, 0.0), _decade, np.nextafter(_decade, np.inf)):
        test_float_tables_print_exactly_as_the_percent_template = example(np.array([[_cell, -_cell]]))(
            test_float_tables_print_exactly_as_the_percent_template
        )


def _in_repr_domain(cells):
    """Whether each cell is ±0 or has 1e-4 <= |cell| < 1e16 and is not a power of two."""
    magnitude = np.abs(cells)
    return (cells == 0) | ((magnitude >= 1e-4) & (magnitude < 1e16) & (np.frexp(magnitude)[0] != 0.5))


@st.composite
def _solutions(draw):
    """From 1 point to 1.5 blocks' worth of points, each cell a random
    double of the ``%r`` kernel's domain, of either sign: a random
    significand times a power of two, rounded to 1 to 17 significant digits
    (730.7419270333334 where that leaves the domain).  Then up to 3 cells
    are set to finite doubles of any magnitude (subnormal, huge, ±0), so
    that blocks the kernel prints and blocks it leaves to the template meet
    in one output."""
    n = draw(st.integers(1, 3 * BLOCK_CELLS // 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cells = np.ldexp(rng.integers(2**52, 2**53, 2 * n), rng.integers(-66, 2, 2 * n))
    cells = np.array([float(f"{x:.{digits}g}") for x, digits in zip(cells.tolist(), rng.integers(1, 18, 2 * n).tolist())])
    cells[~_in_repr_domain(cells)] = 730.7419270333334
    cells = np.where(rng.integers(0, 2, 2 * n) == 1, cells, -cells).reshape(n, 2)
    finite = st.floats(allow_nan=False, allow_infinity=False)
    for i, x in draw(st.lists(st.tuples(st.integers(0, 2 * n - 1), finite), max_size=3)):
        cells.flat[i] = x
    return cells


#: A block the kernel prints, then one holding a subnormal: the template's.
_TWO_BLOCKS = np.full((BLOCK_CELLS // 2 + 1, 2), 730.7419270333334)
_TWO_BLOCKS[-1, 0] = 5e-324


@settings(deadline=None)
# floor(S) taken from hi alone printed 730.7419270333333 and 7.3171207425709914.
@example(alpha=0.8, solution=np.array([[730.7419270333334, 7.317120742570991]]))
@example(alpha=0.0, solution=np.array([[0.1, 1 / 3], [-0.0, 0.0]]))
@example(alpha=0.5, solution=np.array([[5e-324, 0.1]]))
# 1e-4 prints 0.0001, alone through the kernel; the double below it
# prints 9.999999999999999e-05, through the template.
@example(alpha=0.5, solution=np.array([[1e-4, -0.1]]))
@example(alpha=0.5, solution=np.array([[1e-4, -0.1], [np.nextafter(1e-4, 0.0), 0.1]]))
# The double below 1e16 prints 9999999999999998.0; 1e16 prints 1e+16.
@example(alpha=0.5, solution=np.array([[np.nextafter(1e16, 0.0), 0.1]]))
@example(alpha=0.5, solution=np.array([[np.nextafter(1e16, 0.0), 1e16]]))
# 16-digit candidates above 2**53, each the nearest 16-digit decimal.
@example(alpha=0.5, solution=np.array([[0.9999999999999999, 9.999999999999998]]))
# Ties: 1234567890123456.25 and .75 print .2 and .8 at 17 digits, and
# 8 + 1/65536 and 8 + 3/65536 end in 5 at 17 digits and print 16, each
# rounded to the even last digit.
@example(alpha=0.5, solution=np.array([[1234567890123456.25, 1234567890123456.75], [8 + 1 / 65536, 8 + 3 / 65536]]))
@example(alpha=0.5, solution=_TWO_BLOCKS)
@given(alpha=st.floats(0.0, 1.0, exclude_max=True), solution=_solutions())
def test_pipeline_json_is_json_dumps_of_the_points(alpha, solution):
    buf = io.StringIO()
    output.write_pipeline_json(alpha, solution, buf)
    assert_same_text(buf.getvalue(), oracles.pipeline_json(alpha, solution))
    # One block is printed without the template exactly when every cell is
    # in the domain of the kernel.
    assert (output._format_repr(solution) is not None) == _in_repr_domain(solution).all()


# Each power of two from 2**-13 to 2**53, left to the template, beside a cell
# the kernel prints.
for _power in range(-13, 54):
    test_pipeline_json_is_json_dumps_of_the_points = example(alpha=0.5, solution=np.array([[2.0**_power, 0.1]]))(
        test_pipeline_json_is_json_dumps_of_the_points
    )


def test_pipeline_json_of_no_points_is_an_empty_list():
    buf = io.StringIO()
    output.write_pipeline_json(0.8, np.empty((0, 2)), buf)
    assert buf.getvalue() == oracles.pipeline_json(0.8, np.empty((0, 2)))


@pytest.mark.parametrize("n", [0, 2 * (BLOCK_CELLS // 3)], ids=["no-points", "two-blocks"])
def test_pipeline_csv_is_the_index_and_each_point(tmp_path, n):
    """The header ``index,x,y``, then one ``%d,%.16e,%.16e`` row a point,
    across two blocks of :data:`BLOCK_CELLS` cells, to a stream or a path."""
    points = np.random.default_rng(n).normal(scale=1e3, size=(n, 2))
    expected = "index,x,y\n" + "".join(f"{i},{x:.16e},{y:.16e}\n" for i, (x, y) in enumerate(points.tolist()))
    buf, path = io.StringIO(), tmp_path / "pipeline.csv"
    output.write_pipeline_csv(points, buf)
    output.write_pipeline_csv(points, path)
    assert_same_text(buf.getvalue(), expected)
    assert path.read_text(encoding="utf-8") == expected


@pytest.mark.parametrize(
    "write, match",
    [
        (lambda f: output.write_pipeline_csv(np.zeros((2, 3)), f), r"^points must be an \(m, 2\) array, got shape \(2, 3\)$"),
        (lambda f: output.write_pipeline_json(0.8, [[0.0, np.nan]], f), "^points must be finite$"),
        (lambda f: output.write_pipeline_json(1.5, np.zeros((1, 2)), f), r"^alpha must lie in \[0, 1\), got 1.5$"),
    ],
    ids=["csv-shape", "json-nan", "json-alpha"],
)
def test_pipeline_writers_refuse_what_no_solution_holds(write, match):
    buf = io.StringIO()
    with pytest.raises(T2SplineError, match=match):
        write(buf)
    assert buf.getvalue() == ""


def test_output_is_written_in_place_when_no_file_can_be_made_beside_it(tmp_path, monkeypatch):
    path = tmp_path / "out.csv"
    path.write_text("old")
    inode = path.stat().st_ino

    def refused(*args):
        raise PermissionError("read-only directory")

    monkeypatch.setattr(output.os, "open", refused)
    output.write_output(path, lambda f: f.write("new"))
    assert path.read_text() == "new" and path.stat().st_ino == inode
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def test_staged_file_is_removed_when_its_mode_cannot_be_set(tmp_path, monkeypatch):
    path = tmp_path / "out.csv"
    path.write_text("old")
    rendered = []

    def refused(*args):
        raise PermissionError("fchmod refused")

    monkeypatch.setattr(output.os, "fchmod", refused)
    with pytest.raises(PermissionError, match="fchmod refused"):
        output.write_output(path, rendered.append)
    assert path.read_text() == "old" and rendered == []
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


_TARGET_WRITERS = {
    "write_output": lambda target: output.write_output(target, lambda f: f.write("text")),
    "save_document": lambda target: save_document(demo_document(), target),
    "write_csv": lambda target: write_csv([0.0, 1.0], {"crisp": np.zeros((2, 2))}, target),
    "render_svg": lambda target: render_svg(Scene({}), target),
    "write_pipeline_json": lambda target: output.write_pipeline_json(0.8, np.zeros((1, 2)), target),
    "write_pipeline_csv": lambda target: output.write_pipeline_csv(np.zeros((1, 2)), target),
}


@pytest.mark.parametrize("target", [None, 3, np.zeros(3)], ids=["none", "int", "ndarray"])
@pytest.mark.parametrize("writer", _TARGET_WRITERS.values(), ids=list(_TARGET_WRITERS))
def test_writers_refuse_a_target_that_is_no_stream_or_path(tmp_path, monkeypatch, writer, target):
    monkeypatch.chdir(tmp_path)
    kind = type(target).__name__
    with pytest.raises(T2SplineError, match=f"^output target must be a text stream or a path, got {kind}$"):
        writer(target)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("target", ["a\0b", b"a\0b", pathlib.Path("a\0b")], ids=["str", "bytes", "path"])
@pytest.mark.parametrize("writer", _TARGET_WRITERS.values(), ids=list(_TARGET_WRITERS))
def test_writers_refuse_a_path_holding_nul(tmp_path, monkeypatch, writer, target):
    """Before, ``os.lstat`` raised a bare ``ValueError: embedded null byte``."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(T2SplineError, match=re.escape(f"output path must not hold a NUL character, got {target!r}")):
        writer(target)
    assert list(tmp_path.iterdir()) == []


def test_a_bytes_path_is_replaced_only_once_rendered(tmp_path):
    """A ``bytes`` path in another directory is staged beside the file, as
    a ``str`` path is, so a failed render leaves the file untouched."""
    path = tmp_path / "sub" / "out.csv"
    path.parent.mkdir()
    path.write_text("old")

    def failing(f):
        f.write("new")
        raise RuntimeError("render failed")

    with pytest.raises(RuntimeError, match="render failed"):
        output.write_output(os.fsencode(path), failing)
    assert path.read_text() == "old"
    assert [p.name for p in path.parent.iterdir()] == ["out.csv"]
    output.write_output(os.fsencode(path), lambda f: f.write("new"))
    assert path.read_text() == "new"


# --- SVG --------------------------------------------------------------------

def test_scenes_compare_by_identity():
    scene, again = Scene({"crisp": np.zeros((2, 2))}), Scene({"crisp": np.zeros((2, 2))})
    assert scene == scene and scene != again
    assert scene in [again, scene] and again not in [scene]
    assert len({scene, again, scene}) == 2


_PLOT_X, _PLOT_Y = (output.MARGIN_LEFT, output.CANVAS_W - output.MARGIN_RIGHT), (output.MARGIN_TOP, output.CANVAS_H - output.MARGIN_BOTTOM)
_MAX = np.finfo(float).max


@pytest.mark.parametrize(
    "points",
    [
        [[0.0, 0.0], [5e-324, 5e-324], [0.0, 0.0]],
        [[3.0, 1e-310], [3.0, -1e-310]],
        [[-1e308, 0.0], [1e308, 1.0]],
        [[-_MAX, _MAX], [_MAX, -_MAX]],
        [[1e17, -1e300], [1e17, -1e300]],
    ],
    ids=["subnormal-span", "tiny-y-span", "overflowing-x-span", "largest-spans", "huge-constants"],
)
def test_svg_of_a_span_no_scale_divides_draws_finite_pixels_in_the_plot(points):
    """A span too small or too large to divide the canvas by in doubles, or
    a constant too large to pad by 0.05, is drawn in finite pixels inside
    the plot area, as the per-point reference draws it."""
    points = np.array(points)
    series = [("crisp", points), ("tr_left", points[::-1])]
    doc = svg_document(Scene(dict(series), points, "t"))
    assert doc == oracles.svg_figure(series, points.tolist(), "t", output)
    pairs = re.findall(r'points="([^"]*)"', doc)
    circles = re.findall(r'cx="([^"]*)" cy="([^"]*)"', doc)
    px = np.array([pair.split(",") for text in pairs for pair in text.split()] + circles, dtype=float)
    assert len(px) == 4 * len(points)  # two polylines, crisp markers and controls
    assert np.all((px[:, 0] >= _PLOT_X[0]) & (px[:, 0] <= _PLOT_X[1]))
    assert np.all((px[:, 1] >= _PLOT_Y[0]) & (px[:, 1] <= _PLOT_Y[1]))

@pytest.mark.parametrize(
    "points, ticks",
    [
        ([[-_MAX, _MAX], [_MAX, -_MAX]], ["-1.798e+308", "1.798e+308", "-1.798e+308", "1.798e+308"]),
        ([[-1e308, 0.0], [1e308, 1.0]], ["-1.1e+308", "1.1e+308", "-0.05", "1.05"]),
        ([[0.0, -_MAX], [1.0, -_MAX]], ["-0.05", "1.05", "-1.798e+308", "-1.708e+308"]),
        ([[0.0, 0.0], [2.0, 4.0]], ["-0.1", "2.1", "-0.2", "4.2"]),
    ],
    ids=["largest-spans", "overflowing-x-span", "largest-constant", "plain"],
)
def test_svg_tick_labels_of_finite_data_are_finite(points, ticks):
    """Before, a padded bound past the float range was labelled ``inf``."""
    doc = svg_document(Scene({"crisp": np.array(points)}))
    assert re.findall(r'text-anchor="\w+" font-family="sans-serif" font-size="11" fill="#333333">([^<]*)<', doc) == ticks


def test_empty_scene_is_valid_svg_with_axes():
    doc = svg_document(Scene({}))
    assert doc.startswith('<?xml version="1.0"')
    root = ET.fromstring(doc)
    assert root.tag.endswith("svg")
    lines = [el for el in root.iter() if el.tag.endswith("line")]
    assert len(lines) == 2  # the two axes
    polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
    assert polylines == []


def test_band_scene_has_seven_polylines_in_order(model):
    doc = svg_document(Scene(evaluate(model, ["band"], 9)[1]))
    root = ET.fromstring(doc)
    classes = [
        el.attrib["class"]
        for el in root.iter()
        if el.tag.endswith("polyline")
    ]
    assert classes == [
        "series-ll", "series-l", "series-rl", "series-crisp",
        "series-lr", "series-r", "series-rr",
    ]


def test_solution_scene_two_polylines_two_point_sets(model):
    doc = svg_document(Scene(evaluate(model, ["crisp", "defuzzified"], 21)[1]))
    root = ET.fromstring(doc)
    polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
    assert len(polylines) == 2
    marker_groups = [
        el.attrib["class"]
        for el in root.iter()
        if el.tag.endswith("g") and el.attrib.get("class", "").startswith("markers-")
    ]
    assert sorted(marker_groups) == ["markers-crisp", "markers-defuzzified"]


def test_controls_rendered_as_point_set(model):
    controls = np.array([p.crisp_xy for p in model.fuzzy_controls])
    doc = svg_document(Scene({}, controls))
    root = ET.fromstring(doc)
    groups = [el for el in root.iter() if el.attrib.get("class") == "markers-controls"]
    assert len(groups) == 1
    circles = [el for el in groups[0] if el.tag.endswith("circle")]
    assert len(circles) == 4
    assert doc.count(">controls</text>") == 1


def test_series_styles_are_exactly_the_curve_labels():
    assert set(output.SERIES_STYLE) == {label for labels in SERIES.values() for label in labels}


def test_legend_names_each_series(model):
    scene = Scene(
        evaluate(model, ["band", "reduced", "defuzzified"], 5)[1],
        controls=np.array([p.crisp_xy for p in model.fuzzy_controls]),
    )
    doc = svg_document(scene)
    for name in ("ll", "rr", "crisp", "tr_left", "tr_right", "defuzzified", "controls"):
        assert f">{name}</text>" in doc


def test_svg_deterministic_bytes(tmp_path, model):
    scene = Scene(evaluate(model, ["band", "defuzzified"], 11)[1])
    p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
    render_svg(scene, p1)
    render_svg(scene, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_scene_with_title_escapes_markup():
    doc = svg_document(Scene({}, title="a < b & c"))
    assert "a &lt; b &amp; c" in doc
    ET.fromstring(doc)


@pytest.mark.parametrize("controls", [[], np.empty((0, 2))])
def test_svg_of_no_controls_marks_none(controls):
    assert svg_document(Scene({}, controls)) == svg_document(Scene({}))


@st.composite
def _figures(draw):
    """Series of 1 to 6 points and 0 to 6 controls around one centre at a
    scale from 1e-3 to 1e5, with a constant x or y axis, or both, at times."""
    scale = 10.0 ** draw(st.floats(-3, 5))
    centre = np.array(draw(st.tuples(st.floats(-1e5, 1e5), st.floats(-1e5, 1e5))))
    constant = list(draw(st.sampled_from([(), (0,), (1,), (0, 1)])))

    def points(least):
        m = draw(st.integers(least, 6))
        unit = np.array(draw(st.lists(st.floats(-1, 1), min_size=2 * m, max_size=2 * m))).reshape(m, 2)
        unit[:, constant] = 0.0
        return centre + scale * unit

    labels = draw(st.lists(st.sampled_from(sorted(output.SERIES_STYLE)), max_size=4, unique=True))
    return [(label, points(1)) for label in labels], points(0), draw(st.text(max_size=4))


@settings(deadline=None)
@example(([], np.empty((0, 2)), ""))  # the empty scene
@example(([("crisp", np.array([[2.5, -1.0]]))], np.empty((0, 2)), ""))  # one point, no controls
@example(([], np.array([[1e5, 3.0], [1e5, 3.0]]), "t"))  # constant axes
@given(figure=_figures())
def test_svg_equals_the_per_point_reference_byte_for_byte(figure):
    series, controls, title = figure
    assert svg_document(Scene(dict(series), controls, title)) == oracles.svg_figure(series, controls.tolist(), title, output)
