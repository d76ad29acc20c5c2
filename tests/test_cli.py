import argparse
import csv
import json
import os
import platform
import re
import stat
import subprocess
import sys

import numpy as np
import pytest

import oracles
from texts import assert_same_text
from t2spline import (
    ModelDocument,
    NT2FuzzyPoint,
    NT2FuzzyScalar,
    Scene,
    T2SplineError,
    defuzzified_curve,
    demo_document,
    document_to_json,
    fuzzy_curve_band,
    parse_document,
    reduced_curves,
    render_svg,
    sample_curve,
    write_csv,
)
from t2spline import bspline, cli, curves, output, pipeline
from t2spline.cli import run
from t2spline.output import BLOCK_CELLS
from test_boundary import BROKEN, CLI_REFUSALS, DEMO_TEXT, assert_cli_refused, cli_output, gen_style_document, refusal_tests

#: Tests defined here that run their rows of CLI_REFUSALS beside checks of their own.
_RUN_HERE = ("test_series_spec_exit_code_and_error_line", "test_high_order_document_at_the_sample_bound_is_refused_at_once")
globals().update(refusal_tests({name: rows for name, rows in CLI_REFUSALS.items() if name not in _RUN_HERE}, check=assert_cli_refused))


@pytest.fixture
def demo_path(tmp_path):
    path = tmp_path / "model.json"
    assert run(["demo", "--out", str(path)]) == 0
    return path


def test_demo_then_validate(demo_path, capsys):
    assert run(["validate", str(demo_path)]) == 0
    assert "ok" in capsys.readouterr().out


def test_demo_to_stdout(capsys):
    assert run(["demo"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["weights"] == [1.0, 1.0, 3.0, 1.0]


def test_curve_crisp_two_samples_hits_endpoints():
    rows = list(csv.reader(cli_output("curve {doc} --series crisp --samples 2 --out {out}", DEMO_TEXT).splitlines()))
    assert rows[0] == ["t", "crisp_x", "crisp_y"]
    assert [float(v) for v in rows[1]] == [0.0, 0.0, 0.0]
    assert [float(v) for v in rows[2]] == [1.0, 7.0, 1.0]


def test_curve_all_series_columns():
    header = cli_output("curve {doc} --samples 5 --out {out}", DEMO_TEXT).split("\n")[0].split(",")
    # band (7) + tr_left/tr_right + defuzzified, crisp deduplicated
    assert len(header) == 1 + 2 * 10
    assert header.count("crisp_x") == 1


_SPECS_OF_ALL = {f"{command}-{name}": (command, spec) for command in ("curve", "plot") for name, spec in (("empty", ""), ("comma", ","), ("all-beside-a-group", " crisp , all "))}


@pytest.mark.parametrize("case", [*CLI_REFUSALS["test_series_spec_exit_code_and_error_line"], *_SPECS_OF_ALL])
def test_series_spec_exit_code_and_error_line(demo_path, capsys, case):
    """An unknown name is refused with one line naming it (the rows of
    CLI_REFUSALS); an empty spec, and one naming ``all``, give what
    ``--series all`` gives."""
    if case not in _SPECS_OF_ALL:
        assert_cli_refused(*CLI_REFUSALS["test_series_spec_exit_code_and_error_line"][case])
        return
    command, spec = _SPECS_OF_ALL[case]
    assert run([command, str(demo_path), "--series", "all"]) == 0
    every = capsys.readouterr().out
    assert run([command, str(demo_path), "--series", spec]) == 0
    assert capsys.readouterr() == (every, "")


def test_plot_of_a_subnormal_span_draws_finite_pixels(tmp_path):
    """Points whose every component is 0, 5e-324 and 0: the span is too
    small to divide the canvas by, and the figure is still drawn."""
    coords = np.ones((3, 2, 8)) * np.array([0.0, 5e-324, 0.0])[:, None, None]
    coords[:, :, -1] = 1.0
    doc = tmp_path / "tiny.json"
    doc.write_text(document_to_json(ModelDocument(coords, [1, 1, 1], 2, 0.8, 101)))
    proc = _process(["plot", "DOC", "--series", "crisp"], doc, capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert "nan" not in proc.stdout and "inf" not in proc.stdout
    polyline = re.search(r'<polyline class="series-crisp"[^>]* points="([^"]*)"', proc.stdout).group(1)
    px = np.array([pair.split(",") for pair in polyline.split()], dtype=float)
    assert len(px) == 101 and np.ptp(px[:, 0]) > 400 and np.ptp(px[:, 1]) > 400


def test_plot_writes_svg():
    text = cli_output("plot {doc} --series crisp,defuzzified --out {out}", DEMO_TEXT)
    assert text.startswith('<?xml')
    assert text.count("<polyline") == 2
    assert "markers-controls" in text


def test_pipeline_json_matches_library(demo_path, tmp_path):
    out = tmp_path / "solutions.json"
    assert run(["pipeline", str(demo_path), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    model = demo_document().to_model()
    expected = [oracles.pipeline_point(rows, model.alpha) for rows in model.coords.tolist()]
    assert payload["alpha"] == 0.8
    got = [(rec["x"], rec["y"]) for rec in payload["points"]]
    assert np.allclose(got, expected, atol=0)


def test_pipeline_csv_format(demo_path, capsys):
    assert run(["pipeline", str(demo_path), "--format", "csv"]) == 0
    rows = capsys.readouterr().out.strip().split("\n")
    assert rows[0] == "index,x,y"
    assert len(rows) == 5


def test_alpha_override_changes_pipeline():
    a, b = (json.loads(cli_output(f"pipeline {{doc}}{alpha} --out {{out}}", DEMO_TEXT)) for alpha in ("", " --alpha 0.2"))
    assert a["alpha"] == 0.8 and b["alpha"] == 0.2
    assert a["points"] != b["points"]


def test_samples_override():
    assert len(cli_output("curve {doc} --series crisp --samples 7 --out {out}", DEMO_TEXT).strip().split("\n")) == 8


def test_console_module_entrypoint(demo_path, tmp_path):
    out = tmp_path / "fig.svg"
    proc = subprocess.run(
        [sys.executable, "-m", "t2spline.cli", "plot", str(demo_path), "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert out.exists()


def _process(argv, doc, **kwargs) -> subprocess.CompletedProcess:
    """``python -m t2spline.cli`` with ``"DOC"`` in ``argv`` replaced by the
    path ``doc``.  The child's standard output is block-buffered, as a
    user's is: ``PYTHONUNBUFFERED`` would hide a missing final flush."""
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    argv = [str(doc) if arg == "DOC" else arg for arg in argv]
    return subprocess.run([sys.executable, "-m", "t2spline.cli", *argv], env=env, **kwargs)


def _blas_kernels_unselectable() -> str | None:
    """Why ``OPENBLAS_CORETYPE`` cannot choose numpy's BLAS kernel here, or
    None: it needs an OpenBLAS built with ``DYNAMIC_ARCH`` on x86-64."""
    if platform.machine().lower() not in ("x86_64", "amd64"):
        return f"OpenBLAS kernel names are x86-64 ones; this machine is {platform.machine()}"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "numpy does not report its BLAS build"
    if "DYNAMIC_ARCH" not in blas.get("openblas configuration", ""):
        return f"numpy's BLAS ({blas.get('name')}) is not an OpenBLAS built with DYNAMIC_ARCH"
    return None


def test_curve_bytes_do_not_depend_on_the_blas_kernel(demo_path, tmp_path):
    """Curve points are summed by the package, not by BLAS, so ``curve``
    writes the same bytes whichever kernel OpenBLAS picks for the CPU."""
    reason = _blas_kernels_unselectable()
    if reason:
        pytest.skip(reason)
    wide = tmp_path / "order4.json"
    wide.write_text(document_to_json(_order4_document(12)))
    for doc in (demo_path, wide):
        outputs = set()
        for kernel in ("Sandybridge", "Haswell"):
            env = {**os.environ, "OPENBLAS_CORETYPE": kernel}
            argv = [sys.executable, "-m", "t2spline.cli", "curve", str(doc), "--series", "all"]
            proc = subprocess.run(argv, env=env, capture_output=True, timeout=60)
            assert (proc.returncode, proc.stderr) == (0, b"")
            outputs.add(proc.stdout)
        assert len(outputs) == 1, doc.name


STDOUT_COMMANDS = {
    "demo": ["demo"],
    "validate": ["validate", "DOC"],
    "pipeline": ["pipeline", "DOC"],
    "curve": ["curve", "DOC"],
    "plot": ["plot", "DOC"],
    "help": ["--help"],
}


@pytest.mark.parametrize("sink", ["closed-pipe", "dev-full"])
@pytest.mark.parametrize("argv", STDOUT_COMMANDS.values(), ids=STDOUT_COMMANDS)
def test_a_failed_write_of_standard_output_exits_2_with_one_error_line(demo_path, sink, argv):
    if sink == "closed-pipe":
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = _process(argv, demo_path, stdout=write_end, stderr=subprocess.PIPE, text=True)
        finally:
            os.close(write_end)
    else:
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full on this system")
        with open("/dev/full", "wb") as full:
            proc = _process(argv, demo_path, stdout=full, stderr=subprocess.PIPE, text=True)
    assert "Exception ignored" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert (proc.returncode, len(lines)) == (2, 1), proc.stderr
    assert lines[0].startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["demo"],
        ["pipeline", "DOC"],
        ["pipeline", "DOC", "--format", "csv"],
        ["curve", "DOC", "--series", "all"],
        ["plot", "DOC"],
    ],
    ids=["demo", "pipeline-json", "pipeline-csv", "curve", "plot"],
)
def test_the_process_flushes_standard_output_before_it_ends(demo_path, tmp_path, argv):
    out = tmp_path / "out"
    piped = _process(argv, demo_path, capture_output=True)
    written = _process([*argv, "--out", str(out)], demo_path, capture_output=True)
    assert (piped.returncode, piped.stderr) == (0, b"")
    assert (written.returncode, written.stdout, written.stderr) == (0, b"", b"")
    assert piped.stdout == out.read_bytes()


@pytest.mark.parametrize(
    "argv, code",
    [
        (["validate", "DOC"], 0),
        (["curve", "BAD"], 1),
        (["validate", "ABSENT"], 2),
    ],
    ids=["valid", "refused", "absent"],
)
def test_the_process_exits_with_the_code_of_run(demo_path, tmp_path, argv, code):
    (tmp_path / "BAD").write_text(BROKEN)
    argv = [str(tmp_path / arg) if arg in ("BAD", "ABSENT") else arg for arg in argv]
    proc = _process(argv, demo_path, capture_output=True, text=True)
    assert proc.returncode == code
    if code:
        assert (proc.stdout, len(proc.stderr.splitlines())) == ("", 1)
        assert proc.stderr.startswith("error: ")
    else:
        assert (proc.stdout, proc.stderr) == (f"{demo_path}: ok\n", "")


@pytest.mark.parametrize("command", ["demo", "curve"])
def test_output_with_no_standard_output_exits_2_with_one_error_line(demo_path, command):
    """A process started with descriptor 1 closed has ``sys.stdout`` None."""
    argv = STDOUT_COMMANDS[command]
    proc = _process(argv, demo_path, stderr=subprocess.PIPE, text=True, preexec_fn=lambda: os.close(1))
    assert (proc.returncode, proc.stderr) == (2, "error: [Errno 9] standard output is closed\n")


@pytest.mark.parametrize("stderr", ["closed", "read-only"])
@pytest.mark.parametrize(
    "argv, code",
    [(["validate", "ABSENT"], 2), (["curve", "BROKEN"], 2), (["pipeline", "BAD"], 1)],
    ids=["absent", "parse-error", "refused"],
)
def test_an_error_keeps_its_exit_code_when_standard_error_cannot_be_written(demo_path, tmp_path, stderr, argv, code):
    """A process started with descriptor 2 closed has ``sys.stderr`` None;
    with descriptor 2 open for reading only, a write to it fails.  Either
    way the ``error:`` line is dropped, standard output stays empty and the
    exit code is the documented one."""
    (tmp_path / "BAD").write_text(BROKEN)
    (tmp_path / "BROKEN").write_text("{not json")
    argv = [str(tmp_path / arg) if arg.isupper() else arg for arg in argv]
    if stderr == "closed":
        proc = _process(argv, demo_path, stdout=subprocess.PIPE, text=True, preexec_fn=lambda: os.close(2))
    else:
        with open(demo_path, "rb") as read_only:
            proc = _process(argv, demo_path, stdout=subprocess.PIPE, stderr=read_only, text=True)
    assert (proc.returncode, proc.stdout) == (code, "")


def _order4_document(n=12):
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


@pytest.mark.parametrize("doc", [demo_document(), _order4_document()], ids=["demo", "order4"])
def test_curve_all_columns_match_library_views(doc):
    rows = list(csv.reader(cli_output("curve {doc} --series all --out {out}", document_to_json(doc)).splitlines()))
    columns = dict(zip(rows[0], np.array(rows[1:], dtype=float).T))

    model = doc.to_model()
    reduced = reduced_curves(model, doc.samples)
    expected = dict(fuzzy_curve_band(model, doc.samples).items())
    expected.update(tr_left=reduced.left, tr_right=reduced.right)
    expected["defuzzified"] = defuzzified_curve(model, doc.samples)
    crisp = sample_curve(model.crisp_model(), doc.samples)
    assert np.array_equal(reduced.crisp.points, crisp.points)
    assert np.array_equal(expected["crisp"].points, crisp.points)

    assert len(columns) == 1 + 2 * len(expected)
    assert np.array_equal(columns["t"], crisp.params)
    for name, line in expected.items():
        assert np.array_equal(columns[f"{name}_x"], line.points[:, 0]), name
        assert np.array_equal(columns[f"{name}_y"], line.points[:, 1]), name


def test_failed_render_leaves_existing_output_untouched(demo_path, tmp_path, monkeypatch):
    out = tmp_path / "curve.csv"
    out.write_bytes(b"previous,bytes\r\n")

    def half_then_fail(f, header, columns, formats):
        f.write("t,crisp_x\n0.0,")
        raise T2SplineError("render failed")

    monkeypatch.setattr(output, "write_table", half_then_fail)
    assert run(["curve", str(demo_path), "--out", str(out)]) == 1
    assert out.read_bytes() == b"previous,bytes\r\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["curve.csv", "model.json"]


def test_curve_all_computes_the_basis_once(demo_path, tmp_path, monkeypatch):
    calls = []
    kernel = bspline.basis_rows

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(bspline, "basis_rows", counted)
    assert run(["curve", str(demo_path), "--series", "all", "--out", str(tmp_path / "all.csv")]) == 0
    assert len(calls) == 1


def test_high_order_document_at_the_sample_bound_is_refused_at_once(monkeypatch):
    """The sample bound of order 400 is read before any basis work."""
    monkeypatch.setattr(bspline, "basis_rows", lambda *args: pytest.fail("the basis was computed"))
    for row in CLI_REFUSALS["test_high_order_document_at_the_sample_bound_is_refused_at_once"]:
        assert_cli_refused(*row)


def test_out_of_memory_is_one_error_line(demo_path, tmp_path, capsys, monkeypatch):
    message = "Unable to allocate 2.98 GiB for an array with shape (1000000, 400)"

    def exhausted(*args):
        raise MemoryError(message)

    monkeypatch.setattr(bspline, "basis_rows", exhausted)
    out = tmp_path / "out.csv"
    assert run(["curve", str(demo_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: out of memory: {message}\n"
    assert not out.exists()


def test_out_through_symlink_keeps_the_link(demo_path, tmp_path, capsys):
    target = tmp_path / "target.json"
    target.write_text("old")
    link = tmp_path / "link.json"
    link.symlink_to(target)
    assert run(["demo", "--out", str(link)]) == 0
    assert link.is_symlink() and link.resolve() == target
    assert target.read_text() == demo_path.read_text()


def test_out_keeps_the_mode_of_an_existing_file(demo_path, tmp_path):
    out = tmp_path / "private.csv"
    out.write_text("old")
    out.chmod(0o600)
    assert run(["curve", str(demo_path), "--series", "crisp", "--out", str(out)]) == 0
    assert stat.S_IMODE(out.stat().st_mode) == 0o600
    assert out.read_text().startswith("t,crisp_x,crisp_y\n")


def test_out_keeps_hard_links(demo_path, tmp_path):
    out = tmp_path / "a.json"
    out.write_text("old")
    other = tmp_path / "b.json"
    os.link(out, other)
    assert run(["demo", "--out", str(out)]) == 0
    assert os.path.samefile(out, other)
    assert other.read_text() == demo_path.read_text()


def test_out_to_a_fifo_writes_into_it(demo_path, tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    # A reader opened without blocking lets the writer open the FIFO at once;
    # the demo document fits in the pipe buffer.
    fd = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert run(["demo", "--out", str(fifo)]) == 0
        data = b""
        while chunk := os.read(fd, 1 << 16):
            data += chunk
    finally:
        os.close(fd)
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert data == demo_path.read_bytes()


@pytest.mark.parametrize("source", ["demo", "generated"])
@pytest.mark.parametrize("alpha", [None, "0.3", "0"])
def test_pipeline_output_equals_the_scalar_chain_serialised(source, alpha):
    text = DEMO_TEXT if source == "demo" else json.dumps(gen_style_document(), indent=2)
    model = parse_document(text).to_model()
    if alpha is not None:
        model = curves.FuzzyCurveModel(model.coords, model.weights, model.order, model.knots, float(alpha))
    solutions = [oracles.pipeline_point(rows, model.alpha) for rows in model.coords.tolist()]
    expected_json = json.dumps({"alpha": model.alpha, "points": [{"x": x, "y": y} for x, y in solutions]}, indent=2)
    expected_csv = "index,x,y\n" + "".join(f"{i},{x:.16e},{y:.16e}\n" for i, (x, y) in enumerate(solutions))
    override = "" if alpha is None else f" --alpha {alpha}"
    for fmt, expected in (("json", expected_json + "\n"), ("csv", expected_csv)):
        assert_same_text(cli_output(f"pipeline {{doc}} --format {fmt}{override} --out {{out}}", text), expected)


def test_pipeline_builds_the_model_once(demo_path, tmp_path, monkeypatch):
    built = []
    post_init = curves.FuzzyCurveModel.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(curves.FuzzyCurveModel, "__post_init__", counting)
    assert run(["pipeline", str(demo_path), "--out", str(tmp_path / "p.json")]) == 0
    assert len(built) == 1


@pytest.mark.parametrize(
    "argv, solves",
    [
        (["pipeline"], 1),
        (["curve", "--series", "all"], 1),
        (["pipeline", "--alpha", "0.3"], 2),
        (["curve", "--series", "all", "--alpha", "0.3"], 2),
        (["curve", "--series", "all", "--order", "2"], 2),
    ],
    ids=["pipeline", "curve-all", "pipeline-alpha", "curve-all-alpha", "curve-all-order"],
)
def test_each_model_is_solved_once(demo_path, tmp_path, monkeypatch, argv, solves):
    """Parsing solves the document's model; the command reuses that solution
    unless --alpha or --order makes a new model, which is solved when it is built."""
    calls = []
    solve = pipeline.solve

    def counted(*args):
        calls.append(args)
        return solve(*args)

    bound = [
        module for name, module in sys.modules.items() if name.startswith("t2spline") and vars(module).get("solve") is solve
    ]
    assert pipeline in bound and curves in bound
    for module in bound:
        monkeypatch.setattr(module, "solve", counted)
    command, *options = argv
    assert run([command, str(demo_path), *options, "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == solves


@pytest.mark.parametrize("cut", ["own", "height"])
@pytest.mark.parametrize("source", ["demo", "generated"])
def test_overrides_give_the_bytes_of_the_document_saved_with_them(source, cut):
    """--order and --alpha give the bytes of the same document saved with
    that order and alpha: the document's own alpha, or a coordinate's height
    (the boundary of the two cut regimes)."""
    raw = json.loads(DEMO_TEXT) if source == "demo" else gen_style_document()
    order, alpha = 2, raw["alpha"] if cut == "own" else raw["points"][1]["y"]["h"]
    saved = json.dumps({**raw, "order": order, "alpha": alpha})
    reorder, recut = f" --order {order} --alpha {alpha!r}", f" --alpha {alpha!r}"
    for argv, overrides in [("curve {doc} --series all", reorder), ("plot {doc}", reorder), ("pipeline {doc}", recut), ("pipeline {doc} --format csv", recut)]:
        got = cli_output(f"{argv}{overrides} --out {{out}}", json.dumps(raw))
        assert got == cli_output(f"{argv} --out {{out}}", saved), argv


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


@pytest.mark.parametrize("spec, labels", _SERIES_COLUMNS.items(), ids=list(_SERIES_COLUMNS))
def test_series_subset_column_and_drawing_order(demo_path, tmp_path, spec, labels):
    table, figure = tmp_path / "out.csv", tmp_path / "out.svg"
    assert run(["curve", str(demo_path), "--series", spec, "--samples", "3", "--out", str(table)]) == 0
    assert run(["plot", str(demo_path), "--series", spec, "--samples", "3", "--out", str(figure)]) == 0
    assert table.read_text().split("\n")[0].split(",") == ["t", *(f"{label}_{axis}" for label in labels for axis in "xy")]
    assert re.findall(r'<polyline class="series-([^"]*)"', figure.read_text()) == labels


def _library_files(tmp_path, doc, spec):
    """The CSV and SVG files the library writes of ``evaluate``'s arrays of
    the ``--series`` groups ``spec``, after checking that those arrays are
    the points of the library's views."""
    model = doc.to_model()
    ts, series = curves.evaluate(model, spec.split(","), doc.samples)
    reduced = reduced_curves(model, doc.samples)
    views = {
        **dict(fuzzy_curve_band(model, doc.samples).items()),
        **dict(reduced.items()),
        "defuzzified": defuzzified_curve(model, doc.samples),
        "crisp": sample_curve(model.crisp_model(), doc.samples),
    }
    for label, points in series.items():
        assert np.array_equal(points, views[label].points) and np.array_equal(ts, views[label].params), label
    table, figure = tmp_path / "library.csv", tmp_path / "library.svg"
    write_csv(ts, series, table)
    render_svg(Scene(series, model.crisp_model().controls), figure)
    return table, figure


@pytest.mark.parametrize("spec", _SERIES_COLUMNS)
def test_plot_equals_the_scene_of_library_views(tmp_path, spec):
    """``plot`` writes the bytes ``render_svg`` writes of ``evaluate``'s
    arrays, which are the points of the library's views."""
    doc = _order4_document()
    written = cli_output(f"plot {{doc}} --series {spec} --out {{out}}", document_to_json(doc))
    assert written == _library_files(tmp_path, doc, spec)[1].read_bytes().decode()


@pytest.mark.parametrize("spec", _SERIES_COLUMNS)
def test_curve_equals_the_table_of_library_views(tmp_path, spec):
    """``curve`` writes the bytes ``write_csv`` writes of ``evaluate``'s
    arrays, which are the points of the library's views."""
    doc = _order4_document()
    written = cli_output(f"curve {{doc}} --series {spec} --out {{out}}", document_to_json(doc))
    assert written == _library_files(tmp_path, doc, spec)[0].read_bytes().decode()


def test_pipeline_csv_across_row_blocks():
    text = json.dumps(gen_style_document(n=2 * (BLOCK_CELLS // 3) + 1), indent=2)
    model = parse_document(text).to_model()
    solutions = [oracles.pipeline_point(rows, model.alpha) for rows in model.coords.tolist()]
    expected = "index,x,y\n" + "".join(f"{i},{x:.16e},{y:.16e}\n" for i, (x, y) in enumerate(solutions))
    assert_same_text(cli_output("pipeline {doc} --format csv --out {out}", text), expected)


def _demo_scaled(scale, points=None):
    """The demo document, the seven components of each coordinate of
    ``points`` (all by default) multiplied by ``scale``."""
    raw = json.loads(document_to_json(demo_document()))
    for i, point in enumerate(raw["points"]):
        if points is None or i in points:
            for coord in point.values():
                coord.update({key: value * scale for key, value in coord.items() if key != "h"})
    return raw


@pytest.mark.parametrize(
    "raw",
    [_demo_scaled(1e-9), _demo_scaled(1e20), _demo_scaled(1e-3, points={0}), gen_style_document(n=BLOCK_CELLS // 2 + 1)],
    ids=["demo-1e-9", "demo-1e20", "demo-one-point-1e-3", "generated-two-blocks"],
)
def test_pipeline_json_equals_json_dumps_of_the_scalar_chain(raw):
    """Solutions beyond the positional range of repr, below 1e-4 beside
    ordinary ones in one block, and in two blocks, byte for byte."""
    text = json.dumps(raw, indent=2)
    model = parse_document(text).to_model()
    solutions = np.array([oracles.pipeline_point(rows, model.alpha) for rows in model.coords.tolist()])
    written = cli_output("pipeline {doc} --format json --out {out}", text).encode()
    assert_same_text(written, oracles.pipeline_json(model.alpha, solutions).encode("ascii"))


# --- one argument parser per process ---------------------------------------------


def test_the_parser_is_built_once_per_process(demo_path, tmp_path, monkeypatch):
    assert run(["validate", str(demo_path)]) == 0  # builds the parser if no test has
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert run(["curve", str(demo_path), "--series", "crisp", "--out", str(tmp_path / "c.csv")]) == 0
    assert run(["pipeline", str(demo_path), "--out", str(tmp_path / "p.json")]) == 0
    assert built == []


def test_options_of_one_call_do_not_leak_into_the_next(demo_path, tmp_path):
    first = tmp_path / "first.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "t2spline.cli", "curve", str(demo_path), "--out", str(first)],
        capture_output=True,
        text=True,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(["curve", str(demo_path), "--alpha", "0.3", "--samples", "5", "--out", str(a)]) == 0
    assert run(["curve", str(demo_path), "--out", str(b)]) == 0
    assert a.read_bytes() != first.read_bytes()
    assert b.read_bytes() == first.read_bytes()


@pytest.mark.parametrize("failing, code", [(["curve"], 2), (["--help"], 0)], ids=["usage-error", "help"])
def test_a_call_after_an_exiting_parse_runs_normally(demo_path, tmp_path, capsys, failing, code):
    expected = tmp_path / "expected.csv"
    assert run(["curve", str(demo_path), "--out", str(expected)]) == 0
    capsys.readouterr()
    assert run(failing) == code
    captured = capsys.readouterr()
    assert (captured.out if code == 0 else captured.err).startswith("usage: t2spline")
    assert run(["curve", str(demo_path)]) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (expected.read_text(), "")


def test_help_is_wrapped_to_the_width_of_each_call(capsys, monkeypatch):
    description = "Model normal type-2 fuzzy data points as rational B-spline curves."
    helps = {}
    for columns in (40, 200):
        monkeypatch.setenv("COLUMNS", str(columns))
        assert run(["--help"]) == 0
        helps[columns] = capsys.readouterr().out.splitlines()
    # argparse wraps prose, never the one-word list of subcommands
    assert max(len(line) for line in helps[40] if "{" not in line) <= 40
    assert description not in helps[40]
    assert description in helps[200]
