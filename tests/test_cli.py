import argparse
import csv
import json
import os
import platform
import re
import stat
import subprocess
import sys
import time

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
    load_model,
    reduced_curves,
    render_svg,
    sample_curve,
    write_csv,
)
from t2spline import bspline, cli, curves, output, pipeline
from t2spline.cli import run
from t2spline.output import BLOCK_CELLS


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


def test_validate_broken_ordering_exits_1(tmp_path, capsys):
    raw = json.loads(document_to_json(demo_document()))
    raw["points"][0]["x"]["l"] = raw["points"][0]["x"]["rl"] + 1.0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    assert run(["validate", str(bad)]) == 1
    assert "l > rl" in capsys.readouterr().err


def test_missing_file_exits_2(tmp_path, capsys):
    assert run(["validate", str(tmp_path / "absent.json")]) == 2
    assert "error" in capsys.readouterr().err


def test_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert run(["validate", str(path)]) == 2
    assert "line" in capsys.readouterr().err


def test_curve_crisp_two_samples_hits_endpoints(demo_path, tmp_path):
    out = tmp_path / "crisp.csv"
    assert run(["curve", str(demo_path), "--series", "crisp", "--samples", "2", "--out", str(out)]) == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["t", "crisp_x", "crisp_y"]
    assert [float(v) for v in rows[1]] == [0.0, 0.0, 0.0]
    assert [float(v) for v in rows[2]] == [1.0, 7.0, 1.0]


def test_curve_all_series_columns(demo_path, tmp_path):
    out = tmp_path / "all.csv"
    assert run(["curve", str(demo_path), "--samples", "5", "--out", str(out)]) == 0
    header = out.read_text().split("\n")[0].split(",")
    # band (7) + tr_left/tr_right + defuzzified, crisp deduplicated
    assert len(header) == 1 + 2 * 10
    assert header.count("crisp_x") == 1


def test_curve_rejects_unknown_series(demo_path, capsys):
    assert run(["curve", str(demo_path), "--series", "nonsense"]) == 1
    assert "unknown series" in capsys.readouterr().err


_UNKNOWN_BOGUS = "error: unknown series ['bogus']; choose from band, reduced, crisp, defuzzified, all\n"


@pytest.mark.parametrize(
    "spec, code, err",
    [("bogus", 1, _UNKNOWN_BOGUS), ("all,bogus", 1, _UNKNOWN_BOGUS), ("", 0, ""), (",", 0, ""), (" crisp , all ", 0, "")],
    ids=["unknown", "all-and-unknown", "empty", "comma", "all-beside-a-group"],
)
@pytest.mark.parametrize("command", ["curve", "plot"])
def test_series_spec_exit_code_and_error_line(demo_path, capsys, command, spec, code, err):
    """An unknown name is refused with one line naming it; an empty spec,
    and one naming ``all``, give what ``--series all`` gives."""
    assert run([command, str(demo_path), "--series", "all"]) == 0
    every = capsys.readouterr().out
    assert run([command, str(demo_path), "--series", spec]) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (every if code == 0 else "", err)


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


def test_plot_writes_svg(demo_path, tmp_path):
    out = tmp_path / "fig.svg"
    assert run(["plot", str(demo_path), "--series", "crisp,defuzzified", "--out", str(out)]) == 0
    text = out.read_text()
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


def test_alpha_override_changes_pipeline(demo_path, tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["pipeline", str(demo_path), "--out", str(out1)]) == 0
    assert run(["pipeline", str(demo_path), "--alpha", "0.2", "--out", str(out2)]) == 0
    a = json.loads(out1.read_text())
    b = json.loads(out2.read_text())
    assert a["alpha"] == 0.8 and b["alpha"] == 0.2
    assert a["points"] != b["points"]


def test_samples_override(demo_path, tmp_path):
    out = tmp_path / "c.csv"
    assert run(["curve", str(demo_path), "--series", "crisp", "--samples", "7", "--out", str(out)]) == 0
    assert len(out.read_text().strip().split("\n")) == 8


def test_usage_error_returns_argparse_code():
    assert run([]) == 2
    assert run(["bogus-command"]) == 2


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
    raw = json.loads(demo_path.read_text())
    raw["points"][0]["x"]["l"] = raw["points"][0]["x"]["rl"] + 1.0
    (tmp_path / "BAD").write_text(json.dumps(raw))
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
    raw = json.loads(demo_path.read_text())
    raw["points"][0]["x"]["l"] = raw["points"][0]["x"]["rl"] + 1.0
    (tmp_path / "BAD").write_text(json.dumps(raw))
    (tmp_path / "BROKEN").write_text("{not json")
    argv = [str(tmp_path / arg) if arg.isupper() else arg for arg in argv]
    if stderr == "closed":
        proc = _process(argv, demo_path, stdout=subprocess.PIPE, text=True, preexec_fn=lambda: os.close(2))
    else:
        with open(demo_path, "rb") as read_only:
            proc = _process(argv, demo_path, stdout=subprocess.PIPE, stderr=read_only, text=True)
    assert (proc.returncode, proc.stdout) == (code, "")


@pytest.mark.parametrize("command", ["validate", "curve"])
def test_non_utf8_input_exits_2(tmp_path, capsys, command):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"points": [], "note": "caf\xe9"}')
    assert run([command, str(path)]) == 2
    assert "UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "curve"])
def test_deeply_nested_json_exits_2(tmp_path, capsys, command):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000)
    assert run([command, str(path)]) == 2
    assert "nested too deeply" in capsys.readouterr().err


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
def test_curve_all_columns_match_library_views(tmp_path, doc):
    path = tmp_path / "model.json"
    path.write_text(document_to_json(doc))
    out = tmp_path / "all.csv"
    assert run(["curve", str(path), "--series", "all", "--out", str(out)]) == 0
    rows = list(csv.reader(out.read_text().splitlines()))
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


@pytest.mark.parametrize("order", ["-1", "0", "1"])
def test_curve_order_below_two_exits_1(demo_path, capsys, order):
    assert run(["curve", str(demo_path), "--order", order]) == 1
    assert "order must be at least 2" in capsys.readouterr().err


def test_failed_curve_creates_no_output_file(demo_path, tmp_path):
    out = tmp_path / "x.csv"
    assert run(["curve", str(demo_path), "--samples", "1", "--out", str(out)]) == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["curve", "plot"])
def test_oversized_sample_count_exits_1_without_output(demo_path, tmp_path, capsys, command):
    out = tmp_path / "out"
    assert run([command, str(demo_path), "--samples", str(10**9), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "samples" in err and "Traceback" not in err
    assert not out.exists()


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


def test_many_points_at_a_million_samples_exit_1_without_output(tmp_path, capsys):
    """At order 20 the basis work admits 838,860 samples."""
    payload = json.loads(document_to_json(_order4_document(400)))
    payload.update(order=20)
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(payload))
    out = tmp_path / "out.csv"
    for samples in (10**6, 10**9, 10**12):
        assert run(["curve", str(path), "--samples", str(samples), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: samples must be an integer from 2 to 838860 for order 20, got {samples}\n"
    assert not out.exists()


def test_high_order_document_at_the_sample_bound_is_refused_at_once(tmp_path, capsys):
    """16,777,216 samples are the most a curve takes, but at order 400 their
    basis work would take hours."""
    payload = json.loads(document_to_json(_order4_document(400)))
    payload.update(order=400, samples=2**24)
    path = tmp_path / "high-order.json"
    path.write_text(json.dumps(payload))
    message = "error: samples must be an integer from 2 to 2097 for order 400, got 16777216\n"
    for argv in (["validate", str(path)], ["curve", str(path), "--out", str(tmp_path / "out.csv")]):
        start = time.perf_counter()
        assert run(argv) == 1
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == message
    assert not (tmp_path / "out.csv").exists()


def test_a_sample_count_is_refused_with_one_message(demo_path, tmp_path, capsys):
    payload = json.loads(demo_path.read_text())
    payload["samples"] = 1
    path = tmp_path / "one-sample.json"
    path.write_text(json.dumps(payload))
    message = "error: samples must be an integer from 2 to 16777216 for order 3, got 1\n"
    for argv in (["validate", str(path)], ["curve", str(demo_path), "--samples", "1"]):
        assert run(argv) == 1
        assert capsys.readouterr().err == message


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


def _write_doc(path, points, **settings):
    path.write_text(json.dumps({**settings, "points": points}))
    return path


def _crisp(v):
    return {"ll": v, "l": v, "rl": v, "c": v, "lr": v, "r": v, "rr": v, "h": 0.5}


_UNIT = {"ll": 0, "l": 0.5, "rl": 0.8, "c": 1, "lr": 1.2, "r": 1.5, "rr": 2, "h": 0.6}


def _exits_1_with_one_error_line(argv, out, capsys):
    assert run([*argv, "--out", str(out)] if argv[0] != "validate" else argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1 and captured.err.startswith("error: ")
    assert not out.exists()
    return captured.err


@pytest.mark.parametrize("command", ["validate", "pipeline", "curve", "plot"])
def test_overflowing_type_reduction_is_refused(tmp_path, capsys, command):
    wide = {"ll": -1e308, "l": -1e308, "rl": 0, "c": 1e308, "lr": 1e308, "r": 1e308, "rr": 1e308, "h": 0.6}
    points = [{"x": wide, "y": _UNIT}] + [{"x": _UNIT, "y": _UNIT}] * 2
    doc = _write_doc(tmp_path / "wide.json", points, order=2, alpha=0.5)
    err = _exits_1_with_one_error_line([command, str(doc)], tmp_path / "out", capsys)
    assert err.startswith("error: point 0, coordinate x: the type-reduced interval")


@pytest.mark.parametrize("command", ["curve", "plot"])
def test_non_finite_curve_points_are_refused(tmp_path, capsys, command):
    points = [{"x": _crisp(5e307), "y": _crisp(1.0)}] * 4
    doc = _write_doc(tmp_path / "heavy.json", points, weights=[1, 1, 100, 1])
    assert run(["validate", str(doc)]) == 0
    capsys.readouterr()
    err = _exits_1_with_one_error_line([command, str(doc), "--series", "crisp"], tmp_path / "out", capsys)
    assert "curve points are not finite" in err


@pytest.mark.parametrize("digits,code", [(400, 1), (5000, 2)])
def test_huge_integer_literal_exits_without_traceback(tmp_path, capsys, digits, code):
    doc = _write_doc(tmp_path / "big.json", [{"x": _UNIT, "y": _UNIT}] * 3)
    doc.write_text(doc.read_text().replace('"rr": 2', '"rr": 1' + "0" * digits, 1))
    assert run(["validate", str(doc)]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def _gen_style_document(seed=5, n=40):
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


@pytest.mark.parametrize("source", ["demo", "generated"])
@pytest.mark.parametrize("alpha", [None, "0.3", "0"])
def test_pipeline_output_equals_the_scalar_chain_serialised(tmp_path, source, alpha):
    path = tmp_path / "doc.json"
    if source == "demo":
        path.write_text(document_to_json(demo_document()))
    else:
        path.write_text(json.dumps(_gen_style_document(), indent=2))
    model = load_model(path)
    if alpha is not None:
        model = curves.FuzzyCurveModel(model.coords, model.weights, model.order, model.knots, float(alpha))
    solutions = [oracles.pipeline_point(rows, model.alpha) for rows in model.coords.tolist()]
    expected_json = json.dumps({"alpha": model.alpha, "points": [{"x": x, "y": y} for x, y in solutions]}, indent=2)
    expected_csv = "index,x,y\n" + "".join(f"{i},{x:.16e},{y:.16e}\n" for i, (x, y) in enumerate(solutions))
    override = [] if alpha is None else ["--alpha", alpha]
    for fmt, expected in (("json", expected_json + "\n"), ("csv", expected_csv)):
        out = tmp_path / f"out.{fmt}"
        assert run(["pipeline", str(path), "--format", fmt, *override, "--out", str(out)]) == 0
        assert_same_text(out.read_text(), expected)


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
def test_overrides_give_the_bytes_of_the_document_saved_with_them(tmp_path, source, cut):
    """--order and --alpha give the bytes of the same document saved with
    that order and alpha: the document's own alpha, or a coordinate's height
    (the boundary of the two cut regimes)."""
    raw = json.loads(document_to_json(demo_document())) if source == "demo" else _gen_style_document()
    order, alpha = 2, raw["alpha"] if cut == "own" else raw["points"][1]["y"]["h"]
    given, saved = tmp_path / "given.json", tmp_path / "saved.json"
    given.write_text(json.dumps(raw))
    saved.write_text(json.dumps({**raw, "order": order, "alpha": alpha}))
    reorder = ["--order", str(order), "--alpha", repr(alpha)]
    recut = ["--alpha", repr(alpha)]
    runs = [
        (["curve", "--series", "all"], reorder),
        (["plot"], reorder),
        (["pipeline"], recut),
        (["pipeline", "--format", "csv"], recut),
    ]
    for (command, *options), overrides in runs:
        got, want = tmp_path / "got", tmp_path / "want"
        assert run([command, str(given), *options, *overrides, "--out", str(got)]) == 0
        assert run([command, str(saved), *options, "--out", str(want)]) == 0
        assert got.read_bytes() == want.read_bytes(), (command, *options)


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
    path, out = tmp_path / "model.json", tmp_path / "out.svg"
    path.write_text(document_to_json(doc))
    assert run(["plot", str(path), "--series", spec, "--out", str(out)]) == 0
    assert out.read_bytes() == _library_files(tmp_path, doc, spec)[1].read_bytes()


@pytest.mark.parametrize("spec", _SERIES_COLUMNS)
def test_curve_equals_the_table_of_library_views(tmp_path, spec):
    """``curve`` writes the bytes ``write_csv`` writes of ``evaluate``'s
    arrays, which are the points of the library's views."""
    doc = _order4_document()
    path, out = tmp_path / "model.json", tmp_path / "out.csv"
    path.write_text(document_to_json(doc))
    assert run(["curve", str(path), "--series", spec, "--out", str(out)]) == 0
    assert out.read_bytes() == _library_files(tmp_path, doc, spec)[0].read_bytes()


def test_pipeline_csv_across_row_blocks(tmp_path):
    path, out = tmp_path / "doc.json", tmp_path / "out.csv"
    path.write_text(json.dumps(_gen_style_document(n=2 * (BLOCK_CELLS // 3) + 1), indent=2))
    model = load_model(path)
    solutions = [oracles.pipeline_point(rows, model.alpha) for rows in model.coords.tolist()]
    expected = "index,x,y\n" + "".join(f"{i},{x:.16e},{y:.16e}\n" for i, (x, y) in enumerate(solutions))
    assert run(["pipeline", str(path), "--format", "csv", "--out", str(out)]) == 0
    assert_same_text(out.read_text(), expected)


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
    [_demo_scaled(1e-9), _demo_scaled(1e20), _demo_scaled(1e-3, points={0}), _gen_style_document(n=BLOCK_CELLS // 2 + 1)],
    ids=["demo-1e-9", "demo-1e20", "demo-one-point-1e-3", "generated-two-blocks"],
)
def test_pipeline_json_equals_json_dumps_of_the_scalar_chain(tmp_path, raw):
    """Solutions beyond the positional range of repr, below 1e-4 beside
    ordinary ones in one block, and in two blocks, byte for byte."""
    path, out = tmp_path / "doc.json", tmp_path / "out.json"
    path.write_text(json.dumps(raw, indent=2))
    model = load_model(path)
    solutions = np.array([oracles.pipeline_point(rows, model.alpha) for rows in model.coords.tolist()])
    assert run(["pipeline", str(path), "--format", "json", "--out", str(out)]) == 0
    assert_same_text(out.read_bytes(), oracles.pipeline_json(model.alpha, solutions).encode("ascii"))


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
