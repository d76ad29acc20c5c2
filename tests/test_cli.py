import csv
import json
import os
import stat
import subprocess
import sys

import numpy as np
import pytest

from t2spline import (
    ModelDocument,
    NT2FuzzyPoint,
    NT2FuzzyScalar,
    T2SplineError,
    defuzzified_curve,
    demo_document,
    document_to_json,
    fuzzy_curve_band,
    load_model,
    pipeline_point,
    reduced_curves,
    sample_curve,
)
from t2spline import bspline, cli, curves
from t2spline.cli import run


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
    rows = list(csv.reader(out.open()))
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
    expected = [pipeline_point(p, model.alpha) for p in model.fuzzy_controls]
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
    rows = list(csv.reader(out.open()))
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

    def half_then_fail(series, f):
        f.write("t,crisp_x\n0.0,")
        raise T2SplineError("render failed")

    monkeypatch.setattr(cli, "write_csv", half_then_fail)
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
    path = tmp_path / "wide.json"
    path.write_text(document_to_json(_order4_document(400)))
    out = tmp_path / "out.csv"
    assert run(["curve", str(path), "--samples", str(10**6), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: at most") and "Traceback" not in err
    assert not out.exists()


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
    solutions = [pipeline_point(p, model.alpha) for p in model.fuzzy_controls]
    expected_json = json.dumps({"alpha": model.alpha, "points": [{"x": x, "y": y} for x, y in solutions]}, indent=2)
    expected_csv = "index,x,y\n" + "".join(f"{i},{x:.16e},{y:.16e}\n" for i, (x, y) in enumerate(solutions))
    override = [] if alpha is None else ["--alpha", alpha]
    for fmt, expected in (("json", expected_json + "\n"), ("csv", expected_csv)):
        out = tmp_path / f"out.{fmt}"
        assert run(["pipeline", str(path), "--format", fmt, *override, "--out", str(out)]) == 0
        assert out.read_text() == expected, fmt


def test_pipeline_builds_the_model_once(demo_path, tmp_path, monkeypatch):
    built = []
    post_init = curves.FuzzyCurveModel.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(curves.FuzzyCurveModel, "__post_init__", counting)
    assert run(["pipeline", str(demo_path), "--out", str(tmp_path / "p.json")]) == 0
    assert len(built) == 1
