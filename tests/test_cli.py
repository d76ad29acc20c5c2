import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from t2spline import (
    ModelDocument,
    NT2FuzzyPoint,
    NT2FuzzyScalar,
    defuzzified_curve,
    demo_document,
    document_to_json,
    fuzzy_curve_band,
    pipeline_point,
    reduced_curves,
    sample_curve,
)
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
