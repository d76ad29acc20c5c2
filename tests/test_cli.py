import argparse
import json
import os
import platform
import subprocess
import sys

import numpy as np
import pytest

from t2spline import document_to_json
from t2spline import bspline, curves, pipeline
from t2spline.cli import run
from test_boundary import (
    BROKEN, CLI_OUTPUTS, CLI_REFUSALS, OUT_COMMANDS, OUTPUT_TARGETS, assert_cli_refused, assert_cli_writes, assert_target_written, order4_document,
    refusal_tests,
)

#: A test defined here that runs its rows of CLI_REFUSALS beside a check of its own.
_RUN_HERE = "test_high_order_document_at_the_sample_bound_is_refused_at_once"
#: A test defined here whose unknown series names are refused and whose other specs are written.
_SPEC = "test_series_spec_exit_code_and_error_line"
globals().update(refusal_tests({name: rows for name, rows in CLI_REFUSALS.items() if name not in (_RUN_HERE, _SPEC)}, check=assert_cli_refused))
globals().update(refusal_tests({name: rows for name, rows in CLI_OUTPUTS.items() if name != _SPEC}, check=assert_cli_writes))
globals().update(refusal_tests(OUTPUT_TARGETS["test_cli"], check=assert_target_written))


@pytest.mark.parametrize(
    "check, rows",
    [pytest.param(assert_cli_refused, rows, id=name) for name, rows in CLI_REFUSALS[_SPEC].items()]
    + [pytest.param(assert_cli_writes, rows, id=name) for name, rows in CLI_OUTPUTS[_SPEC].items()],
)
def test_series_spec_exit_code_and_error_line(check, rows):
    for row in rows:
        check(*row)


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
    wide.write_text(document_to_json(order4_document(12)))
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


@pytest.mark.parametrize("argv", OUT_COMMANDS.values(), ids=list(OUT_COMMANDS))
def test_the_process_flushes_standard_output_before_it_ends(demo_path, tmp_path, argv):
    argv, out = argv.replace("{doc}", "DOC").split(), tmp_path / "out"
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
    for row in CLI_REFUSALS[_RUN_HERE]:
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
