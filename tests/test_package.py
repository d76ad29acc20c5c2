import argparse
import ast
import shlex
import subprocess
import sys
import types
from pathlib import Path

import pytest

import t2spline
from t2spline import cli
from test_boundary import CLI_COMMANDS, CLI_OUTPUTS, CLI_REFUSALS, ENTRY_POINTS, OUT_COMMANDS, REFUSALS, WRITERS, cli_rows

ROOT = Path(__file__).resolve().parents[1]


def test_all_lists_exactly_the_public_names():
    """``__all__`` names every public class, function and constant the
    package imports or loads on first use, and nothing else; submodules are
    not part of it.  ``dir`` lists the names that load on first use before
    anything has loaded them."""
    public = {
        name
        for name in dir(t2spline)
        if not name.startswith("_") and not isinstance(getattr(t2spline, name), types.ModuleType)
    }
    assert sorted(t2spline.__all__) == sorted(public)
    assert len(t2spline.__all__) == len(set(t2spline.__all__))


#: The public callables that are no entry point of ``test_boundary``, and
#: why; an exception class is none either.
NOT_ENTRY_POINTS = {
    "DeviationReport": "a result of deviation, which checks nothing it holds",
    "Regime": "an Enum: Python looks its members up",
    "demo_document": "takes no arguments",
    "load_document": "reads a path: a failed read is the builtin OSError, and the text is parse_document's",
    "load_model": "load_document, then the document's model",
}


def test_every_public_callable_is_an_entry_point_or_named_as_none():
    """The call boundary grows with the API: each public constructor and
    each function that takes data is an entry point of the boundary tests."""
    public = {name: getattr(t2spline, name) for name in t2spline.__all__ if callable(getattr(t2spline, name))}
    errors = {name for name, value in public.items() if isinstance(value, type) and issubclass(value, Exception)}
    assert sorted(public.keys() - errors - ENTRY_POINTS.keys()) == sorted(NOT_ENTRY_POINTS)
    assert all(ENTRY_POINTS[name][0] is public[name] for name in public.keys() & ENTRY_POINTS.keys())


def _formats(argvs, taking) -> tuple[set, set]:
    """``(subcommand, --format choice or None)`` of each command line of
    ``argvs``, and of each subcommand that takes every option of ``taking``."""
    parser = cli._build_parser()
    parsed = [parser.parse_args(shlex.split(argv)) for argv in argvs]
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    options = {name: {action.dest: action for action in sub._actions} for name, sub in commands.items()}
    formats = {name: getattr(actions.get("format"), "choices", [None]) for name, actions in options.items() if taking <= actions.keys()}
    return {(args.command, getattr(args, "format", None)) for args in parsed}, {(name, f) for name, fs in formats.items() for f in fs}


def test_every_command_is_on_the_cli_boundary():
    """The CLI boundary grows with the parser: each subcommand has a row of
    ``CLI_REFUSALS``, the mutated-document property runs each one that
    reads a FILE, and ``CLI_OUTPUTS`` has a row for each one that writes a
    FILE's output to ``--out``, in each ``--format``."""
    commands = next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
    assert commands.keys() <= {argv.split(" ")[0] for argv, *_ in cli_rows(CLI_REFUSALS)}
    assert {argv.split()[0] for argv in CLI_COMMANDS.values()} == {name for name, sub in commands.items() if "file" in {a.dest for a in sub._actions}}
    ran, offered = _formats((argv for argv, _ in cli_rows(CLI_OUTPUTS)), {"file", "out"})
    assert offered <= ran


def test_every_writer_is_on_the_output_boundary():
    """Each entry point with an output target (``WRITERS``) is refused
    every bad target, and each subcommand with ``--out`` is run, in each
    ``--format``, by ``OUT_COMMANDS``: both run through ``OUTPUT_TARGETS``."""
    for test in ("test_writers_refuse_a_target_that_is_no_stream_or_path", "test_writers_refuse_a_path_holding_nul", "test_writers_refuse_an_empty_path_as_open_does"):
        assert sorted({row[:2] for row in REFUSALS["test_output"][test].values()}) == sorted(WRITERS.values()), test
    ran, offered = _formats(OUT_COMMANDS.values(), {"out"})
    assert ran == offered


@pytest.mark.parametrize("path", ["tests/oracles.py", "tests/texts.py", "perfbench/oracle.py"])
def test_the_oracles_do_not_import_the_package(path):
    """An oracle that called the code it checks would check nothing."""
    imported = set()
    for node in ast.walk(ast.parse((ROOT / path).read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert [name for name in imported if name.split(".")[0] in ("t2spline", "")] == []


def _literal(node) -> bool:
    if isinstance(node, ast.UnaryOp):
        node = node.operand
    return isinstance(node, ast.Constant) and type(node.value) is int


def _literal_positions(index) -> bool:
    """Whether the last index of a subscript is an integer literal, a slice
    with a literal bound or a list holding a literal."""
    if isinstance(index, ast.Slice):
        return any(_literal(bound) for bound in (index.lower, index.upper, index.step) if bound is not None)
    if isinstance(index, ast.List):
        return any(_literal(element) for element in index.elts)
    return _literal(index)


@pytest.mark.parametrize("module", ["pipeline", "curves", "cli", "document"])
def test_the_coordinate_layout_is_indexed_only_through_fuzzy(module):
    """The positions on the last axis of a coordinate array are stated once,
    in ``t2spline.fuzzy``; a subscript of two or more indices whose last
    index is a literal states them again."""
    path = ROOT / "src" / "t2spline" / f"{module}.py"
    found = [
        f"{path.name}:{node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Subscript)
        and isinstance(node.slice, ast.Tuple)
        and len(node.slice.elts) >= 2
        and _literal_positions(node.slice.elts[-1])
    ]
    assert found == []


def _package_sources():
    """Each module of the package: its path, its syntax tree, and a map of
    every node to the name of the innermost function holding it."""
    for path in sorted((ROOT / "src" / "t2spline").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {}
        for func in ast.walk(tree):  # outer functions first, so the innermost one wins
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update(dict.fromkeys(ast.walk(func), func.name))
        yield path, tree, owner


def test_the_collector_is_switched_only_by_the_document_pause():
    """``gc.disable`` and ``gc.enable`` are named in one place, the pause
    ``document._gc_paused``, which puts the collector back as it found it on
    every exit; a second switch elsewhere could leave the collector off."""
    found = []
    for path, tree, owner in _package_sources():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "gc":
                found.append((path.name, owner.get(node, "<module>"), ast.unparse(node)))
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "gc"
                and node.attr in ("disable", "enable")
            ):
                found.append((path.name, owner.get(node, "<module>"), node.attr))
    assert sorted(found) == [("document.py", "_gc_paused", "disable"), ("document.py", "_gc_paused", "enable")]


def test_only_the_process_entry_ends_the_process():
    """``os._exit`` skips the interpreter's teardown, unflushed buffers
    included, so only ``cli.main``, which flushes first, may call it; the
    library and ``cli.run`` return to their caller."""
    found = []
    for path, tree, owner in _package_sources():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "os" and any(a.name == "_exit" for a in node.names):
                found.append((path.name, owner.get(node, "<module>"), ast.unparse(node)))
            elif isinstance(node, ast.Attribute) and node.attr == "_exit":
                found.append((path.name, owner.get(node, "<module>"), ast.unparse(node)))
    assert found == [("cli.py", "main", "os._exit")]


def test_the_cli_lays_out_no_output():
    """Every table and document layout stays in ``t2spline.output``, and the
    figure's in ``t2spline._svg`` behind it: ``cli`` imports no numpy, and
    from ``output`` only ``Scene`` and the writers its command handlers
    call, not ``write_output`` or a format."""
    tree = ast.parse((ROOT / "src" / "t2spline" / "cli.py").read_text(encoding="utf-8"))
    found = []  # each import of numpy or of output, and each name imported from output
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if alias.name.split(".")[0] == "numpy"]
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            found += [
                f"{module}:{alias.name}"
                for alias in node.names
                if module.split(".")[0] == "numpy" or module == ".output" or (module, alias.name) == (".", "output")
            ]
    writers = ["render_svg", "write_csv", "write_pipeline_csv", "write_pipeline_json"]
    assert sorted(found) == [f".output:{name}" for name in ["Scene", *writers]]
    called = {
        node.func.id
        for func in tree.body
        if isinstance(func, ast.FunctionDef) and func.name.startswith("_cmd_")
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }
    assert set(writers) <= called


def test_the_cli_checks_no_series_name():
    """Which names a curve request may hold is stated by ``curves.evaluate``
    alone: ``cli`` reads the group list only for its help text, and
    ``_parse_series`` only splits ``--series``, with no test of its own."""
    tree = ast.parse((ROOT / "src" / "t2spline" / "cli.py").read_text(encoding="utf-8"))
    groups_read = [node for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr in ("GROUPS", "SERIES")]
    assert len(groups_read) == 1  # the --series help text
    parse_series = next(f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "_parse_series")
    assert not any(isinstance(node, (ast.Raise, ast.If)) for node in ast.walk(parse_series))


_FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_below_five(x):
    assert x < 5
"""


def test_a_failing_property_shows_its_example_under_the_warning_filter(tmp_path):
    """Hypothesis writes its report with libcst, which warns on import; as an
    error, that warning ended the run in an ``INTERNALERROR`` and hid the
    falsifying example."""
    (tmp_path / "test_property.py").write_text(_FAILING_PROPERTY, encoding="utf-8")
    argv = [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path)]
    run = subprocess.run(
        [*argv, "-p", "no:cacheprovider", "test_property.py"], cwd=tmp_path, capture_output=True, text=True, timeout=300
    )
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "Falsifying example: test_below_five(" in out and "INTERNALERROR" not in out, out
