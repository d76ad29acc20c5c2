import ast
import types
from pathlib import Path

import pytest

import t2spline

ROOT = Path(__file__).resolve().parents[1]


def test_all_lists_exactly_the_public_names():
    """``__all__`` names every public class, function and constant the
    package imports, and nothing else; submodules are not part of it."""
    public = {
        name
        for name, value in vars(t2spline).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(t2spline.__all__) == sorted(public)
    assert len(t2spline.__all__) == len(set(t2spline.__all__))


@pytest.mark.parametrize("path", ["tests/oracles.py", "perfbench/oracle.py"])
def test_the_oracles_do_not_import_the_package(path):
    """An oracle that called the code it checks would check nothing."""
    imported = set()
    for node in ast.walk(ast.parse((ROOT / path).read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert [name for name in imported if name.split(".")[0] in ("t2spline", "")] == []
