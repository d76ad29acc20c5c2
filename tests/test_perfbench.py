"""The benchmark's own self-test runs against this source tree, so a change
that breaks the hooks or outputs the benchmark relies on fails here."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    pytest.importorskip("scipy")
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr


def _benchmark_hooks() -> list[tuple[str, str]]:
    """``(module, qualname)`` of each hook ``perfbench/layers.py`` declares,
    read from its ``_PUBLIC`` table without importing the benchmark."""
    tree = ast.parse((ROOT / "perfbench" / "layers.py").read_text(encoding="utf-8"))
    public = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["_PUBLIC"]
    )
    return [(f"t2spline.{layer}", name) for layer, names in public.items() for name in names]


def test_benchmark_hooks_name_existing_code():
    """Each hook resolves as the tracer resolves it: the last name is in
    the ``__dict__`` of its owner, so a renamed or moved function is caught
    here even where the self-test cannot run."""
    hooks = _benchmark_hooks()
    missing = []
    for module, qualname in hooks:
        owner = importlib.import_module(module)
        *path, attr = qualname.split(".")
        try:
            for part in path:
                owner = getattr(owner, part)
            owner.__dict__[attr]
        except (AttributeError, KeyError):
            missing.append(f"{module}:{qualname}")
    assert len(hooks) > 30 and missing == []
