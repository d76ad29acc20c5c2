"""The benchmark's own self-test runs against this source tree, so a change
that breaks the hooks or outputs the benchmark relies on fails here."""

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
