import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

#: Files each demo writes into its working directory.
WRITES = {
    "04_curve_band.py": ("t2spline_band.csv", "t2spline_band.svg"),
    "05_solution_curve.py": ("t2spline_solution.svg",),
}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    # A 0/0 or an overflow fails a demo, as pyproject.toml makes it fail a test.
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    for name in WRITES.get(demo.name, ()):
        assert (tmp_path / name).is_file(), name
