"""Self-test of the benchmark's oracle and tracer.

Usage, from the root of a source checkout::

    python3 perfbench/selftest.py

Checks that

* the oracle accepts a correct CSV, SVG and pipeline JSON output and rejects
  a copy with one value moved by 1e-6 (0.01 px for SVG, whose coordinates
  are printed to 0.001 px);
* a hook whose target does not exist is reported as missing, not raised;
* every hooked module-level name is replaced in each module that bound it
  and restored afterwards;
* the layer self times of a traced operation sum exactly to its root span.

Prints one line per check and exits 1 if any fails.
"""

from __future__ import annotations

import json
import re
import shutil
import sys
import tempfile
from pathlib import Path

import gen
import layers
import oracle
from spans import Tracer, self_times

ROOT = Path(__file__).resolve().parents[1]


def perturb(kind: str, text: str) -> str:
    """Copy of a correct output with one value moved just past tolerance."""
    if kind == "csv":
        lines = text.split("\n")
        row = lines[len(lines) // 2].split(",")
        row[-1] = f"{float(row[-1]) + 1e-6:.16e}"
        lines[len(lines) // 2] = ",".join(row)
        return "\n".join(lines)
    if kind == "json":
        payload = json.loads(text)
        payload["points"][len(payload["points"]) // 2]["x"] += 1e-6
        return json.dumps(payload, indent=2) + "\n"

    def move(match):
        pts = match.group(2).split()
        x, y = pts[len(pts) // 2].split(",")
        pts[len(pts) // 2] = f"{float(x) + 0.01:.3f},{y}"
        return f'{match.group(1)}{" ".join(pts)}"'

    return re.sub(r'(<polyline class="series-[^"]*"[^>]*? points=")([^"]*)"', move, text, count=1)


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import t2spline.bspline
    import t2spline.cli
    import t2spline.curves

    failures = 0

    def report(name: str, ok: bool, detail: str = "") -> None:
        nonlocal failures
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'} {name}{': ' + detail if detail else ''}")

    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=work))
    try:
        doc = gen.make_document(11, 7, 3, 41)
        doc_path = tmp / "doc.json"
        doc_path.write_text(gen.to_json(doc), encoding="utf-8")
        out = tmp / "out"
        cases = (
            ("csv", ["curve", str(doc_path), "--series", "all"], "all"),
            ("svg", ["plot", str(doc_path), "--series", "band,defuzzified"], "band,defuzzified"),
            ("json", ["pipeline", str(doc_path), "--format", "json"], ""),
        )
        for kind, argv, spec in cases:
            code = t2spline.cli.run([*argv, "--out", str(out)])
            text = out.read_text(encoding="utf-8")
            found, _ = oracle.check(kind, text, doc, spec)
            report(f"oracle accepts the program's {kind}", code == 0 and not found, "; ".join(found))
            bad = perturb(kind, text)
            found, _ = oracle.check(kind, bad, doc, spec)
            report(f"oracle rejects a perturbed {kind}", bad != text and bool(found))

        ghost = (
            ("bspline", "t2spline.bspline", "no_such_function"),
            ("curves", "t2spline.curves", "NoSuchClass.__init__"),
            ("gone", "t2spline.gone", "anything"),
        )
        tracer = Tracer(layers.HOOKS + ghost, layers.KEEP)
        original = t2spline.bspline.sample_curve
        tracer.install()
        try:
            patched = t2spline.curves.sample_curve is t2spline.bspline.sample_curve is not original
            code = t2spline.cli.run(["curve", str(doc_path), "--series", "all", "--out", str(out)])
        finally:
            tracer.uninstall()
        restored = t2spline.curves.sample_curve is original and t2spline.bspline.sample_curve is original
        want_missing = [f"{module}:{name}" for _, module, name in ghost]
        report("missing hooks are reported, not raised", code == 0 and tracer.missing == want_missing, str(tracer.missing))
        report("sample_curve is wrapped in bspline and curves, then restored", patched and restored)

        spans = tracer.take()
        per_layer, root = self_times(spans)
        _, consistent, _ = layers.op_metrics(spans, out.read_text(encoding="utf-8"))
        report(
            "layer self times sum to the root span",
            consistent and sum(per_layer.values()) == root > 0,
            f"{sum(per_layer.values())} ns vs {root} ns",
        )
        report("root span is cli.run", [r[1] for r in spans if r[4] < 0] == ["cli.run"])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
