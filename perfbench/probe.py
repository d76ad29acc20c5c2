"""One ``t2spline`` operation in a fresh process, for set-up and traced runs.

Usage::

    python3 perfbench/probe.py [--trace SUMMARY.json] -- CLI-ARGS...

Times ``import t2spline.cli`` and one ``cli.run(CLI-ARGS)``, then prints one
JSON line with ``import_s``, ``op_s``, ``exit`` and ``maxrss_kb`` (the peak
resident set of this process).  With ``--trace``, the run is traced and the
layer metrics, hook call counts and spans of the operation are written to
SUMMARY.json.  ``t2spline`` is found on ``PYTHONPATH``.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def main(argv: list[str]) -> int:
    split = argv.index("--")
    opts, cli_args = argv[:split], argv[split + 1 :]
    summary_path = opts[opts.index("--trace") + 1] if "--trace" in opts else None

    t0 = time.perf_counter()
    import t2spline.cli as cli

    import_s = time.perf_counter() - t0
    tracer = None
    if summary_path:
        import layers
        from spans import Tracer

        tracer = Tracer(layers.HOOKS, layers.KEEP)
        tracer.install()
    t0 = time.perf_counter()
    code = cli.run(cli_args)
    op_s = time.perf_counter() - t0
    if tracer:
        tracer.uninstall()
        spans = tracer.take()
        out = cli_args[cli_args.index("--out") + 1]
        with open(out, encoding="utf-8") as f:
            metrics, consistent, calls = layers.op_metrics(spans, f.read())
        summary = {
            "metrics": metrics,
            "consistent": consistent,
            "calls": dict(calls),
            "spans": [rec[:5] for rec in spans],
        }
        with open(summary_path, "w", encoding="utf-8") as f:
            json.dump(summary, f)
    print(json.dumps({"import_s": import_s, "op_s": op_s, "exit": code, "maxrss_kb": peak_rss_kb()}))
    return 0


def peak_rss_kb() -> int:
    """Peak resident set of this process image.

    ``ru_maxrss`` is not used: Linux carries it over from the parent across
    fork and exec, so it reads at least the benchmark's own size.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as f:
            return next(int(line.split()[1]) for line in f if line.startswith("VmHWM:"))
    except (OSError, StopIteration):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
