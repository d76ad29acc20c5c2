"""Benchmark of the ``t2spline`` CLI on seeded workloads.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload dense-band --seed 1 --seconds 20 --trace 0

Each workload is a closed loop: one client sends the next operation after
the previous one completes.  ``paper-cli`` starts a new ``t2spline``
process per operation; the other workloads call ``t2spline.cli.run(argv)``
in this process with ``--out`` to a scratch file.  The program under test is
the checkout's ``src/`` tree; without it the benchmark exits with code 2.

Every output is checked outside the timed region against ``oracle`` (which
does not import ``t2spline``) and against the first output of the same
input by sha256.  ``--trace 0`` reports the end-to-end metrics listed in
``BENCHMARK.json``; ``--trace 1`` alternates untraced and traced operations
and reports the per-layer metrics.  The last line of standard output is the
result object; the line before it carries the environment, the input
properties, sample counts and failures.  Scratch files go to
``.perfbench_work/`` in the checkout; the spans of the first traced
operations are left there as ``spans-<workload>.jsonl``.
"""

from __future__ import annotations

import os

# One client and one process: BLAS and OpenMP pools are pinned to one thread.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

import gen  # noqa: E402
import layers  # noqa: E402
import oracle  # noqa: E402
import selftest  # noqa: E402
from calibrate import REFERENCE_S, calibration  # noqa: E402
from spans import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
PROBE = Path(__file__).resolve().parent / "probe.py"
ENTRY = "import sys; from t2spline.cli import main; sys.exit(main())"
SETUP_REPS = 3
SPAN_OPS_KEPT = 2
OP_TIMEOUT_S = 120
KIND = {"curve": "csv", "plot": "svg", "pipeline": "json"}


@dataclass(frozen=True)
class Workload:
    points: int
    order: int
    samples: int
    pool: int  # documents per seed; operations cycle through them
    commands: tuple  # (command, series) pairs, alternated
    in_process: bool


# Sizes keep the cost drivers of the paper's use (order, samples per span,
# curves per request, start-up) at about 0.3-1 s per operation.
WORKLOADS = {
    "paper-cli": Workload(6, 3, 101, 8, (("curve", "all"), ("plot", "all")), False),
    "dense-band": Workload(12, 4, 401, 3, (("curve", "all"),), True),
    "wide-model": Workload(400, 3, 101, 3, (("curve", "crisp,defuzzified"),), True),
    "large-doc": Workload(5000, 3, 101, 2, (("pipeline", ""),), True),
}


def cli_args(command: str, series: str, doc: Path, out: Path) -> list[str]:
    if command == "pipeline":
        return ["pipeline", str(doc), "--format", "json", "--out", str(out)]
    return [command, str(doc), "--series", series, "--out", str(out)]


@dataclass
class Op:
    seconds: float  # wall time
    traced: bool
    out_points: int
    in_points: int
    layer: dict | None = None  # layer metrics of a traced operation
    import_s: float | None = None  # import time inside a traced fresh process
    scaled: float = 0.0  # wall time in reference-speed seconds

    def rescale(self, before: float, after: float) -> None:
        """Convert times to reference speed, given the calibration times
        measured just before and after the operation."""
        factor = REFERENCE_S / ((before + after) / 2)
        self.scaled = self.seconds * factor
        if self.import_s is not None:
            self.import_s *= factor
        for name in self.layer or ():
            if name.endswith("_ms") or name == "bspline.ns_per_point":
                self.layer[name] *= factor


@dataclass
class Bench:
    wl: Workload
    seed: int
    tmp: Path
    docs: list = field(default_factory=list)
    seen: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    perturbation_checked: set = field(default_factory=set)
    attempted: int = 0
    failed: int = 0

    def doc_path(self, i: int) -> Path:
        return self.tmp / f"doc{i}.json"

    def schedule(self, i: int) -> tuple[int, str, str]:
        """Input of operation ``i``: each document gets two rounds of the
        workload's commands, so that a traced run (which traces every other
        round) traces every document and command."""
        rounds, k = divmod(i, len(self.wl.commands))
        command, series = self.wl.commands[k]
        return (rounds // 2) % self.wl.pool, command, series

    def traced_round(self, i: int) -> bool:
        return (i // len(self.wl.commands)) % 2 == 1

    def op_args(self, i: int) -> tuple[tuple[int, str, str], Path, list[str]]:
        key = self.schedule(i)
        out = self.tmp / f"out.{KIND[key[1]]}"
        out.unlink(missing_ok=True)
        return key, out, cli_args(key[1], key[2], self.doc_path(key[0]), out)

    def generate(self) -> None:
        wl = self.wl
        self.docs = gen.make_pool(self.seed, wl.pool, wl.points, wl.order, wl.samples)
        for i, doc in enumerate(self.docs):
            gen.validate(doc)
            self.doc_path(i).write_text(gen.to_json(doc), encoding="utf-8")

    def verify(self, key, out: Path, error: str | None) -> tuple[int, str]:
        """Check one operation's output; returns (points verified, output text)."""
        self.attempted += 1
        text = ""
        if error is None:
            try:
                text = out.read_text(encoding="utf-8")
            except OSError as exc:
                error = f"no output: {exc}"
        if error is None:
            digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
            if key not in self.seen:
                kind = KIND[key[1]]
                found, points = oracle.check(kind, text, self.docs[key[0]], key[2])
                self.seen[key] = (digest, found, points)
                if not found and kind not in self.perturbation_checked:
                    self.perturbation_checked.add(kind)
                    if not oracle.check(kind, selftest.perturb(kind, text), self.docs[key[0]], key[2])[0]:
                        self.problems.append(f"oracle accepted a perturbed {kind} output")
            first_digest, found, points = self.seen[key]
            if digest != first_digest:
                error = "output not byte-identical to the first output of the same input"
            elif found:
                error = "; ".join(found)
        if error is None:
            return points, text
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(f"{key}: {error}")
        return 0, text


def run_subprocess(argv: list[str], env: dict) -> tuple[subprocess.CompletedProcess | None, str | None]:
    try:
        proc = subprocess.run(
            argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=OP_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return None, f"timed out after {OP_TIMEOUT_S} s"
    if proc.returncode != 0:
        return proc, f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
    return proc, None


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "cpu": cpu,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "t2spline" / "cli.py").is_file():
        print(f"error: no t2spline source tree at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        return measure(args, spec, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def measure(args, spec: dict, tmp: Path) -> int:
    # Calibration only tracks the speed of the CPU it runs on, and the CPUs of
    # a shared host drift apart: this process and its children share one CPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    bench = Bench(WORKLOADS[args.workload], args.seed, tmp)
    env = dict(os.environ, PYTHONPATH=str(SRC))

    # Set-up, repeated: generate and validate the documents, then a fresh
    # process imports t2spline and runs one warm-up operation.
    setup_s, import_s, maxrss_kb = [], [], []
    cal = calibration()
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        bench.generate()
        key, out, cli = bench.op_args(0)
        proc, error = run_subprocess([sys.executable, str(PROBE), "--", *cli], env)
        seconds = time.perf_counter() - t0
        cal, before = calibration(), cal
        factor = REFERENCE_S / ((before + cal) / 2)
        setup_s.append(seconds * factor)
        if error is None:
            probe = json.loads(proc.stdout.splitlines()[-1])
            import_s.append(probe["import_s"] * factor)
            maxrss_kb.append(probe["maxrss_kb"])
        bench.verify(key, out, error)

    sys.path.insert(0, str(SRC))
    import t2spline.cli as cli_module

    if Path(cli_module.__file__).resolve().parent != (SRC / "t2spline").resolve():
        print(f"error: imported t2spline from {cli_module.__file__}, not {SRC}", file=sys.stderr)
        return 2
    tracer = Tracer(layers.HOOKS, layers.KEEP)
    ops: list[Op] = []
    kept_spans = []
    calls_total = dict.fromkeys(layers.hook_names(), 0)

    def one_op(i: int, traced: bool) -> Op:
        key, out, cli = bench.op_args(i)
        error = summary = op_import_s = None
        spans = []
        if bench.wl.in_process:
            if traced:
                tracer.install()
            t0 = time.perf_counter()
            try:
                code = cli_module.run(cli)
                if code != 0:
                    error = f"exit {code}"
            except Exception as exc:  # an operation that raises is a failed operation
                error = f"raised {exc!r}"
            finally:
                seconds = time.perf_counter() - t0
                if traced:
                    tracer.uninstall()
                    spans = tracer.take()
        else:
            summary_path = tmp / "summary.json"
            cmd = [str(PROBE), "--trace", str(summary_path), "--"] if traced else ["-c", ENTRY]
            t0 = time.perf_counter()
            proc, error = run_subprocess([sys.executable, *cmd, *cli], env)
            seconds = time.perf_counter() - t0
            if traced and error is None:
                summary = json.loads(summary_path.read_text(encoding="utf-8"))
                op_import_s = json.loads(proc.stdout.splitlines()[-1])["import_s"]
        points, text = bench.verify(key, out, error)
        metrics = None
        if traced and error is None:
            if summary is None:
                metrics, consistent, calls = layers.op_metrics(spans, text)
                raw = [rec[:5] for rec in spans]
            else:
                metrics, consistent, calls = summary["metrics"], summary["consistent"], summary["calls"]
                raw = summary["spans"]
            if not consistent:
                bench.problems.append(f"op {i}: layer self times do not sum to one root span")
            for name in calls_total:
                calls_total[name] += calls.get(name, 0)
            if len(kept_spans) < SPAN_OPS_KEPT:
                kept_spans.append(raw)
        return Op(seconds, traced, points, len(bench.docs[key[0]]["points"]), metrics, op_import_s)

    one_op(0, False)  # warm-up in this process (or one more fresh process)
    deadline = time.perf_counter() + args.seconds
    i = 0
    cal = calibration()
    while True:
        op = one_op(i, bool(args.trace) and bench.traced_round(i))
        cal, before = calibration(), cal
        op.rescale(before, cal)
        ops.append(op)
        i += 1
        if time.perf_counter() >= deadline:
            break

    plain = [op for op in ops if not op.traced]
    traced = [op for op in ops if op.traced]
    plain_s = [op.scaled for op in plain]
    traced_s = [op.scaled for op in traced]
    values = {
        "op_ms_p50": median(plain_s) * 1e3,
        "curve_points_per_s": sum(op.out_points for op in plain) / sum(plain_s),
        "fuzzy_points_per_s": sum(op.in_points for op in plain) / sum(plain_s),
        "peak_rss_mb": median(maxrss_kb) / 1024,
        "setup_s": median(setup_s),
    }
    if args.trace:
        traced_metrics = [op.layer for op in traced if op.layer]
        for name in traced_metrics[0] if traced_metrics else ():
            values[name] = median([m[name] for m in traced_metrics])
        import_s += [op.import_s for op in traced if op.import_s is not None]
        values["cli.import_ms"] = median(import_s) * 1e3
        values["trace.overhead_frac"] = median(traced_s) / median(plain_s) - 1.0
        write_spans(args, kept_spans)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing_metrics = [m["name"] for m in wanted if m["name"] not in values]
    if missing_metrics:
        print(f"error: metrics not produced: {missing_metrics}", file=sys.stderr)
        return 1

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "environment": environment(),
        "inputs": gen.properties(bench.docs),
        "op_samples": len(plain),
        "op_wall_ms_p50": median([op.seconds for op in plain]) * 1e3,
        "op_ms_p90": statistics.quantiles(plain_s, n=10)[-1] * 1e3 if len(plain) >= 100 else None,
        "setup_samples": len(setup_s),
        "failed_frac": bench.failed / bench.attempted,
        "problems": bench.problems,
    }
    if args.trace:
        # Where a traced operation's time goes; a fresh process also imports.
        parts = {f"{layer}.self_ms": values[f"{layer}.self_ms"] for layer in layers.LAYERS}
        if not bench.wl.in_process:
            parts["cli.import_ms"] = values["cli.import_ms"]
        op_ms = median(traced_s) * 1e3
        info["traced_op_samples"] = len(traced)
        info["traced_op_ms_p50"] = op_ms
        info["share_of_traced_op"] = {name: ms / op_ms for name, ms in parts.items()}
        info["not_observed"] = sorted(name for name, n in calls_total.items() if n == 0)
        info["provenance"] = layers.PROVENANCE
    print(json.dumps({"info": info}))
    correct = bench.failed == 0 and not bench.problems
    result = {
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


def write_spans(args, kept_spans) -> None:
    """One JSON array per span after a header line naming the fields."""
    path = WORK / f"spans-{args.workload}.jsonl"
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps({"seed": args.seed, "fields": ["op", "span", "parent", "layer", "name", "start_ns", "end_ns"]}))
        f.write("\n")
        for op_id, spans in enumerate(kept_spans):
            for span_id, (layer, name, start, end, parent) in enumerate(spans):
                f.write(json.dumps([op_id, span_id, parent, layer, name, start, end]) + "\n")


if __name__ == "__main__":
    sys.exit(main())
