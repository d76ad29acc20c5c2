"""Command-line interface.

Exit codes: 0 success, 1 validation failure or out of memory, 2 I/O or parse
failure.  A failed write of standard output is an I/O failure, the final
flush of :func:`main` included: a closed pipe or a full device exits 2 with
one ``error:`` line.  The code does not depend on standard error: with it
closed or failing, the ``error:`` line is dropped and the code stays.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import os
import sys

from . import curves
from .document import demo_document, load_document, save_document
from .errors import ParseError, T2SplineError
from .output import render_svg, write_csv, write_pipeline_csv, write_pipeline_json

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every command; each binds its handler as ``handler``,
    which raises on failure and returns nothing."""
    parser = argparse.ArgumentParser(
        prog="t2spline",
        description="Model normal type-2 fuzzy data points as rational B-spline curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("demo", help="emit the built-in demonstration model document")
    p.add_argument("--out", default="-", help="output file (default: stdout)")
    p.set_defaults(handler=_cmd_demo)

    p = sub.add_parser("validate", help="check a model document; exit 1 on violation")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("pipeline", help="per-point crisp solutions (JSON or CSV)")
    p.add_argument("file")
    p.add_argument("--alpha", type=float, default=None, help="override the document cut level")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default="-", help="output file (default: stdout)")
    p.set_defaults(handler=_cmd_pipeline)

    for name, blurb in (
        ("curve", "sample curves to CSV"),
        ("plot", "render curves to SVG"),
    ):
        p = sub.add_parser(name, help=blurb)
        p.add_argument("file")
        p.add_argument(
            "--series",
            default="all",
            help=f"comma-separated subset of {','.join(curves.GROUPS)} (default: all)",
        )
        p.add_argument("--alpha", type=float, default=None, help="override the document cut level")
        p.add_argument("--order", type=int, default=None, help="override the curve order")
        p.add_argument("--samples", type=int, default=None, help="override the sample count")
        p.add_argument("--out", default="-", help="output file (default: stdout)")
        p.set_defaults(handler=_cmd_curves)
    return parser


def _parse_series(spec: str) -> list[str]:
    """The names of a ``--series`` spec; an empty one names ``all``."""
    return [s.strip() for s in spec.split(",") if s.strip()] or ["all"]


def _load(args) -> tuple:
    """The document and its model, rebuilt by ``to_model`` only if
    ``--alpha`` or ``--order`` is given."""
    doc = load_document(args.file)
    return doc, doc.to_model(order=getattr(args, "order", None), alpha=args.alpha)


def _target(args):
    """Where ``--out`` sends the output: stdout for "-", else the path."""
    if args.out != "-":
        return args.out
    if sys.stdout is None:  # the process was started with no standard output
        raise OSError(errno.EBADF, "standard output is closed")
    return sys.stdout


def _cmd_demo(args) -> None:
    save_document(demo_document(), _target(args))


def _cmd_validate(args) -> None:
    load_document(args.file)
    print(f"{args.file}: ok")


def _cmd_pipeline(args) -> None:
    _, model = _load(args)
    if args.format == "json":
        write_pipeline_json(model.alpha, model.solved[-1], _target(args))
    else:
        write_pipeline_csv(model.solved[-1], _target(args))


def _cmd_curves(args) -> None:
    """``curve`` and ``plot``: evaluate the requested series in one pass,
    then write them as CSV or draw them, with the crisp controls, as SVG."""
    doc, model = _load(args)
    samples = doc.samples if args.samples is None else args.samples
    ts, series = curves.evaluate(model, _parse_series(args.series), samples)
    if args.command == "curve":
        write_csv(ts, series, _target(args))
    else:
        from .output import Scene  # loads the renderer, which only plot needs

        render_svg(Scene(series, curves.component_polygons(model)["crisp"]), _target(args))


def run(argv=None) -> int:
    """Parse arguments and execute; returns the process exit code.

    The argument parser is built on the first call and reused by every later
    call in the process: parsing keeps no state between calls, and help
    width and error output are read when they are written.
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports usage errors itself
        return int(exc.code or 0)
    try:
        args.handler(args)
    except ParseError as exc:
        _report(f"cannot parse {getattr(args, 'file', '?')}: {exc}")
        return 2
    except OSError as exc:
        _report(exc)
        return 2
    except T2SplineError as exc:
        _report(exc)
        return 1
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        _report(f"out of memory{detail}")
        return 1
    return 0


def _report(message) -> None:
    """Print one ``error:`` line to standard error.  A standard error that
    is closed or cannot be written leaves nowhere to report, and the line is
    dropped: the exit code still tells the failure."""
    if sys.stderr is not None:  # print(file=None) would write to standard output
        with contextlib.suppress(OSError):
            print(f"error: {message}", file=sys.stderr)


def main() -> None:
    """The process entry: :func:`run`, then flush standard output and
    standard error and end the process with ``os._exit``, skipping the
    interpreter's teardown of numpy and every module.  :func:`run` is the
    in-process entry.

    Every output file is closed before :func:`run` returns and the package
    registers no ``atexit`` handler, so the flushes are all that teardown
    would have done.  A failed flush of standard output exits 2 with one
    ``error:`` line; when :func:`run` returned 2 it has reported its failure
    already, and nothing more is printed.
    """
    code = run()
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError as exc:
        if code != 2:
            code = 2
            _report(exc)
    with contextlib.suppress(OSError):  # a failing standard error leaves nowhere to report
        if sys.stderr is not None:
            sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    main()
