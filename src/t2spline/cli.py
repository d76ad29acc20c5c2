"""Command-line interface.

Exit codes: 0 success, 1 validation failure or out of memory, 2 I/O or parse
failure.
"""

from __future__ import annotations

import argparse
import os
import stat
import sys

from . import curves
from .document import demo_document, document_to_json, load_document
from .errors import ParseError, T2SplineError
from .output import Scene, _scene_series, render_svg, write_csv
from .pipeline import solve

SERIES_CHOICES = (*curves.GROUPS, "all")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="t2spline",
        description="Model normal type-2 fuzzy data points as rational B-spline curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("demo", help="emit the built-in demonstration model document")
    p.add_argument("--out", default="-", help="output file (default: stdout)")

    p = sub.add_parser("validate", help="check a model document; exit 1 on violation")
    p.add_argument("file")

    p = sub.add_parser("pipeline", help="per-point crisp solutions (JSON or CSV)")
    p.add_argument("file")
    p.add_argument("--alpha", type=float, default=None, help="override the document cut level")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default="-", help="output file (default: stdout)")

    for name, blurb in (
        ("curve", "sample curves to CSV"),
        ("plot", "render curves to SVG"),
    ):
        p = sub.add_parser(name, help=blurb)
        p.add_argument("file")
        p.add_argument(
            "--series",
            default="all",
            help="comma-separated subset of band,reduced,defuzzified,crisp (default: all)",
        )
        p.add_argument("--alpha", type=float, default=None, help="override the document cut level")
        p.add_argument("--order", type=int, default=None, help="override the curve order")
        p.add_argument("--samples", type=int, default=None, help="override the sample count")
        p.add_argument("--out", default="-", help="output file (default: stdout)")
    return parser


def _parse_series(spec: str) -> set[str]:
    names = {s.strip() for s in spec.split(",") if s.strip()}
    bad = names - set(SERIES_CHOICES)
    if bad:
        raise T2SplineError(f"unknown series {sorted(bad)}; choose from {', '.join(SERIES_CHOICES)}")
    if not names or "all" in names:
        return set(curves.GROUPS)
    return names


def _load(args) -> tuple:
    """The document and its model; the model parsing built is reused unless
    ``--alpha`` or ``--order`` changes it."""
    doc = load_document(args.file)
    if getattr(args, "alpha", None) is not None:
        doc.alpha = args.alpha
    if getattr(args, "order", None) is not None:
        doc.order = args.order
    if getattr(args, "samples", None) is not None:
        doc.samples = args.samples
    return doc, doc.to_model()


def _write(path: str, render) -> None:
    """Call ``render(stream)`` on stdout ("-") or on the file ``path``.

    A new file, or a regular file of this user with one link, is rendered
    into a file beside it that replaces it only once ``render`` has
    returned, so a failed render leaves an existing file untouched.  Any
    other target (a symlink, a device, a FIFO, a hard-linked or foreign
    file) is written in place, so the path stays what it was.
    """
    if path == "-":
        render(sys.stdout)
        return
    staged = _stage_beside(path)
    if staged is None:
        with open(path, "w", encoding="utf-8", newline="") as f:
            render(f)
        return
    fd, tmp = staged
    try:
        with open(fd, "w", encoding="utf-8", newline="") as f:
            render(f)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _stage_beside(path: str) -> tuple[int, str] | None:
    """Open a new empty file beside ``path`` with the mode of the file it
    will replace; None when ``path`` is to be written in place."""
    try:
        old = os.lstat(path)
    except FileNotFoundError:
        old = None
    if old is not None and not (
        stat.S_ISREG(old.st_mode) and old.st_nlink == 1 and (old.st_uid, old.st_gid) == (os.geteuid(), os.getegid())
    ):
        return None
    tmp = f"{path}.{os.getpid()}-{os.urandom(4).hex()}.tmp"
    try:
        # Mode 0o666 under the umask, as open(path, "w") would create it.
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError:  # e.g. a read-only directory holding a writable file
        return None
    if old is not None:
        try:
            os.fchmod(fd, stat.S_IMODE(old.st_mode))
        except BaseException:
            os.close(fd)
            os.unlink(tmp)
            raise
    return fd, tmp


def _scene(args) -> Scene:
    """Load the document and evaluate the requested series in one pass."""
    doc, model = _load(args)
    return Scene(
        controls=model.coords[:, :, 3],
        **curves.evaluate(model, _parse_series(args.series), doc.samples),
    )


def _cmd_demo(args) -> int:
    text = document_to_json(demo_document())
    _write(args.out, lambda f: f.write(text))
    return 0


def _cmd_validate(args) -> int:
    load_document(args.file)
    print(f"{args.file}: ok")
    return 0


# One solution point in the layout of json.dumps(..., indent=2); %r of a
# float is the repr json.dumps writes for a finite float.
_JSON_POINT = '    {\n      "x": %r,\n      "y": %r\n    }'


def _cmd_pipeline(args) -> int:
    _, model = _load(args)
    solution = solve(model.coords, model.alpha)[-1]
    n = len(solution)
    if args.format == "json":
        # json.dumps({"alpha": ..., "points": [{"x": ..., "y": ...}, ...]}, indent=2) + "\n"
        points = ",\n".join([_JSON_POINT] * n) % tuple(solution.ravel().tolist())
        text = f'{{\n  "alpha": {model.alpha!r},\n  "points": [\n{points}\n  ]\n}}\n'
    else:
        rows = [None] * (3 * n)
        rows[0::3] = range(n)
        rows[1::3], rows[2::3] = solution.T.tolist()
        text = "index,x,y\n" + ("%d,%.16e,%.16e\n" * n) % tuple(rows)
    _write(args.out, lambda f: f.write(text))
    return 0


def _cmd_curve(args) -> int:
    scene = _scene(args)
    _write(args.out, lambda f: write_csv(_scene_series(scene), f))
    return 0


def _cmd_plot(args) -> int:
    scene = _scene(args)
    _write(args.out, lambda f: render_svg(scene, f))
    return 0


_HANDLERS = {
    "demo": _cmd_demo,
    "validate": _cmd_validate,
    "pipeline": _cmd_pipeline,
    "curve": _cmd_curve,
    "plot": _cmd_plot,
}


def run(argv=None) -> int:
    """Parse arguments and execute; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports usage errors itself
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except ParseError as exc:
        print(f"error: cannot parse {getattr(args, 'file', '?')}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except T2SplineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
