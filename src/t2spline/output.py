"""Sampled-curve output: CSV tables, the pipeline's JSON and static SVG figures.

Every writer is deterministic: identical inputs produce byte-identical
files (fixed column order, fixed float formatting, no timestamps).  The
curve table is laid out by :func:`write_csv` alone and the pipeline's
solution points by the ``write_pipeline_*`` writers alone.  CSV rows,
JSON points and SVG points are cut from arrays a block at a time by
``_fill`` alone, each row filled into a ``%`` template.  Two kernels print
whole blocks with numpy array arithmetic instead, to the template's text:
``_format_e16`` the cells of :data:`FLOAT_FORMAT` (``%.16e``) and
``_format_repr`` the cells of ``%r``.  A block holding a cell outside a
kernel's domain is filled into the template: ``_format_e16`` takes ±0 and
``1e-6 < |x| < 1e17``, ``_format_repr`` ±0 and ``1e-4 <= |x| < 1e16``
without the powers of two.  Every output file of the package is written by
:func:`write_output`.  Curves take one path to bytes: :func:`write_csv` and
a :class:`Scene` take the labelled arrays :func:`~t2spline.curves.evaluate`
returns, ``ts`` and a ``{label: (len(ts), 2) points}`` mapping.  Each
writer takes a path or a stream, and every CLI command writes through one.
"""

from __future__ import annotations

import csv
import math
import os
import stat
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .bspline import param_array, point_array
from .errors import SampleMismatch, T2SplineError
from .pipeline import check_alpha

#: Cells ``_fill`` formats at once: a bounded block of rows keeps the text
#: of a long table from being held whole, and bounds the arrays the kernels
#: work in, about 100 bytes a cell.
BLOCK_CELLS = 4096

#: 17 significant digits: locale-independent, round-trips doubles exactly.
FLOAT_FORMAT = "%.16e"

#: One solution point of :func:`write_pipeline_json`, led by the separator
#: from the point before it.
_JSON_POINT = ',\n    {\n      "x": %r,\n      "y": %r\n    }'


def _split(a):
    """Veltkamp's split of the doubles ``a`` into ``hi + lo``, each of at
    most 26 significant bits, so that a product of two halves is exact."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _least_double_from(k):
    """The least double not below ``10**k``."""
    b = float(f"1e{k}")  # the nearest double
    num, den = b.as_integer_ratio()
    return math.nextafter(b, math.inf) if num * 10 ** max(-k, 0) < den * 10 ** max(k, 0) else b


#: The decimal exponents the kernels print: ``10**(16 - E)`` is an exact
#: double for each, and ``10**22`` is the largest power of ten that is.
_EXPONENTS = range(-6, 17)
#: The least double not below each power of ten from ``10**-6`` to
#: ``10**17``: ``|x| >= _DECADES[i]`` exactly when ``|x| >= 10**(i - 6)``.
_DECADES = np.array([_least_double_from(k) for k in range(_EXPONENTS.start, _EXPONENTS.stop + 1)])
_SCALE = np.array([float(10 ** (16 - e)) for e in _EXPONENTS])
_SCALE_HI, _SCALE_LO = _split(_SCALE)


def _within(a, least, limit):
    """Whether every absolute value of ``a`` is 0 or lies in ``[10**least,
    10**limit)``, for ``-6 <= least < limit <= 17``."""
    start = _EXPONENTS.start
    return np.all((a == 0) | ((a >= _DECADES[least - start]) & (a < _DECADES[limit - start])))


def _scaled(a):
    """``hi``, ``lo`` and ``E`` of the absolute values ``a``, each 0 or with
    ``10**-6 <= a < 10**17``: ``10**E <= a < 10**(E + 1)`` (``E`` is 0 for
    0), and ``S = a * 10**(16 - E)`` is ``hi + lo`` exactly.

    ``10**(16 - E)`` is an exact double, so Dekker's product of ``a`` and it
    is exact: ``hi`` is the rounded product and ``lo`` its error, with
    ``|lo| <= ulp(hi) / 2 <= 8``.  ``hi`` is at least ``10**16 > 2**53``,
    so it is an even integer, and ``floor(S)`` is ``hi + floor(lo)``.
    """
    # E - E_min; a zero takes -1, the last scale, and its product is 0 at any.
    j = np.searchsorted(_DECADES, a, side="right") - 1
    p, p_hi, p_lo = _SCALE[j], _SCALE_HI[j], _SCALE_LO[j]
    a_hi, a_lo = _split(a)
    hi = a * p
    lo = ((a_hi * p_hi - hi) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo
    return hi, lo, np.where(a == 0, 0, j + _EXPONENTS.start)


def _ascii_digits(d):
    """The 17 decimal digits of each integer ``0 <= d < 10**17`` of the
    int64 array ``d``, in ASCII, one row of a ``(17, len(d))`` array a place."""
    text = np.empty((17, len(d)), np.uint8)
    digits = np.empty((2, len(d)), np.int32)  # the first 9 and the last 8
    digits[0], digits[1] = np.divmod(d, 10**8)
    for i in range(8):
        rest = digits // 10
        text[8 - i : 17 - i : 8] = digits - rest * 10 + ord("0")
        digits = rest
    text[0] = digits[0] + ord("0")
    return text


def write_table(f, header, columns, formats) -> None:
    """Write a CSV table to the text stream ``f``: the ``header`` row, then
    one row per row of the ``(rows, k)`` arrays of ``columns`` placed side by
    side, each cell printed with its ``%`` format from ``formats``."""
    csv.writer(f, lineterminator="\n").writerow(header)  # quotes names as needed
    f.writelines(_fill(",".join(formats) + "\n", *columns))


def write_pipeline_json(alpha, points, path_or_file) -> None:
    """Write the solution ``points``, ``(n, 2)`` (:func:`point_array`), found
    at the cut level ``alpha`` (:func:`~t2spline.pipeline.check_alpha`) as
    ``json.dumps({"alpha": alpha, "points": [{"x": x, "y": y}, ...]},
    indent=2) + "\\n"`` writes them."""
    alpha, points = check_alpha(alpha), point_array(points, "points")

    def render(f):
        blocks = _fill(_JSON_POINT, points)
        f.write(f'{{\n  "alpha": {alpha!r},\n  "points": [')
        f.write(next(blocks, ",")[1:])  # no separator before the first point
        f.writelines(blocks)
        f.write("\n  ]\n}\n" if len(points) else "]\n}\n")

    write_output(path_or_file, render)


def write_pipeline_csv(points, path_or_file) -> None:
    """Write the solution ``points``, ``(n, 2)`` (:func:`point_array`), as
    CSV: the header ``index,x,y``, then each point's index and coordinates."""
    points = point_array(points, "points")
    columns = [np.arange(len(points))[:, None], points]
    formats = ["%d", FLOAT_FORMAT, FLOAT_FORMAT]
    write_output(path_or_file, lambda f: write_table(f, ["index", "x", "y"], columns, formats))


def _fill(row_format, *columns):
    """Yield the text of the rows of the ``(rows, k)`` arrays ``columns``
    placed side by side, each row filled into the ``%``-template
    ``row_format``, a block of at most :data:`BLOCK_CELLS` cells at a time.
    A template whose cells are all :data:`FLOAT_FORMAT` or all ``%r`` is
    printed by its kernel wherever a block lies in the kernel's domain."""
    width = sum(c.shape[1] for c in columns)
    step = max(1, BLOCK_CELLS // width)
    kernel, pieces = _kernel(row_format, width)
    for start in range(0, len(columns[0]), step):
        block = np.hstack([c[start : start + step] for c in columns])
        cells = kernel(block) if kernel else None
        yield (row_format * len(block)) % tuple(block.ravel().tolist()) if cells is None else _lay_out(pieces, cells)


def _kernel(row_format, width):
    """The kernel that prints each of the ``width`` cells of the ASCII
    ``%``-template ``row_format``, and the literal pieces of the template
    around them: the bytes before the first cell and a ``(width, size)``
    uint8 array of those after each, NUL-padded; Nones if no kernel does."""
    for spec, kernel in _KERNELS:
        if row_format.isascii() and row_format.count(spec) == row_format.count("%") == width:
            first, *after = (piece.encode("ascii") for piece in row_format.split(spec))
            size = max(map(len, after))
            after = np.frombuffer(b"".join(piece.ljust(size, b"\0") for piece in after), np.uint8)
            return kernel, (np.frombuffer(first, np.uint8), after.reshape(width, size))
    return None, None


def _lay_out(pieces, cells):
    """The text of the rows of a template whose cells have the NUL-padded
    texts ``cells``, the columns of a ``(bytes, rows * width)`` uint8 array,
    and whose literal pieces are ``pieces``, as ``_kernel`` gives them."""
    first, after = pieces
    width, size = after.shape
    text = np.empty((cells.shape[1] // width, len(first) + width * (len(cells) + size)), np.uint8)
    text[:, : len(first)] = first
    rest = text[:, len(first) :].reshape(len(text), width, -1)  # each cell and the piece after it
    rest[:, :, : len(cells)] = cells.T.reshape(len(text), width, len(cells))
    rest[:, :, len(cells) :] = after
    data = text.tobytes()
    # A NUL costs bytes.replace about what 16 bytes cost bytes.translate.
    few = 16 * (text.size - np.count_nonzero(text)) < text.size
    return (data.replace(b"\0", b"") if few else data.translate(None, b"\0")).decode("ascii")


def _format_e16(block):
    """The text ``"%.16e" % x`` of each cell ``x`` of ``block``, in order, as
    the NUL-padded columns of a ``(23, block.size)`` uint8 array; None
    unless ``block`` holds doubles and every ``x`` is ±0 or has
    ``1e-6 < |x| < 1e17``.

    ``%.16e`` prints ``D * 10**(E - 16)``: ``E`` is the decimal exponent,
    ``10**E <= |x| < 10**(E + 1)``, and ``D`` is ``S = |x| * 10**(16 - E)``
    rounded to the nearest integer, ties to even.  ``S`` is ``hi + lo``
    exactly (``_scaled``) with ``hi`` an even integer, so ``D`` is ``hi``
    plus ``lo`` rounded half to even.  The largest double below each
    ``10**(E + 1)`` gives an ``S`` more than 8 below ``10**17``, so ``D``
    never rounds up to ``10**17``.  The double ``1e-6`` lies below
    ``10**-6`` and prints with ``E == -7``.
    """
    x = np.ravel(block)
    a = np.abs(x)
    if x.dtype != np.float64 or not _within(a, -6, 17):
        return None
    hi, lo, e = _scaled(a)
    digits = _ascii_digits(hi.astype(np.int64) + np.rint(lo).astype(np.int64))
    # One column of bytes per cell: sign (NUL for none), a digit, ".", 16
    # digits, "e", exponent sign, 2 exponent digits.
    text = np.empty((23, len(x)), np.uint8)
    text[0] = np.signbit(x) * np.uint8(ord("-"))
    text[1] = digits[0]
    text[2] = ord(".")
    text[3:19] = digits[1:]
    text[19] = ord("e")
    text[20] = np.where(e < 0, ord("-"), ord("+"))
    text[21], text[22] = np.divmod(np.abs(e), 10)
    text[21:] += ord("0")
    return text


#: The fraction bits of a double: all 0 in a power of two.
_FRACTION = (1 << 52) - 1


def _format_repr(block):
    """The text ``"%r" % x`` of each cell ``x`` of ``block``, in order, as
    the NUL-padded columns of a ``(23, block.size)`` uint8 array; None
    unless ``block`` holds doubles and every ``x`` is ±0 or has
    ``1e-4 <= |x| < 1e16`` and is not a power of two.

    In that range ``repr`` prints ``x`` without an exponent, in the fewest
    significant digits that read back as ``x``, the nearest such decimal to
    ``x``, ties to even (Steele and White 1990).  Count in units of
    ``10**(E - 16)``, as ``_scaled``: there ``|x|`` is ``S = hi + lo``
    exactly, a decimal of ``k <= 17`` significant digits and exponent ``E``
    is an integer multiple ``q`` of ``10**(17 - k)``, and ``q`` reads back
    as ``x`` when ``|q - S| < H``, half an ulp of ``x``.  Outside the powers
    of two both neighbours of ``x`` lie an ulp away, and ``0.55 < H < 11.1``.

    - ``S`` rounded to an integer, ties to even, is within 1/2 of ``S``:
      17 digits always read back.
    - ``S`` rounded to a multiple of 10, ties to even, is the nearest
      16-digit decimal.  ``floor(S)`` and the tie come from ``hi`` and
      ``lo`` together; ``hi`` alone can pick the other neighbour.
    - At most one multiple of 100 lies within ``H < 50`` of ``S``, the
      nearest.  If it reads back, it is the shortest decimal, printed
      without its trailing zeros.

    The first of these three that reads back is printed.  The test is exact:
    ``d = q - hi`` is an integer and the test is ``d - H < lo < d + H``.
    ``H`` is ``5**(16 - E)`` times a power of two, and ``5**20 < 2**47``,
    so ``d ± H`` are exact doubles for ``|d| < 20``, and for a larger ``|d|``
    the test fails however they round, as ``|lo| <= 8``.  ``|q - S| == H``
    would put ``x ± ulp / 2`` on a decimal of 16 digits or fewer, which
    needs ``x >= 2**53``: then ``x`` is an even integer, its own 16 digits
    lie at 0, and ``x ± 1`` is odd, no multiple of 10.  So no rule for ties
    on read-back is needed.

    No carry: ``10**(E + 1)`` is a double or rounds up to one for every
    ``E`` from -4 to 15, so it does not read back as ``x``, and ``S`` lies
    at least ``H`` below ``10**17``.  A ``q`` that reads back, and so the
    printed one, is below ``10**17``, and it is at least ``10**16``, as
    ``S`` is: every printed ``q`` has 17 digits, and ``x`` exponent ``E``.
    """
    x = np.ravel(block)
    a = np.abs(x)
    if x.dtype != np.float64 or not _within(a, -4, 16):
        return None
    if not np.all((x.view(np.int64) & _FRACTION != 0) | (a == 0)):
        return None
    hi, lo, e = _scaled(a)
    hi = hi.astype(np.int64)
    half = np.spacing(a) * _SCALE[e - _EXPONENTS.start] / 2

    def reads_back(d):  # whether hi + d reads back as x
        return (d - half < lo) & (lo < d + half)

    # Each candidate as d = q - hi.  S lies r + lo above the multiple of 100
    # at or below hi, and floor(S) lies r + floor(lo) above it.
    r = hi % 100
    floor_lo = np.floor(lo)
    tens, units = np.divmod(r + floor_lo.astype(np.int64), 10)
    up = (units > 5) | ((units == 5) & ((lo != floor_lo) | (tens & 1 == 1)))
    d100, d10 = np.where(lo >= 50 - r, 100, 0) - r, 10 * (tens + up) - r
    d = np.where(reads_back(d100), d100, np.where(reads_back(d10), d10, np.rint(lo)))
    # The digits of the places 10**(E + 4) down to 10**(E - 16), four zeros
    # and then q, between two rows of NULs: row p + 1 holds 10**(E + 4 - p).
    places = np.zeros((23, len(x)), np.uint8)
    places[1:5] = ord("0")
    places[5:22] = _ascii_digits(hi + d.astype(np.int64))
    # p of the last significant digit, or of the first: 0 prints one digit.
    last = np.maximum(((places[5:22] != ord("0")) * np.arange(4, 21, dtype=np.int8)[:, None]).max(axis=0), 4)
    # Byte c after the sign: place p from 10**min(E, 0) to 10**0 at c = p,
    # the point at c = E + 5, and each place p after it at c = p + 1, to the
    # last significant one and at least one.
    c, point = np.arange(22, dtype=np.int8)[:, None], (e + 5).astype(np.int8)
    text = np.empty((23, len(x)), np.uint8)
    text[0] = np.signbit(x) * np.uint8(ord("-"))
    text[1:] = places[1:] * ((c >= np.minimum(point, 5) - 1) & (c < point))
    text[1:] += np.uint8(ord(".")) * (c == point)
    text[1:] += places[:-1] * ((c > point) & (c <= np.maximum(last, point) + 1))
    return text


#: The cell format each kernel prints, as its ``%`` template would.
_KERNELS = ((FLOAT_FORMAT, _format_e16), ("%r", _format_repr))


def _series_items(series) -> list[tuple[str, np.ndarray]]:
    """The ``(label, (m, 2) points)`` items of the mapping ``series`` of str
    labels, each read by :func:`point_array`; else :class:`T2SplineError`."""
    if not isinstance(series, Mapping):
        raise T2SplineError(f"series must be a mapping of labels to points, got {type(series).__name__}")
    items = []
    for label, points in series.items():
        if not isinstance(label, str):
            raise T2SplineError(f"a series label must be a str, got {type(label).__name__}")
        items.append((label, point_array(points, label)))
    return items


def write_output(target, render) -> None:
    """Call ``render(stream)`` on the open text stream ``target``, or on the
    file at the ``str``, ``bytes`` or ``os.PathLike`` path ``target``; any
    other target, and a path holding NUL, is refused with :class:`T2SplineError`.

    A new file, or a regular file of this user with one link, is rendered
    into a file beside it that replaces it only once ``render`` has
    returned, so a failed render leaves an existing file untouched.  Any
    other target (a symlink, a device, a FIFO, a hard-linked or foreign
    file) is written in place, so the path stays what it was.
    """
    if hasattr(target, "write"):
        render(target)
        return
    if not isinstance(target, (str, bytes, os.PathLike)):
        raise T2SplineError(f"output target must be a text stream or a path, got {type(target).__name__}")
    if "\0" in os.fsdecode(target):
        raise T2SplineError(f"output path must not hold a NUL character, got {target!r}")
    staged = _stage_beside(target)
    if staged is None:
        with open(target, "w", encoding="utf-8", newline="") as f:
            render(f)
        return
    fd, tmp = staged
    try:
        with open(fd, "w", encoding="utf-8", newline="") as f:
            render(f)
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def _stage_beside(path) -> tuple[int, str] | None:
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
    tmp = f"{os.fsdecode(path)}.{os.getpid()}-{os.urandom(4).hex()}.tmp"
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


def write_csv(ts, series, path_or_file) -> None:
    """Write curves sampled at ``ts`` as CSV: the t column, then x/y for each
    ``label: (len(ts), 2) points`` item of the mapping ``series``, as
    :func:`~t2spline.curves.evaluate` returns them.  ``ts`` is read by the
    params rule of a polyline (:func:`~t2spline.bspline.param_array`), and a
    series of another length raises :class:`SampleMismatch`."""
    ts = param_array(ts, "ts")
    items = _series_items(series)
    if not items:
        raise T2SplineError("no series to write")
    for label, points in items:
        if len(points) != len(ts):
            raise SampleMismatch(f"series {label} has {len(points)} points for {len(ts)} parameters")
    header = ["t", *(f"{label}_{axis}" for label, _ in items for axis in "xy")]
    columns = [ts[:, None], *(points for _, points in items)]
    write_output(path_or_file, lambda f: write_table(f, header, columns, [FLOAT_FORMAT] * len(header)))


# ---------------------------------------------------------------------------
# SVG rendering

CANVAS_W = 800
CANVAS_H = 600
MARGIN_LEFT = 64
MARGIN_RIGHT = 168   # leaves room for the legend
MARGIN_TOP = 40
MARGIN_BOTTOM = 48
PAD_FRACTION = 0.05

#: (stroke colour, stroke width, draw point markers) per curve label.
SERIES_STYLE = {
    "ll": ("#c6dbef", 1.0, False),
    "l": ("#9ecae1", 1.0, False),
    "rl": ("#6baed6", 1.0, False),
    "crisp": ("#d62728", 1.8, True),
    "lr": ("#6baed6", 1.0, False),
    "r": ("#9ecae1", 1.0, False),
    "rr": ("#c6dbef", 1.0, False),
    "tr_left": ("#2ca02c", 1.2, False),
    "tr_right": ("#2ca02c", 1.2, False),
    "defuzzified": ("#1f77b4", 1.8, True),
}

#: Fill colour of the control-point markers, drawn as the ``controls`` entry.
CONTROLS_COLOUR = "#000000"


@dataclass(eq=False)
class Scene:
    """What to draw: each ``label: (m, 2) points`` item of the mapping
    ``series``, styled by its label, as :func:`~t2spline.curves.evaluate`
    returns them; the crisp control polygon ``controls`` (None for none); and
    a ``title``.  A scene is mutable, so it is checked when it is drawn."""

    series: Mapping[str, np.ndarray]
    controls: np.ndarray | None = None
    title: str = ""


def svg_document(scene: Scene) -> str:
    """Render a scene to an SVG 1.1 string (fixed canvas, 5% data padding)."""
    series = _series_items(scene.series)
    for label, _ in series:
        if label not in SERIES_STYLE:
            raise T2SplineError(f"unknown series label {label!r}")
    controls = point_array([] if scene.controls is None else scene.controls, "controls")
    if not isinstance(scene.title, str):
        raise T2SplineError(f"title must be a str, got {type(scene.title).__name__}")
    plot_x0, plot_x1 = MARGIN_LEFT, CANVAS_W - MARGIN_RIGHT
    plot_y0, plot_y1 = MARGIN_TOP, CANVAS_H - MARGIN_BOTTOM
    xy = np.concatenate([points for _, points in series] + [controls])
    least, most = (xy.min(axis=0), xy.max(axis=0)) if len(xy) else (np.zeros(2), np.ones(2))
    # pixel = origin + (point * 2**k - lo) * scale; the y scale is negated, exactly
    origin, size = np.array([plot_x0, plot_y1], dtype=float), np.array([plot_x1 - plot_x0, -(plot_y1 - plot_y0)])
    lo, hi, scale = _frame(least, most, size)
    # An axis whose span is too small or too large for a finite, nonzero
    # scale is framed in units of 2**-k, exactly, with its largest |value|
    # in [0.5, 1); every other axis keeps k = 0, and its bytes.
    k = np.where(np.isfinite(scale) & (scale != 0), 0, -np.frexp(np.maximum(abs(least), abs(most)))[1])
    if k.any():
        lo, hi, scale = _frame(np.ldexp(least, k), np.ldexp(most, k), size)
    with np.errstate(over="ignore"):  # a bound past the float range is labelled by the largest float
        (xmin, ymin), (xmax, ymax) = np.nan_to_num(np.ldexp([lo, hi], -k)).tolist()

    def to_px(points):
        return origin + (np.ldexp(points, k) - lo) * scale

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{CANVAS_W}" height="{CANVAS_H}" viewBox="0 0 {CANVAS_W} {CANVAS_H}">',
        f'<rect x="0" y="0" width="{CANVAS_W}" height="{CANVAS_H}" fill="#ffffff"/>',
    ]
    if scene.title:
        out.append(
            f'<text x="{(plot_x0 + plot_x1) / 2:.1f}" y="24" text-anchor="middle" '
            f'font-family="sans-serif" font-size="15">{_escape(scene.title)}</text>'
        )

    # axes with min/max tick labels
    axis = 'stroke="#333333" stroke-width="1"'
    out.append(f'<line x1="{plot_x0}" y1="{plot_y1}" x2="{plot_x1}" y2="{plot_y1}" {axis}/>')
    out.append(f'<line x1="{plot_x0}" y1="{plot_y0}" x2="{plot_x0}" y2="{plot_y1}" {axis}/>')
    label = 'font-family="sans-serif" font-size="11" fill="#333333"'
    for x, y, anchor, value in (
        (plot_x0, plot_y1 + 16, "middle", xmin),
        (plot_x1, plot_y1 + 16, "middle", xmax),
        (plot_x0 - 6, plot_y1 + 4, "end", ymin),
        (plot_x0 - 6, plot_y0 + 4, "end", ymax),
    ):
        out.append(f'<text x="{x}" y="{y}" text-anchor="{anchor}" {label}>{value:.4g}</text>')

    legend_entries = []
    for name, points in series:
        colour, width, markers = SERIES_STYLE[name]
        px = to_px(points)
        out.append(
            f'<polyline class="series-{name}" fill="none" stroke="{colour}" '
            f'stroke-width="{width}" points="{"".join(_fill("%.3f,%.3f ", px))[:-1]}"/>'
        )
        if markers:
            out.append(_markers(name, colour, px, 2.5))
        legend_entries.append((name, colour))

    if len(controls):
        out.append(_markers("controls", CONTROLS_COLOUR, to_px(controls), 4))
        legend_entries.append(("controls", CONTROLS_COLOUR))

    lx = plot_x1 + 14
    for row, (name, colour) in enumerate(legend_entries):
        ly = plot_y0 + 10 + row * 18
        out.append(
            f'<line x1="{lx}" y1="{ly}" x2="{lx + 22}" y2="{ly}" stroke="{colour}" stroke-width="2"/>'
        )
        out.append(
            f'<text x="{lx + 28}" y="{ly + 4}" {label}>{_escape(name)}</text>'
        )

    out.append("</svg>")
    return "\n".join(out) + "\n"


def _frame(least, most, size):
    """The padded bounds ``lo``, ``hi`` of points from ``least`` to ``most``
    and the ``scale`` mapping them onto ``size`` pixels, per axis: a span of
    0 is padded as a span of 1.  The bounds may overflow to inf and the
    scale to inf or 0, silently as floats do."""
    with np.errstate(over="ignore", divide="ignore"):
        span = np.where(most - least == 0, 1.0, most - least)
        lo, hi = least - span * PAD_FRACTION, most + span * PAD_FRACTION
        return lo, hi, size / (hi - lo)


def _markers(name: str, colour: str, px: np.ndarray, radius) -> str:
    circle = f'<circle cx="%.3f" cy="%.3f" r="{radius}"/>'
    return f'<g class="markers-{name}" fill="{colour}">{"".join(_fill(circle, px))}</g>'


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_svg(scene: Scene, path_or_file) -> None:
    """Write the scene as an SVG file."""
    doc = svg_document(scene)
    write_output(path_or_file, lambda f: f.write(doc))
