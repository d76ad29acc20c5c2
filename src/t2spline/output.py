"""Sampled-curve output: CSV tables and static SVG figures.

Both writers are deterministic: identical inputs produce byte-identical
files (fixed column order, fixed float formatting, no timestamps).  Both
draw on ``(label, points)`` series sharing one parameter array.  The curve
table is laid out by :func:`write_curve_table` alone, and CSV rows and SVG
points are cut from arrays a block at a time by ``_fill`` alone.  A block of
a table printed all in :data:`FLOAT_FORMAT` is laid out byte by byte by
``_format_e16``, any other block by its ``%`` template, to the same text.
Every output file of the package is written by :func:`write_output`.
"""

from __future__ import annotations

import csv
import math
import os
import stat
from dataclasses import dataclass

import numpy as np

from .bspline import Polyline, float_array
from .curves import SERIES, CurveBand, ReducedCurves
from .errors import SampleMismatch, T2SplineError

#: Cells :func:`write_table` formats at once: a bounded block of rows keeps
#: the text of a long table from being held whole, and bounds the arrays
#: ``_format_e16`` works in, about 100 bytes a cell.
BLOCK_CELLS = 4096

#: 17 significant digits: locale-independent, round-trips doubles exactly.
FLOAT_FORMAT = "%.16e"


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


#: The decimal exponents ``_format_e16`` prints: ``10**(16 - E)`` is an
#: exact double for each, and ``10**22`` is the largest power of ten that is.
_E16_EXPONENTS = range(-6, 17)
#: The least double not below each power of ten from ``10**-6`` to
#: ``10**17``: ``|x| >= _E16_DECADES[i]`` exactly when ``|x| >= 10**(i - 6)``.
_E16_DECADES = np.array([_least_double_from(k) for k in range(_E16_EXPONENTS.start, _E16_EXPONENTS.stop + 1)])
_E16_SCALE = np.array([float(10 ** (16 - e)) for e in _E16_EXPONENTS])
_E16_SCALE_HI, _E16_SCALE_LO = _split(_E16_SCALE)


def write_table(f, header, columns, formats) -> None:
    """Write a CSV table to the text stream ``f``: the ``header`` row, then
    one row per row of the ``(rows, k)`` arrays of ``columns`` placed side by
    side, each cell printed with its ``%`` format from ``formats``."""
    csv.writer(f, lineterminator="\n").writerow(header)  # quotes names as needed
    f.writelines(_fill(",".join(formats) + "\n", *columns))


def write_curve_table(f, ts, series) -> None:
    """Write curves sampled at the parameters ``ts`` to the text stream
    ``f`` as CSV: column ``t``, then ``<label>_x`` and ``<label>_y`` for each
    ``(label, (len(ts), 2) points)`` pair of ``series``, which is read twice."""
    header = ["t", *(f"{label}_{axis}" for label, _ in series for axis in "xy")]
    columns = [ts[:, None], *(points for _, points in series)]
    write_table(f, header, columns, [FLOAT_FORMAT] * len(header))


def _fill(row_format, *columns):
    """Yield the text of the rows of the ``(rows, k)`` arrays ``columns``
    placed side by side, each row filled into the ``%``-template
    ``row_format``, a block of at most :data:`BLOCK_CELLS` cells at a time.
    A row of :data:`FLOAT_FORMAT` cells alone is printed by ``_format_e16``
    wherever a block lies in its domain."""
    width = sum(c.shape[1] for c in columns)
    exact = row_format == ",".join([FLOAT_FORMAT] * width) + "\n"
    step = max(1, BLOCK_CELLS // width)
    for start in range(0, len(columns[0]), step):
        block = np.hstack([c[start : start + step] for c in columns])
        text = _format_e16(block) if exact else None
        yield (row_format * len(block)) % tuple(block.ravel().tolist()) if text is None else text


def _format_e16(block):
    """The rows of the 2-d array ``block`` as CSV text, each cell ``x`` as
    ``"%.16e" % x`` prints it; None unless ``block`` holds doubles and every
    ``x`` is ±0 or has ``1e-6 < |x| < 1e17``.

    ``%.16e`` prints ``D * 10**(E - 16)``: ``E`` is the decimal exponent,
    ``10**E <= |x| < 10**(E + 1)``, and ``D`` is ``|x| * 10**(16 - E)``
    rounded to the nearest integer, ties to even.  In the domain
    ``-6 <= E <= 16``, so ``10**(16 - E)`` is an exact double, and Dekker's
    product of ``|x|`` and that power is exact: ``hi + lo``, with ``hi`` the
    rounded product.  ``hi`` is at least ``10**16 > 2**53``, so it is an
    even integer, and ``D`` is ``hi`` plus ``lo`` rounded half to even.  The
    largest double below each ``10**(E + 1)`` gives a product more than 8
    below ``10**17``, so ``D`` never rounds up to ``10**17``.  The double
    ``1e-6`` lies below ``10**-6`` and prints with ``E == -7``.
    A block holding it, a smaller nonzero, a larger, infinite or NaN cell is
    left to the ``%`` template.
    """
    x = block.ravel()
    digits_exponents = _digits17(np.abs(x)) if x.dtype == np.float64 else None
    if digits_exponents is None:
        return None
    d, e = digits_exponents
    # One column of bytes per cell: sign (NUL for none), d, ".", 16 digits,
    # "e", exponent sign, 2 exponent digits, separator.
    text = np.empty((24, len(x)), np.uint8)
    text[0] = np.where(np.signbit(x), ord("-"), 0)
    digits = np.empty((2, len(x)), np.int64)  # the first 9 and last 8 digits of D
    digits[0], digits[1] = np.divmod(d, 10**8)
    for i in range(8):
        rest = digits // 10
        text[10 - i : 19 - i : 8] = digits - rest * 10 + ord("0")
        digits = rest
    text[1] = digits[0] + ord("0")
    text[2] = ord(".")
    text[19] = ord("e")
    text[20] = np.where(e < 0, ord("-"), ord("+"))
    text[21], text[22] = np.divmod(np.abs(e), 10)
    text[21:23] += ord("0")
    separators = text[23].reshape(block.shape)
    separators[:] = ord(",")
    separators[:, -1] = ord("\n")
    return text.T.tobytes().replace(b"\0", b"").decode("ascii")


def _digits17(a):
    """``D`` and ``E`` of :func:`_format_e16` for the absolute values ``a``,
    or None if one lies outside its domain."""
    zero = a == 0
    if not np.all(zero | ((a >= _E16_DECADES[0]) & (a < _E16_DECADES[-1]))):
        return None
    # E - E_min; a zero takes -1, the last scale, and its product is 0 at any.
    j = np.searchsorted(_E16_DECADES, a, side="right") - 1
    p, p_hi, p_lo = _E16_SCALE[j], _E16_SCALE_HI[j], _E16_SCALE_LO[j]
    a_hi, a_lo = _split(a)
    hi = a * p
    lo = ((a_hi * p_hi - hi) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo
    d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    return d, np.where(zero, 0, j + _E16_EXPONENTS.start)


def _normalize_series(series) -> list[tuple[str, Polyline]]:
    if isinstance(series, CurveBand):
        return list(series.items())
    if isinstance(series, Polyline):
        return [("curve", series)]
    pairs = list(series)
    if not pairs:
        raise T2SplineError("no series to write")
    for pair in pairs:
        if not (isinstance(pair, tuple) and len(pair) == 2 and isinstance(pair[1], Polyline)):
            raise T2SplineError("series must be (name, Polyline) pairs, a CurveBand, or a Polyline")
    return pairs


def write_output(target, render) -> None:
    """Call ``render(stream)`` on the open text stream ``target``, or on the
    file at path ``target``.

    A new file, or a regular file of this user with one link, is rendered
    into a file beside it that replaces it only once ``render`` has
    returned, so a failed render leaves an existing file untouched.  Any
    other target (a symlink, a device, a FIFO, a hard-linked or foreign
    file) is written in place, so the path stays what it was.
    """
    if hasattr(target, "write"):
        render(target)
        return
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


def write_csv(series, path_or_file) -> None:
    """Write sampled curves as CSV: t column, then x/y per named series.

    ``series`` may be a :class:`CurveBand`, a single :class:`Polyline`, or a
    sequence of ``(name, Polyline)`` pairs.  All series must be sampled at
    identical parameters.
    """
    pairs = _normalize_series(series)
    ts = pairs[0][1].params
    for name, line in pairs[1:]:
        if not np.array_equal(line.params, ts):
            raise SampleMismatch(f"series {name!r} sampled at different parameters")
    lines = [(name, line.points) for name, line in pairs]
    write_output(path_or_file, lambda f: write_curve_table(f, ts, lines))


# ---------------------------------------------------------------------------
# SVG rendering

CANVAS_W = 800
CANVAS_H = 600
MARGIN_LEFT = 64
MARGIN_RIGHT = 168   # leaves room for the legend
MARGIN_TOP = 40
MARGIN_BOTTOM = 48
PAD_FRACTION = 0.05

#: (stroke colour, stroke width, draw point markers) per series name.
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
    "controls": ("#000000", 1.0, True),
}


@dataclass
class Scene:
    """What to draw: any subset of band, type-reduced pair, solution curves
    and the crisp control polygon."""

    band: CurveBand | None = None
    reduced: ReducedCurves | None = None
    defuzzified: Polyline | None = None
    crisp: Polyline | None = None
    controls: np.ndarray | None = None
    title: str = ""


def _scene_series(scene: Scene) -> list[tuple[str, np.ndarray]]:
    """The scene's curves as (label, points) in :data:`~t2spline.curves.SERIES`
    column order, each label once."""
    series = {}
    for group, labels in SERIES.items():
        view = getattr(scene, group)
        if isinstance(view, Polyline):
            view = (view,)
        elif isinstance(view, CurveBand):
            view = [line for _, line in view.items()]
        for label, line in zip(labels, view or ()):
            series.setdefault(label, line.points)
    return list(series.items())


def svg_document(scene: Scene) -> str:
    """Render a scene to an SVG 1.1 string (fixed canvas, 5% data padding)."""
    return svg_figure(_scene_series(scene), scene.controls, scene.title)


def svg_figure(series, controls, title: str) -> str:
    """Render ``(label, (m, 2) points)`` series, styled by label, and the
    (m, 2) ``controls`` (None for none) like :func:`svg_document`."""
    series = list(series)
    controls = float_array([] if controls is None else controls, "controls")
    if not controls.size:
        controls = np.empty((0, 2))
    if controls.ndim != 2 or controls.shape[1] != 2:
        raise T2SplineError(f"controls must be an (m, 2) array, got shape {controls.shape}")
    plot_x0, plot_x1 = MARGIN_LEFT, CANVAS_W - MARGIN_RIGHT
    plot_y0, plot_y1 = MARGIN_TOP, CANVAS_H - MARGIN_BOTTOM
    xy = np.concatenate([points for _, points in series] + [controls])
    lo, hi = (xy.min(axis=0), xy.max(axis=0)) if len(xy) else (np.zeros(2), np.ones(2))
    with np.errstate(over="ignore"):  # the bounds may overflow to inf, silently as floats do
        span = np.where(hi - lo == 0, 1.0, hi - lo)
        lo, hi = lo - span * PAD_FRACTION, hi + span * PAD_FRACTION
        # pixel = origin + (point - lo) * scale; the y scale is negated, exactly
        scale = np.array([plot_x1 - plot_x0, -(plot_y1 - plot_y0)]) / (hi - lo)
    origin = np.array([plot_x0, plot_y1], dtype=float)
    (xmin, ymin), (xmax, ymax) = lo.tolist(), hi.tolist()

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{CANVAS_W}" height="{CANVAS_H}" viewBox="0 0 {CANVAS_W} {CANVAS_H}">',
        f'<rect x="0" y="0" width="{CANVAS_W}" height="{CANVAS_H}" fill="#ffffff"/>',
    ]
    if title:
        out.append(
            f'<text x="{(plot_x0 + plot_x1) / 2:.1f}" y="24" text-anchor="middle" '
            f'font-family="sans-serif" font-size="15">{_escape(title)}</text>'
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
        px = origin + (points - lo) * scale
        out.append(
            f'<polyline class="series-{name}" fill="none" stroke="{colour}" '
            f'stroke-width="{width}" points="{"".join(_fill("%.3f,%.3f ", px))[:-1]}"/>'
        )
        if markers:
            out.append(_markers(name, colour, px, 2.5))
        legend_entries.append((name, colour))

    if len(controls):
        colour = SERIES_STYLE["controls"][0]
        out.append(_markers("controls", colour, origin + (controls - lo) * scale, 4))
        legend_entries.append(("controls", colour))

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


def _markers(name: str, colour: str, px: np.ndarray, radius) -> str:
    circle = f'<circle cx="%.3f" cy="%.3f" r="{radius}"/>'
    return f'<g class="markers-{name}" fill="{colour}">{"".join(_fill(circle, px))}</g>'


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_svg(scene: Scene, path_or_file) -> None:
    """Write the scene as an SVG file."""
    doc = svg_document(scene)
    write_output(path_or_file, lambda f: f.write(doc))
