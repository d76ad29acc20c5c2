"""The SVG renderer: the figure a ``plot`` command draws.

Only ``plot``, through :func:`t2spline.output.render_svg`, and a library
user's first access to :class:`Scene`, a style constant or
:func:`~t2spline.output.svg_document` load this module; ``curve``,
``pipeline``, ``validate`` and ``demo`` never do.  :mod:`t2spline.output`
and the package give its public names on first access
(:func:`~t2spline.bspline.deferred`).  A figure is drawn on a fixed canvas
with 5% data padding, and its points are cut by ``output._fill``.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .bspline import point_array
from .errors import T2SplineError
from .output import _fill, _series_items


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

#: The characters XML 1.0 allows in text: no lone surrogate, and of the
#: controls only tab, LF and CR.
_XML_TEXT = re.compile("[\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]*")


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
    if not _XML_TEXT.fullmatch(scene.title):
        raise T2SplineError(f"title must hold only characters XML allows, got {scene.title!r}")
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
        out.append(f'<line x1="{lx}" y1="{ly}" x2="{lx + 22}" y2="{ly}" stroke="{colour}" stroke-width="2"/>')
        out.append(f'<text x="{lx + 28}" y="{ly + 4}" {label}>{_escape(name)}</text>')

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
