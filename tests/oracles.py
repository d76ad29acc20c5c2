"""Independent brute-force oracles used by the tests.

The quadratic basis polynomials below were expanded by hand from the
order-3 recursion on the clamped knot vector (0, 0, 0, 0.5, 1, 1, 1),
``cox_de_boor`` is the textbook recursive definition of any basis function,
and ``alpha_cut``, ``type_reduce``, ``defuzzify`` and ``pipeline_point`` are
the fuzzy chain written one coordinate at a time in plain float arithmetic;
``svg_figure`` maps and formats each SVG point on its own,
``csv_table`` fills a whole table into one ``%`` template,
``pipeline_json`` is ``json.dumps`` of the solution points, and
``points_outside_hull`` decides in integer arithmetic how far points lie
from a planar convex hull.  They deliberately do NOT call the library;
``svg_figure`` is handed the module that holds its layout constants.
"""

import csv
import io
import json
import math
import sys


def cox_de_boor(knots, i, order, t):
    """Basis function N_i of the given order at t by the Cox-de Boor recursion.

    0/0 := 0 for repeated knots; the final non-empty span is closed on the
    right so the basis reaches the last control point at the domain's end.
    A knot interval below about 1e-308 overflows the ratio (t - knot) /
    interval, so compare against it only on knots spaced wider than that.
    """
    if order == 1:
        if knots[i] <= t < knots[i + 1]:
            return 1.0
        if t == knots[-1] and knots[i] < knots[i + 1] == knots[-1]:
            return 1.0
        return 0.0
    total = 0.0
    left_den = knots[i + order - 1] - knots[i]
    if left_den > 0.0:
        total += (t - knots[i]) / left_den * cox_de_boor(knots, i, order - 1, t)
    right_den = knots[i + order] - knots[i + 1]
    if right_den > 0.0:
        total += (knots[i + order] - t) / right_den * cox_de_boor(knots, i + 1, order - 1, t)
    return total


def quad_basis_0(t):
    return (1.0 - 2.0 * t) ** 2 if t < 0.5 else 0.0


def quad_basis_1(t):
    return 2.0 * t * (2.0 - 3.0 * t) if t < 0.5 else 2.0 * (1.0 - t) ** 2


def quad_basis_2(t):
    return 2.0 * t * t if t < 0.5 else 2.0 * (1.0 - t) * (3.0 * t - 1.0)


def quad_basis_3(t):
    return 0.0 if t < 0.5 else (2.0 * t - 1.0) ** 2


QUAD_BASIS = (quad_basis_0, quad_basis_1, quad_basis_2, quad_basis_3)


def brute_force_rational(controls, weights, t):
    """Direct weighted summation over the hand-expanded quadratic basis."""
    bx = by = den = 0.0
    for (px, py), w, nf in zip(controls, weights, QUAD_BASIS):
        wn = w * nf(t)
        bx += wn * px
        by += wn * py
        den += wn
    return (bx / den, by / den)


# --- the fuzzy chain, one coordinate at a time ------------------------------


def _toward(v, c, a):
    # Slide v toward c by fraction a.  This arrangement is weakly monotone
    # in a under floating point, which keeps alpha-nesting checks exact.
    return v + a * (c - v)


def alpha_cut(row, alpha):
    """Cut the coordinate ``row = (ll, l, rl, c, lr, r, rr, h)`` of Python
    floats at ``alpha``: the seven cut values, with None for the LMF entries
    that vanish when ``alpha > h``, and whether ``alpha <= h``."""
    ll, l, rl, c, lr, r, rr, h = row
    below = alpha <= h
    if below:
        lmf_level = alpha / h
        left_inner = _toward(rl, c, lmf_level)
        right_inner = _toward(lr, c, lmf_level)
    else:
        left_inner = None
        right_inner = None
    cut = (
        _toward(ll, c, alpha),
        _toward(l, c, alpha),
        left_inner,
        c,
        right_inner,
        _toward(r, c, alpha),
        _toward(rr, c, alpha),
    )
    return cut, below


def type_reduce(cut, below):
    """Centroid-min type-reduction of an :func:`alpha_cut`: ``(left, c, right)``."""
    lo, lp, li, c, ri, rp, ro = cut
    if below:
        left = (lo + lp + li) / 3.0
        right = (ri + rp + ro) / 3.0
    else:
        left = (lo + lp) / 2.0
        right = (rp + ro) / 2.0
    return left, c, right


def defuzzify(left, c, right):
    return (left + c + right) / 3.0


def pipeline_point(rows, alpha):
    """The solution of each coordinate row: cut, type-reduce, defuzzify."""
    return tuple(defuzzify(*type_reduce(*alpha_cut(row, alpha))) for row in rows)


# --- the SVG figure, one point at a time ------------------------------------


def svg_figure(series, controls, title, layout):
    """The SVG text of ``(label, points)`` series and the ``controls`` (a
    list of point pairs, empty for none), laid out by the canvas, margin,
    padding and style constants of the module ``layout``: the bounds are
    padded one axis at a time in Python floats, and each point is mapped and
    printed with ``f"{v:.3f}"`` on its own.  An axis whose span is too small
    or too large for a finite, nonzero scale is framed in units of 2**-k,
    with its largest magnitude in [0.5, 1)."""
    CANVAS_W, CANVAS_H, PAD_FRACTION = layout.CANVAS_W, layout.CANVAS_H, layout.PAD_FRACTION
    MARGIN_LEFT, MARGIN_RIGHT = layout.MARGIN_LEFT, layout.MARGIN_RIGHT
    MARGIN_TOP, MARGIN_BOTTOM = layout.MARGIN_TOP, layout.MARGIN_BOTTOM
    SERIES_STYLE = layout.SERIES_STYLE
    xy = [tuple(p) for _, points in series for p in points] + [tuple(p) for p in controls]
    plot_x0, plot_x1 = MARGIN_LEFT, CANVAS_W - MARGIN_RIGHT
    plot_y0, plot_y1 = MARGIN_TOP, CANVAS_H - MARGIN_BOTTOM

    def axis(values, size):
        """The padded bounds of one axis in data units, its scale and the
        exponent k of the units 2**-k it is framed in: 0 unless the span is
        too small or too large for a finite, nonzero scale."""
        least, most = (min(values), max(values)) if values else (0.0, 1.0)

        def frame(least, most):
            span = (most - least) or 1.0
            lo, hi = least - span * PAD_FRACTION, most + span * PAD_FRACTION
            return lo, hi, size / (hi - lo) if hi != lo else math.inf

        lo, hi, scale = frame(least, most)
        k = 0
        if not (math.isfinite(scale) and scale != 0):
            k = -math.frexp(max(abs(least), abs(most)))[1]
            lo, hi, scale = frame(math.ldexp(least, k), math.ldexp(most, k))
        return lo, hi, scale, k

    def in_data_units(v, k):
        try:
            return math.ldexp(v, -k)
        except OverflowError:  # labelled by the largest float
            return math.copysign(sys.float_info.max, v)

    xlo, xhi, sx, kx = axis([float(p[0]) for p in xy], plot_x1 - plot_x0)
    ylo, yhi, sy, ky = axis([float(p[1]) for p in xy], plot_y1 - plot_y0)
    xmin, xmax = in_data_units(xlo, kx), in_data_units(xhi, kx)
    ymin, ymax = in_data_units(ylo, ky), in_data_units(yhi, ky)

    def to_px(p):
        x, y = math.ldexp(float(p[0]), kx), math.ldexp(float(p[1]), ky)
        return (plot_x0 + (x - xlo) * sx, plot_y1 - (y - ylo) * sy)

    def fmt(v):
        return f"{v:.3f}"

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
        pts = " ".join(f"{fmt(px)},{fmt(py)}" for px, py in (to_px(p) for p in points))
        out.append(
            f'<polyline class="series-{name}" fill="none" stroke="{colour}" '
            f'stroke-width="{width}" points="{pts}"/>'
        )
        if markers:
            circles = "".join(
                f'<circle cx="{fmt(px)}" cy="{fmt(py)}" r="2.5"/>'
                for px, py in (to_px(p) for p in points)
            )
            out.append(f'<g class="markers-{name}" fill="{colour}">{circles}</g>')
        legend_entries.append((name, colour))

    if len(controls):
        colour = layout.CONTROLS_COLOUR
        circles = "".join(
            f'<circle cx="{fmt(px)}" cy="{fmt(py)}" r="4"/>'
            for px, py in (to_px(p) for p in controls)
        )
        out.append(f'<g class="markers-controls" fill="{colour}">{circles}</g>')
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


def _escape(text):
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def csv_table(header, cells, formats):
    """The CSV text of the ``header`` row, then the rows of the 2-d array
    ``cells``, each cell printed by Python's ``%`` operator with its format
    from ``formats``: every row in one template, in one operation."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(header)
    row = ",".join(formats) + "\n"
    return buf.getvalue() + (row * len(cells)) % tuple(cells.ravel().tolist())


def pipeline_json(alpha, solution):
    """The text ``t2spline pipeline --format json`` writes for the ``(n, 2)``
    array ``solution`` found at the cut level ``alpha``: ``json.dumps`` of
    one ``{"x", "y"}`` object a point, indented by 2, and a newline."""
    points = [{"x": x, "y": y} for x, y in solution.tolist()]
    return json.dumps({"alpha": alpha, "points": points}, indent=2) + "\n"


def _cross(o, a, b):
    """Twice the signed area of the triangle o, a, b: positive when b lies left of o -> a."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull(points):
    """The vertices of the convex hull of exact (integer or fraction) (x, y)
    pairs, counter-clockwise, by Andrew's monotone chain: one vertex for
    coincident points, the two ends for collinear ones."""
    pts = sorted(set(points))
    if len(pts) < 3:
        return pts

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and _cross(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out[:-1]

    return chain(pts) + chain(reversed(pts))


def _beyond(a, b, p, limit):
    """Whether the squared distance from p to the segment a-b exceeds ``limit``."""
    dx, dy = b[0] - a[0], b[1] - a[1]
    px, py = p[0] - a[0], p[1] - a[1]
    dot, length2 = px * dx + py * dy, dx * dx + dy * dy
    if dot <= 0:  # nearest to a; also a segment of length 0
        return px * px + py * py > limit
    if dot >= length2:  # nearest to b
        qx, qy = p[0] - b[0], p[1] - b[1]
        return qx * qx + qy * qy > limit
    cross = dx * py - dy * px  # the distance to the line is |cross| / sqrt(length2)
    return cross * cross > limit * length2


def points_outside_hull(polygon, points, tol):
    """Indices of the (x, y) floats ``points`` whose Euclidean distance from
    the convex hull of the (x, y) floats ``polygon`` exceeds the float ``tol``.

    Decided exactly: every value is a Python integer times one common power
    of two, so the hull, the side tests and the squared distances are
    integer arithmetic.  A point strictly inside every edge is inside; any
    other is compared with each edge as a segment, so a collinear or
    coincident polygon, whose hull is a segment or a point, goes the same way.
    """
    ratios = [float(v).as_integer_ratio() for v in (tol, *(v for p in (*polygon, *points) for v in p))]
    scale = max(d for _, d in ratios)
    tol, *values = (n * (scale // d) for n, d in ratios)
    pairs = list(zip(values[::2], values[1::2]))
    hull = convex_hull(pairs[: len(polygon)])
    edges = list(zip(hull, hull[1:] + hull[:1]))
    return [
        i
        for i, p in enumerate(pairs[len(polygon) :])
        if not all(_cross(a, b, p) > 0 for a, b in edges) and all(_beyond(a, b, p, tol * tol) for a, b in edges)
    ]
