"""Independent output oracle: expected curves and solution points from a
generated document, computed without importing ``t2spline``.

* The fuzzy chain is the paper's closed form over a ``(n, 2, 7)`` component
  array: the cut ``v + a(c - v)`` at level ``alpha`` for the UMF components
  and ``alpha / h`` for the LMF components, side means of three terms
  (``alpha <= h``) or two terms (``alpha > h``), and the mean of
  ``(left, c, right)``.
* Curves are ``scipy.interpolate.BSpline`` evaluated on homogeneous
  coordinates ``(w*P, w)`` with the clamped uniform knot vector, then
  projected.

Tolerance: CSV and JSON values must match to ``REL_TOL`` times the span of
the document's bounding box (largest of the x and y ranges of all seven
components).  SVG coordinates are printed to 0.001 px, so a plot must match
an affine image of the expected curves to ``SVG_TOL_PX``.

Each ``check_*`` function returns a list of problems; an empty list means
the output is correct.  Each also returns the number of output points it
verified.
"""

from __future__ import annotations

import csv
import io
import json
import xml.etree.ElementTree as ET

import numpy as np
from scipy.interpolate import BSpline

COMPONENTS = ("ll", "l", "rl", "c", "lr", "r", "rr")
BAND = ("ll", "l", "rl", "crisp", "lr", "r", "rr")
ALL_SERIES = BAND + ("tr_left", "tr_right", "defuzzified")
REL_TOL = 1e-11
SVG_TOL_PX = 1e-3


def component_array(doc: dict) -> tuple[np.ndarray, np.ndarray]:
    """``(n, 2, 7)`` components and ``(n, 2)`` heights of a document."""
    comps = np.array([[[p[a][k] for k in COMPONENTS] for a in ("x", "y")] for p in doc["points"]])
    h = np.array([[p[a]["h"] for a in ("x", "y")] for p in doc["points"]])
    return comps, h


def reduce(doc: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Type-reduced ``(left, c, right)`` polygons, each ``(n, 2)``."""
    comps, h = component_array(doc)
    alpha = doc["alpha"]
    ll, l, rl, c, lr, r, rr = np.moveaxis(comps, -1, 0)
    below = alpha <= h
    lmf = np.where(below, alpha / h, 0.0)

    def cut(v, a):
        return v + a * (c - v)

    left = np.where(below, (cut(ll, alpha) + cut(l, alpha) + cut(rl, lmf)) / 3.0, (cut(ll, alpha) + cut(l, alpha)) / 2.0)
    right = np.where(below, (cut(lr, lmf) + cut(r, alpha) + cut(rr, alpha)) / 3.0, (cut(r, alpha) + cut(rr, alpha)) / 2.0)
    return left, c, right


def defuzzified(doc: dict) -> np.ndarray:
    left, c, right = reduce(doc)
    return (left + c + right) / 3.0


def polygons(doc: dict) -> dict[str, np.ndarray]:
    """Every named control polygon the CLI can draw."""
    comps, _ = component_array(doc)
    out = {label: comps[:, :, i] for i, label in enumerate(BAND)}
    left, c, right = reduce(doc)
    out["tr_left"] = left
    out["tr_right"] = right
    out["defuzzified"] = (left + c + right) / 3.0
    return out


def params(doc: dict) -> np.ndarray:
    return np.linspace(0.0, 1.0, doc["samples"])


def curve(polygon: np.ndarray, weights: np.ndarray, order: int, ts: np.ndarray) -> np.ndarray:
    """Rational B-spline over ``polygon`` with clamped uniform knots on [0, 1]."""
    n = polygon.shape[0]
    interior = np.arange(1, n - order + 1) / (n - order + 1)
    knots = np.concatenate([np.zeros(order), interior, np.ones(order)])
    homogeneous = np.column_stack([polygon * weights[:, None], weights])
    values = BSpline(knots, homogeneous, order - 1)(ts)
    return values[:, :2] / values[:, 2:]


def expected_curves(doc: dict, names) -> dict[str, np.ndarray]:
    weights = np.asarray(doc["weights"], dtype=float)
    polys = polygons(doc)
    ts = params(doc)
    return {name: curve(polys[name], weights, doc["order"], ts) for name in names}


def series_names(spec: str) -> tuple[str, ...]:
    """Series the CLI writes for a ``--series`` value, in canonical order."""
    wanted = {s.strip() for s in spec.split(",") if s.strip()}
    if not wanted or "all" in wanted:
        return ALL_SERIES
    names = []
    if "band" in wanted:
        names += BAND
    if "reduced" in wanted:
        names += ["tr_left", "crisp", "tr_right"]
    if "crisp" in wanted:
        names.append("crisp")
    if "defuzzified" in wanted:
        names.append("defuzzified")
    return tuple(dict.fromkeys(names))


def tolerance(doc: dict) -> float:
    comps, _ = component_array(doc)
    span = max(np.ptp(comps[:, 0, :]), np.ptp(comps[:, 1, :]), 1.0)
    return REL_TOL * float(span)


def check_csv(text: str, doc: dict, spec: str) -> tuple[list[str], int]:
    names = series_names(spec)
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        return ["empty CSV"], 0
    header, body = rows[0], rows[1:]
    want_cols = {"t"} | {f"{n}_{a}" for n in names for a in ("x", "y")}
    if len(header) != len(set(header)) or set(header) != want_cols:
        return [f"CSV columns {header} != expected {sorted(want_cols)}"], 0
    if len(body) != doc["samples"]:
        return [f"CSV has {len(body)} rows, expected {doc['samples']}"], 0
    try:
        table = np.array(body, dtype=float)
    except ValueError as exc:
        return [f"CSV value not a number: {exc}"], 0
    col = {name: i for i, name in enumerate(header)}
    tol = tolerance(doc)
    problems = []
    if np.max(np.abs(table[:, col["t"]] - params(doc))) > REL_TOL:
        problems.append("CSV parameter column differs from uniform samples")
    for name, pts in expected_curves(doc, names).items():
        got = table[:, [col[f"{name}_x"], col[f"{name}_y"]]]
        err = float(np.max(np.abs(got - pts)))
        if not err <= tol:
            problems.append(f"series {name}: max error {err:.3e} > tolerance {tol:.3e}")
    return problems, len(names) * len(body)


def check_pipeline_json(text: str, doc: dict) -> tuple[list[str], int]:
    try:
        payload = json.loads(text)
        got = np.array([[p["x"], p["y"]] for p in payload["points"]], dtype=float)
        alpha = payload["alpha"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"pipeline JSON malformed: {exc!r}"], 0
    want = defuzzified(doc)
    if alpha != doc["alpha"]:
        return [f"alpha {alpha} != {doc['alpha']}"], 0
    if got.shape != want.shape:
        return [f"{got.shape[0]} solution points, expected {want.shape[0]}"], 0
    err = float(np.max(np.abs(got - want)))
    tol = tolerance(doc)
    if not err <= tol:
        return [f"solution points: max error {err:.3e} > tolerance {tol:.3e}"], 0
    return [], len(got)


def check_svg(text: str, doc: dict, spec: str) -> tuple[list[str], int]:
    names = series_names(spec)
    try:
        root = ET.fromstring(text.encode("utf-8"))
    except ET.ParseError as exc:
        return [f"SVG is not XML: {exc}"], 0
    found = {}
    for el in root.iter():
        cls = el.get("class", "")
        if el.tag.endswith("polyline") and cls.startswith("series-"):
            found.setdefault(cls[len("series-"):], []).append(el)
    if sorted(found) != sorted(names) or any(len(v) != 1 for v in found.values()):
        counts = {k: len(v) for k, v in found.items()}
        return [f"SVG series polylines {counts} != one each of {list(names)}"], 0
    expected = expected_curves(doc, names)
    got, want = [], []
    for name in names:
        try:
            pts = np.array([xy.split(",") for xy in found[name][0].get("points", "").split()], dtype=float)
        except ValueError as exc:
            return [f"SVG series {name}: bad points: {exc}"], 0
        if pts.shape != (doc["samples"], 2):
            return [f"SVG series {name}: {pts.shape[0]} points, expected {doc['samples']}"], 0
        got.append(pts)
        want.append(expected[name])
    got = np.concatenate(got)
    want = np.concatenate(want)
    problems = []
    for axis in (0, 1):
        # The plot is an affine image of the data per axis; fit it, then the
        # residual is the rounding of the printed pixel coordinates.
        design = np.column_stack([want[:, axis], np.ones(len(want))])
        coef, *_ = np.linalg.lstsq(design, got[:, axis], rcond=None)
        resid = float(np.max(np.abs(design @ coef - got[:, axis])))
        if coef[0] == 0.0 or not resid <= SVG_TOL_PX:
            problems.append(f"SVG axis {'xy'[axis]}: residual {resid:.3e} px > {SVG_TOL_PX} px")
    return problems, len(got)


def check(kind: str, text: str, doc: dict, spec: str = "all") -> tuple[list[str], int]:
    """Check one operation's output; ``kind`` is ``csv``, ``json`` or ``svg``."""
    if kind == "csv":
        return check_csv(text, doc, spec)
    if kind == "json":
        return check_pipeline_json(text, doc)
    return check_svg(text, doc, spec)
