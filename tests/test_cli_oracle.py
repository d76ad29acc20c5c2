"""Random documents through the CLI, checked by the benchmark's oracle.

``perfbench/oracle.py`` computes the expected solution points and curves of
a document without importing ``t2spline``: the closed-form fuzzy chain and
scipy's ``BSpline`` over homogeneous coordinates.  Here it checks what
``pipeline``, ``curve`` and ``plot`` write for random documents, with and
without the ``--order``, ``--alpha`` and ``--samples`` overrides.
"""

import csv
import importlib.util
import io
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from test_boundary import cli_output
from t2spline.fuzzy import COMPONENT_FIELDS, SPREAD_FIELDS

pytest.importorskip("scipy")

_spec = importlib.util.spec_from_file_location(
    "perfbench_oracle", Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py"
)
oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracle)

_heights = st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True))
_alphas = st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_max=True))


@st.composite
def coordinates(draw, c, scale, alpha):
    """The explicit form of one random coordinate and the form the document
    gives it: explicit, or ``c``, six spreads and ``h``.  Some are
    degenerate, and some have ``h`` equal to the cut level ``alpha``."""
    if draw(st.integers(0, 4)) == 0:
        spreads = [0.0] * 6
    else:
        side = st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3)
        left, right = draw(side), draw(side)
        spreads = [scale * s for s in (*sorted(left, reverse=True), *sorted(right))]
    h = alpha if alpha > 0.0 and draw(st.booleans()) else draw(_heights)
    outer_l, prin_l, inner_l, inner_r, prin_r, outer_r = spreads
    values = (c - outer_l, c - prin_l, c - inner_l, c, c + inner_r, c + prin_r, c + outer_r)
    explicit = {**dict(zip(COMPONENT_FIELDS, values)), "h": h}
    if draw(st.booleans()):
        return explicit, {"c": c, "h": h, "spreads": dict(zip(SPREAD_FIELDS, spreads))}
    return explicit, explicit


@st.composite
def cases(draw):
    """A random document in the CLI's layout, its explicit twin for the
    oracle, and the overrides of ``curve``/``plot`` (None for none)."""
    n = draw(st.integers(2, 40))
    order = draw(st.integers(2, min(10, n)))
    alpha = draw(_alphas)
    scale = 10.0 ** draw(st.floats(-3.0, 5.0))
    given_points, explicit_points = [], []
    y = 0.0
    for i in range(n):
        # Both axes vary, or the oracle could not fit the plot's affine map.
        x = scale * (1.5 * i + draw(st.floats(-0.3, 0.3)))
        y += scale * draw(st.sampled_from((-1.0, 1.0))) * draw(st.floats(0.1, 2.0))
        (ex, gx), (ey, gy) = draw(coordinates(x, scale, alpha)), draw(coordinates(y, scale, alpha))
        given_points.append({"x": gx, "y": gy})
        explicit_points.append({"x": ex, "y": ey})
    fields = {
        "order": order,
        "alpha": alpha,
        "samples": draw(st.integers(2, 60)),
        "weights": draw(st.lists(st.floats(0.5, 3.0), min_size=n, max_size=n)),
    }
    heights = sorted({p[a]["h"] for p in explicit_points for a in "xy"} - {1.0})
    overrides = {
        "order": draw(st.one_of(st.none(), st.integers(2, min(10, n)))),
        "alpha": draw(st.one_of(st.none(), _alphas, *([st.sampled_from(heights)] if heights else []))),
        "samples": draw(st.one_of(st.none(), st.integers(2, 60))),
    }
    return {**fields, "points": given_points}, {**fields, "points": explicit_points}, overrides


def _check(kind, text, doc):
    # The oracle divides alpha by every h, also where alpha > h discards the
    # quotient, and a subnormal h overflows that unused quotient.
    with np.errstate(over="ignore"):
        return oracle.check(kind, text, doc)[0]


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=cases())
def test_cli_output_matches_the_benchmark_oracle(case):
    document, twin, overrides = case
    document = json.dumps(document)
    flags = {name: value for name, value in overrides.items() if value is not None}
    alpha_flag = f" --alpha {flags['alpha']!r}" if "alpha" in flags else ""
    overridden = "".join(f" --{name} {value!r}" for name, value in flags.items())
    solved = {**twin, "alpha": flags.get("alpha", twin["alpha"])}
    assert _check("json", cli_output(f"pipeline {{doc}} --format json{alpha_flag} --out {{out}}", document), solved) == [], "pipeline json"

    rows = list(csv.DictReader(io.StringIO(cli_output(f"pipeline {{doc}} --format csv{alpha_flag} --out {{out}}", document), newline="")))
    got = np.array([[float(r["x"]), float(r["y"])] for r in rows])
    assert [int(r["index"]) for r in rows] == list(range(len(twin["points"])))
    with np.errstate(over="ignore"):
        want = oracle.defuzzified(solved)
    assert np.abs(got - want).max() <= oracle.tolerance(solved), "pipeline csv"

    for command, kind in (("curve", "csv"), ("plot", "svg")):
        assert _check(kind, cli_output(f"{command} {{doc}} --series all{overridden} --out {{out}}", document), {**twin, **flags}) == [], command
