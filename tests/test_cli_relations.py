"""Exact metamorphic relations of the whole CLI, from document to bytes.

The property runs ``t2spline`` in process (``test_boundary.cli_output``) on a
generated document and on transformed copies of it, and compares the bytes
they give, against no second implementation:

- every component times ``2**5``, ``h`` kept: ``curve --series all`` values
  are exactly 32 times the original and ``t`` is byte-identical, ``pipeline``
  JSON values are 32 times the original, and every ``plot`` line but the
  four tick labels is byte-identical;
- every weight times ``2**-3``: the ``curve --series all`` bytes are
  identical;
- ``x`` and ``y`` swapped in every point: the ``curve`` ``_x``/``_y``
  column pairs swap exactly, and so do the ``pipeline`` JSON ``x`` and ``y``.

They hold because a power-of-two factor commutes with rounding while no
value overflows or goes subnormal, a common weight factor cancels exactly,
and x and y never mix.  The documents keep every intermediate value normal
and finite: each component is 0 or has a magnitude in ``[2**-20, 2**20]``,
``h`` and a nonzero ``alpha`` lie in ``[2**-10, 1]``, and each weight lies in
``[2**-4, 2**4]``; orders 2 to 4, up to 6 points and up to 21 samples.
"""

import csv
import io
import json
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from test_boundary import cli_output
from t2spline.fuzzy import COMPONENT_FIELDS, COORD_FIELDS

_component = st.floats(-(2.0**20), 2.0**20).map(lambda v: v if abs(v) >= 2.0**-20 else 0.0)
_height = st.floats(2.0**-10, 1.0)
_weight = st.floats(2.0**-4, 2.0**4)

#: A tick label of a plot axis: the only lines that read the data's scale.
_TICK_LABEL = re.compile(r'<text x="[^"]*" y="[^"]*" text-anchor="(middle|end)" [^>]*>[^<]*</text>')


@st.composite
def documents(draw):
    """A document in the ranges above; its values are drawn one at a time,
    which Hypothesis does faster than in lists."""
    order = draw(st.integers(2, 4))
    n = draw(st.integers(order, order + 2))

    def coordinate():
        components = sorted(draw(_component) for _ in COMPONENT_FIELDS)
        return dict(zip(COORD_FIELDS, [*components, draw(_height)]))

    return {
        "order": order,
        "alpha": draw(st.one_of(st.just(0.0), st.floats(2.0**-10, 1.0, exclude_max=True))),
        "samples": draw(st.integers(2, 21)),
        "weights": [draw(_weight) for _ in range(n)],
        "points": [{"x": coordinate(), "y": coordinate()} for _ in range(n)],
    }


def _output(document: dict, command: str, *options: str) -> str:
    """What ``t2spline <command> <document file> <options>`` writes; the command must succeed."""
    return cli_output(" ".join([command, "{doc}", *options, "--out", "{out}"]), json.dumps(document))


def _columns(table: str) -> dict[str, tuple[str, ...]]:
    """The cells of a CSV table by column name."""
    header, *rows = csv.reader(io.StringIO(table))
    return dict(zip(header, zip(*rows)))


def _pipeline_points(text: str) -> list[tuple[float, float]]:
    return [(p["x"], p["y"]) for p in json.loads(text)["points"]]


def _mapped(document: dict, point) -> dict:
    """``document`` with each point ``p`` replaced by ``point(p)``."""
    return {**document, "points": [point(p) for p in document["points"]]}


def _scaled(coordinate: dict, factor: float) -> dict:
    return {k: v * factor if k in COMPONENT_FIELDS else v for k, v in coordinate.items()}


def _check_component_scaling(document, table, solution, plot):
    """Every component times ``2**5``: values 32 times, ``t`` and the plot
    but its tick labels byte-identical."""
    scaled = _mapped(document, lambda p: {axis: _scaled(p[axis], 2.0**5) for axis in "xy"})
    scaled_table = _columns(_output(scaled, "curve", "--series", "all"))
    assert scaled_table.keys() == table.keys()
    assert scaled_table["t"] == table["t"]
    for name in table.keys() - {"t"}:
        assert [float(v) for v in scaled_table[name]] == [float(v) * 32 for v in table[name]], name

    assert _pipeline_points(_output(scaled, "pipeline")) == [(x * 32, y * 32) for x, y in solution]

    scaled_plot = _output(scaled, "plot").splitlines()
    for lines in (plot, scaled_plot):
        assert sum(map(bool, map(_TICK_LABEL.fullmatch, lines))) == 4
    assert [line for line in scaled_plot if not _TICK_LABEL.fullmatch(line)] == [
        line for line in plot if not _TICK_LABEL.fullmatch(line)
    ]


def _check_weight_scaling(document, curve):
    """Every weight times ``2**-3``: the curve bytes are identical."""
    scaled = {**document, "weights": [w * 2.0**-3 for w in document["weights"]]}
    assert _output(scaled, "curve", "--series", "all") == curve


def _check_swap(document, table, solution):
    """``x`` and ``y`` swapped: the curve column pairs and the solution swap."""
    swapped = _mapped(document, lambda p: {"x": p["y"], "y": p["x"]})
    swapped_table = _columns(_output(swapped, "curve", "--series", "all"))
    assert swapped_table.keys() == table.keys()
    for name, cells in table.items():
        partner = re.sub(r"_(x|y)$", lambda m: "_y" if m[1] == "x" else "_x", name)
        assert swapped_table[partner] == cells, name

    assert _pipeline_points(_output(swapped, "pipeline")) == [(y, x) for x, y in solution]


@settings(deadline=None)
@given(document=documents())
def test_power_of_two_scaling_and_swapping_x_and_y_are_exact(document):
    """The three relations on one drawn document: drawing it costs about as
    much as running its commands, so the relations share it."""
    curve = _output(document, "curve", "--series", "all")
    table = _columns(curve)
    solution = _pipeline_points(_output(document, "pipeline"))
    _check_component_scaling(document, table, solution, _output(document, "plot").splitlines())
    _check_weight_scaling(document, curve)
    _check_swap(document, table, solution)
