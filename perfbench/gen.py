"""Seeded model-document generator for the benchmark workloads.

Documents are plain dicts in the explicit JSON layout the ``t2spline`` CLI
reads.  Every abscissa is an integer number of micro-units divided by 1e6,
so the JSON text is short and exact and the component ordering holds by
integer arithmetic.  The properties the workloads depend on are:

* asymmetric spreads: left and right spreads of each coordinate are drawn
  independently;
* weights drawn from [0.5, 3];
* heights ``h`` drawn from [0.5, 1], so at the cut level 0.8 about 40 % of
  the coordinates fall in the ``alpha <= h`` regime and the rest in
  ``alpha > h``.

This module does not import ``t2spline``.
"""

from __future__ import annotations

import json
import random

COMPONENTS = ("ll", "l", "rl", "c", "lr", "r", "rr")
ALPHA = 0.8
WEIGHT_RANGE = (0.5, 3.0)
H_RANGE = (0.5, 1.0)
_MICRO = 1_000_000


def _coordinate(rng: random.Random, c_micro: int) -> dict:
    def side():
        outer = rng.randint(200_000, 1_200_000)
        principal = outer * rng.randint(40, 90) // 100
        inner = principal * rng.randint(30, 90) // 100
        return outer, principal, inner

    lo, lp, li = side()
    ri, rp, ro = side()[::-1]
    micro = (c_micro - lo, c_micro - lp, c_micro - li, c_micro, c_micro + ri, c_micro + rp, c_micro + ro)
    coord = {name: v / _MICRO for name, v in zip(COMPONENTS, micro)}
    coord["h"] = rng.randint(int(H_RANGE[0] * 1000), int(H_RANGE[1] * 1000)) / 1000
    return coord


def make_document(seed: int, points: int, order: int, samples: int) -> dict:
    """One document: ``points`` fuzzy control points along a wandering path."""
    rng = random.Random(seed)
    y = 0
    pts = []
    for i in range(points):
        x = i * 1_500_000 + rng.randint(-300_000, 300_000)
        y += rng.randint(-2_000_000, 2_000_000)
        pts.append({"x": _coordinate(rng, x), "y": _coordinate(rng, y)})
    weights = [rng.randint(int(WEIGHT_RANGE[0] * 1000), int(WEIGHT_RANGE[1] * 1000)) / 1000 for _ in range(points)]
    return {"order": order, "alpha": ALPHA, "samples": samples, "weights": weights, "points": pts}


def make_pool(seed: int, count: int, points: int, order: int, samples: int) -> list[dict]:
    """``count`` documents derived from one workload seed."""
    return [make_document(seed * 1000 + i, points, order, samples) for i in range(count)]


def to_json(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def validate(doc: dict) -> None:
    """Check the invariants the program requires and the generator promises.

    Raises ``ValueError`` on the first violation.
    """
    n = len(doc["points"])
    if not 2 <= doc["order"] <= n:
        raise ValueError(f"order {doc['order']} unusable with {n} points")
    if len(doc["weights"]) != n:
        raise ValueError("one weight per point required")
    if not all(WEIGHT_RANGE[0] <= w <= WEIGHT_RANGE[1] for w in doc["weights"]):
        raise ValueError("weight outside the generator range")
    if not 0.0 <= doc["alpha"] < 1.0 or doc["samples"] < 2:
        raise ValueError("alpha or samples out of range")
    for i, p in enumerate(doc["points"]):
        for axis in ("x", "y"):
            coord = p[axis]
            values = [coord[k] for k in COMPONENTS]
            if any(a > b for a, b in zip(values, values[1:])):
                raise ValueError(f"point {i} {axis}: components out of order")
            if not H_RANGE[0] <= coord["h"] <= H_RANGE[1]:
                raise ValueError(f"point {i} {axis}: h outside the generator range")


def properties(docs: list[dict]) -> dict:
    """Input properties of a document pool, measured from the documents."""
    coords = [p[axis] for d in docs for p in d["points"] for axis in ("x", "y")]
    below = sum(1 for d in docs for p in d["points"] for axis in ("x", "y") if d["alpha"] <= p[axis]["h"])
    asym = [
        abs((c["c"] - c["ll"]) - (c["rr"] - c["c"])) / ((c["c"] - c["ll"]) + (c["rr"] - c["c"]))
        for c in coords
    ]
    first = docs[0]
    return {
        "documents": len(docs),
        "points": len(first["points"]),
        "order": first["order"],
        "samples": first["samples"],
        "alpha": first["alpha"],
        "regime_below_frac": below / len(coords),
        "spread_asymmetry": sum(asym) / len(asym),
        "weight_min": min(w for d in docs for w in d["weights"]),
        "weight_max": max(w for d in docs for w in d["weights"]),
    }
