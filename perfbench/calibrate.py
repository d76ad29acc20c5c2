"""Machine-speed calibration for timing on a shared, drifting host.

On a host shared with other tenants the same interpreted work can take 30-60 %
longer for seconds at a time.  The benchmark therefore runs this fixed,
program-independent loop next to every timed operation and scales each
operation's wall time by ``REFERENCE_S / calibration time``: a time reported
in reference-speed seconds is what the operation would take on this
machine when the calibration loop takes ``REFERENCE_S``.

The loop mixes the kinds of work ``t2spline`` does: float arithmetic, dict
stores, Python recursion that indexes a numpy array (a fixed copy of the
recursive Cox-de Boor basis, independent of the program under test), small
numpy products and JSON parsing.  It is never changed by a change to
``t2spline``.
"""

from __future__ import annotations

import json
import time

import numpy as np

#: Typical time of one :func:`calibration` on a 2-vCPU Intel Xeon VM.
REFERENCE_S = 0.020

_KNOTS = np.concatenate([np.zeros(4), np.arange(1, 9) / 9, np.ones(4)])
_TEXT = json.dumps([{"a": i * 0.123, "b": [1.5, 2.5, i]} for i in range(300)])


def _fib(n: int) -> int:
    return n if n < 2 else _fib(n - 1) + _fib(n - 2)


def _basis(knots, i: int, order: int, t: float) -> float:
    if order == 1:
        return 1.0 if knots[i] <= t < knots[i + 1] else 0.0
    total = 0.0
    left = knots[i + order - 1] - knots[i]
    if left > 0.0:
        total += (t - knots[i]) / left * _basis(knots, i, order - 1, t)
    right = knots[i + order] - knots[i + 1]
    if right > 0.0:
        total += (knots[i + order] - t) / right * _basis(knots, i + 1, order - 1, t)
    return total


def calibration() -> float:
    """Run the fixed calibration work once; returns its wall time in seconds."""
    t0 = time.perf_counter()
    acc = 0.0
    table = {}
    for i in range(60000):
        x = i * 0.5
        acc += (x - 3.0) / (x + 1.0)
        table[i & 255] = acc
    _fib(19)
    ones = np.ones(12)
    for t in np.linspace(0.0, 0.999, 12):
        row = np.array([_basis(_KNOTS, i, 4, float(t)) for i in range(12)])
        acc += float((row * _KNOTS[:12]) @ ones)
    for _ in range(5):
        acc += len(json.loads(_TEXT))
    return time.perf_counter() - t0
