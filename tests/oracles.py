"""Independent brute-force oracles used by the tests.

The quadratic basis polynomials below were expanded by hand from the
order-3 recursion on the clamped knot vector (0, 0, 0, 0.5, 1, 1, 1),
``cox_de_boor`` is the textbook recursive definition of any basis function,
and ``alpha_cut``, ``type_reduce``, ``defuzzify`` and ``pipeline_point`` are
the fuzzy chain written one coordinate at a time in plain float arithmetic;
they deliberately do NOT call the library.
"""


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
