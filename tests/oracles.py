"""References for the tests, sharing no code with the kernels they check.

Lattice paths, against ``shzeta.lgv``: a path is the tuple of its points,
enumerated here with itertools over the positions of its weighted steps;
two paths meet when their point sets do.  Weights follow the model's
definition edge by edge, in ``Fraction``s, along the rim walks that
``shapes`` builds.  Only the mask encoding of a path is shared with ``lgv``
(point (x, y) is bit x(top + 1) + y, top the row every path of the grid
ends on), so that the two can be compared.

Constant shapes, against ``schur_eval``: ``constant_shape`` takes the
symmetric-function route in mpmath, with no DP, chain, tail or ``Approx``.

The kernel's own formula, against ``ezzeta.eval_layers``: ``replay_layers``
runs the same head DP and Euler-Maclaurin value in mpmath, so that its
difference from the kernel is the kernel's rounding alone.  It takes the
state graph and the strict steps from the caller and imports no kernel code.
"""

from fractions import Fraction
from functools import cache
from itertools import combinations, permutations, product

import mpmath

from shzeta.shapes import e_rim_decompositions, h_rim_decompositions


def constant_shape(outer, inner, s, y, dps):
    """The series of the skew shape outer/inner (part sequences) with the
    exponent s and the shift y on every cell, to about ``dps`` digits.

    It is the skew Schur function at x_n = (n + y)^(-s), n >= 1
    (Macdonald, ch. I): the power sums p_k = zeta(k s, 1 + y) give the h_k
    by Newton's identities, k h_k = sum_{i=1..k} p_i h_{k-i}, and the value
    is det(h_{outer_i - inner_j - i + j}) (Jacobi-Trudi)."""
    outer = list(outer)
    n, top = len(outer), sum(outer)
    inner = list(inner) + [0] * (n - len(inner))
    with mpmath.workdps(dps):
        s, a = mpmath.mpc(s), 1 + mpmath.mpf(y)
        p = [None] + [mpmath.zeta(k * s, a) for k in range(1, top + 1)]
        h = [mpmath.mpf(1)]
        for k in range(1, top + 1):
            h.append(sum(p[i] * h[k - i] for i in range(1, k + 1)) / k)
        index = [[outer[i] - inner[j] - i + j for j in range(n)] for i in range(n)]
        return complex(mpmath.det(mpmath.matrix(
            [[h[k] if k >= 0 else 0 for k in row] for row in index])))


def grid(shape, n, kind):
    """(starts, ends, top) of the height-n grid: an H path per row of the
    shape, from (t + 1 - i, 1) to (t + 1 - i + lambda_i, n); an E path per
    column, the same for the conjugate's rows, ending on row n + 1."""
    parts = shape.parts if kind == "H" else shape.conjugate().parts
    top = n if kind == "H" else n + 1
    t = len(parts)
    return [(t - i, 1) for i in range(t)], [(t - i + lam, top) for i, lam in enumerate(parts)], top


def paths(start, end, kind):
    """Every path from start to end, as its points: H paths step right or
    up, E paths northeast or up (so an E path rises one row per step)."""
    (x0, y0), (x1, y1) = start, end
    dx, dy = x1 - x0, y1 - y0
    right = (1, 0) if kind == "H" else (1, 1)
    total = dx + dy if kind == "H" else dy
    if dx < 0 or dy < 0 or dx > total:
        return []
    found = []
    for at in combinations(range(total), dx):
        points = [start]
        for k in range(total):
            step = right if k in at else (0, 1)
            points.append((points[-1][0] + step[0], points[-1][1] + step[1]))
        found.append(tuple(points))
    return found


def patterns(shape, n, kind):
    """Every pattern as (type, paths): types in permutation order, then the
    paths in ``itertools.product`` order of each (start, end) pair's paths."""
    starts, ends, _ = grid(shape, n, kind)
    between = [[paths(a, b, kind) for b in ends] for a in starts]
    for sigma in permutations(range(len(ends))):
        for chosen in product(*(between[i][k] for i, k in enumerate(sigma))):
            yield tuple(k + 1 for k in sigma), chosen


def crossing(chosen):
    return any(set(a) & set(b) for a, b in combinations(chosen, 2))


def masks(chosen, top):
    return tuple(sum(1 << (x * (top + 1) + y) for x, y in path) for path in chosen)


def sign(sigma):
    return (-1) ** sum(a > b for a, b in combinations(sigma, 2))


def tail_swap_oracle(sigma, chosen):
    """Swap tails at the least shared point, between its first two owners."""
    v = min(set().union(*(set(a) & set(b) for a, b in combinations(chosen, 2))))
    i, j = [k for k, path in enumerate(chosen) if v in path][:2]
    cut_i, cut_j = chosen[i].index(v), chosen[j].index(v)
    mate, swapped = list(chosen), list(sigma)
    mate[i] = chosen[i][:cut_i] + chosen[j][cut_j:]
    mate[j] = chosen[j][:cut_j] + chosen[i][cut_i:]
    swapped[i], swapped[j] = sigma[j], sigma[i]
    return tuple(swapped), tuple(mate)


def rim_walks(shape, kind):
    """The ribbon walks of each rim decomposition, by its type."""
    build = h_rim_decompositions if kind == "H" else e_rim_decompositions
    return {d.type: d.walks for d in build(shape)}


def edge_weight_oracle(walk, path, s, x):
    """A path's weight along a rim walk: its k-th right (H) or northeast (E)
    edge, leaving row j, gives 1/(j + x_c)^s_c for the k-th cell c of the walk."""
    rows = [p[1] for p, q in zip(path, path[1:]) if q[0] > p[0]]
    assert len(rows) == len(walk)
    weight = Fraction(1)
    for j, cell in zip(rows, walk):
        weight /= (j + Fraction(x[cell])) ** s[cell]
    return weight


def weights(shape, n, s, x, kind):
    """Every pattern's weight by (type, paths): path i read along walk i of
    the rim decomposition of the pattern's type."""
    walks = rim_walks(shape, kind)
    along = cache(lambda walk, path: edge_weight_oracle(walk, path, s, x))
    found = {}
    for sigma, chosen in patterns(shape, n, kind):
        weight = Fraction(1)
        for walk, path in zip(walks[sigma], chosen, strict=True):
            weight *= along(walk, path)
        found[sigma, chosen] = weight
    return found


def cancellation_report(shape, n, s, x, kind):
    """The fields of a cancellation report after shape, n and kind, pattern
    by pattern: the pattern count, the nonintersecting count, the signed
    total, the nonintersecting total, the intersecting signed total, and
    whether each intersecting pattern's mate swaps back to it, has the
    opposite sign and is enumerated with the same weight."""
    weight = weights(shape, n, s, x, kind)
    free = [p for p in weight if not crossing(p[1])]
    meeting = [p for p in weight if crossing(p[1])]
    involution = True
    for p in meeting:
        q = tail_swap_oracle(*p)
        involution &= tail_swap_oracle(*q) == p and sign(q[0]) == -sign(p[0])
        involution &= weight.get(q) == weight[p]
    return (
        len(weight), len(free),
        sum((sign(p[0]) * w for p, w in weight.items()), Fraction(0)),
        sum((weight[p] for p in free), Fraction(0)),
        sum((sign(p[0]) * weight[p] for p in meeting), Fraction(0)),
        involution,
    )


def replay_layers(layers, steps, s, y, cutoff, first_min, dps=40):
    """``eval_layers``' value in mpmath: the sum over the P-partitions with
    every entry <= cutoff M, from the same state graph (``layers``, a state
    per (ideal, last cell) with its predecessors and strict flags) and least
    entries (first_min + ``steps[c]``), plus per corner d the Euler-Maclaurin
    value C (b^(1-s_d) / (s_d - 1) + b^(-s_d) / 2), b = M + 1 + y_d, of the
    outer tail on the inner sums C frozen at M.  Every Re s must be > 1."""
    with mpmath.workdps(dps):
        m = cutoff

        def exponent(v):
            v = complex(v)
            return mpmath.mpf(v.real) if v.imag == 0 else mpmath.mpc(v)

        @cache
        def powers(sc, yc):  # 0 at a base <= 0, which no sum reads
            bases = [n + mpmath.mpf(yc) for n in range(m + 1)]
            return [mpmath.power(b, -exponent(sc)) if b > 0 else 0 for b in bases]

        cums = [[mpmath.mpf(1)] * (m + 1)]  # the empty ideal
        prefix = [mpmath.mpf(1)]
        for layer in layers:
            prefix = [sum(cums[p][m] for p, _ in preds) for _, preds in layer]
            arrays = []
            for c, preds in layer:
                t, lo = powers(s[c], y[c]), first_min + steps[c]
                a = [0] * (m + 1)
                for n in range(lo, m + 1):
                    a[n] = t[n] * sum(cums[p][n - strict] for p, strict in preds if n >= strict)
                arrays.append(a)
            cums = []
            for a in arrays:
                run, cum = 0, []
                for v in a:
                    run += v
                    cum.append(run)
                cums.append(cum)
        total = sum(c[m] for c in cums)
        for (d, _), c in zip(layers[-1], prefix):
            sd, b = exponent(s[d]), m + 1 + mpmath.mpf(y[d])
            total += c * (mpmath.power(b, 1 - sd) / (sd - 1) + mpmath.power(b, -sd) / 2)
        return complex(total)
