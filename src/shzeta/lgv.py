"""Lattice-path (Lindstrom-Gessel-Viennot) model in exact rational arithmetic.

H-patterns are tuples of right/up paths, one per row of the shape, from
``a_i = (r+1-i, 1)`` to ``b_{sigma(i)} = (r+1-sigma(i)+lambda_sigma(i), N)``;
E-patterns use northeast/up steps, one path per column of the shape, ending
on row N+1.  The permutation sigma realized by the endpoints is the pattern's
type.  Path weights are assigned through the rim decomposition whose type
matches (``rim_for_type``): the k-th horizontal (resp. northeast) edge of
path i, sitting on row j, contributes 1/(j + x_pq)^(s_pq) where (p, q) is
the k-th cell of that decomposition's walk i, ribbon i in the order its
builder added the cells.  So a pattern's weight is the product of its path
weights.

A path is one int mask of its vertices: point (x, y) is bit x(top+1) + y,
where top is the grid's top row (N for H, N+1 for E), so bit order is the
lexicographic order of points.  A pattern is its type and a tuple of masks,
one per path.  Each grid's paths are computed once, from their step
positions, into a bounded cache (``_grid``): per type with patterns, one
tuple per path index of the (mask, weighted rows) pairs of the paths from
start i to end sigma(i), and each path's end index by its mask.

Everything here is exact for integer exponents and rational shifts, so the
cancellation lemma and the truncated-series identity can be asserted with
zero tolerance.  One call puts every weight over one denominator: its tables
come from ``tableaux.exact_tables`` on the call's own shape (the builder,
shape check and bit cap that ``schurzeta``'s truncations share), integer
numerators over each cell's denominator for every row.  ``pattern_weight``
turns a type's tuples into (mask, weight) lists, each (walk, path) pair
weighed once per call; ``_product`` draws patterns from such lists with a
running OR of the masks, the shared bits and the weight product; and
``tail_swap`` is two mask operations.  Weights are ints, compared with
``==`` and added into int totals (as in ``schurzeta``'s exact truncations).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, prod
from typing import Iterator

from .errors import UsageError
from .shapes import (
    Cell,
    Partition,
    RimDecomposition,
    e_rim_decompositions,
    h_rim_decompositions,
    perm_sign,
)
from .tableaux import Tableau, exact_tables, is_diagonal_constant

Point = tuple[int, int]
_type_sign = lru_cache(maxsize=None)(perm_sign)  # the sign of a pattern type

# The enumeration refuses more patterns than PATTERN_CAP.
PATTERN_CAP = 10**6


def _endpoints(shape: Partition, n: int, kind: str) -> tuple[list[Point], list[Point]]:
    if kind not in ("H", "E"):
        raise UsageError("kind must be 'H' or 'E'")
    rows, top = (shape, n) if kind == "H" else (shape.conjugate(), n + 1)
    t = rows.rows
    starts = [(t + 1 - i, 1) for i in range(1, t + 1)]
    return starts, [(t + 1 - i + rows.part(i), top) for i in range(1, t + 1)]


def _steps(start: Point, end: Point, kind: str) -> tuple[int, int] | None:
    """(steps, weighted steps) of every path from start to end, or None if
    there is none.  An H path takes dx right steps among dx + dy; an E path
    rises one row per step, dx of its dy steps northeast."""
    dx = end[0] - start[0]
    dy = end[1] - start[1]
    if kind == "H":
        return (dx + dy, dx) if dx >= 0 and dy >= 0 else None
    return (dy, dx) if 0 <= dx <= dy else None


def _paths_between(start: Point, end: Point, kind: str) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """(mask, weighted rows) of every path from start to end, in the order
    of its weighted steps' positions: the rows are the y of the vertex each
    right (H) or northeast (E) step leaves."""
    counts = _steps(start, end, kind)
    if counts is None:
        return ()
    total, weighted = counts
    stride, rise = end[1] + 1, int(kind == "E")  # an E path's weighted step also rises
    paths = []
    for positions in itertools.combinations(range(total), weighted):
        (x, y), mask, rows = start, 0, []
        for k in range(total):
            mask |= 1 << (x * stride + y)
            if k in positions:
                rows.append(y)
                x, y = x + 1, y + rise
            else:
                y += 1
        paths.append((mask | 1 << (x * stride + y), tuple(rows)))
    return tuple(paths)


def patterns_by_type(shape: Partition, n: int, kind: str) -> dict[tuple[int, ...], int]:
    """The number of patterns of each type that has any, in permutation
    order: the product of the path counts of the type's (start, end) pairs."""
    starts, ends = _endpoints(shape, n, kind)
    by_type = {}
    for sigma in itertools.permutations(range(len(ends))):
        ways = 1
        for a, k in zip(starts, sigma):
            counts = _steps(a, ends[k], kind)
            if counts is None:
                break
            ways *= comb(*counts)
        else:
            by_type[tuple(k + 1 for k in sigma)] = ways
    return by_type


@lru_cache(maxsize=32)
def _grid(shape: Partition, n: int, kind: str) -> tuple[tuple, dict[int, int]]:
    """The types with patterns, each with one tuple per path index i of the
    (mask, weighted rows) pairs of the paths from start i to end sigma(i);
    and each path's end index by its mask (which holds its start).  Built
    once per grid, within the cap."""
    by_type = patterns_by_type(shape, n, kind)
    if sum(by_type.values()) > PATTERN_CAP:
        raise UsageError("pattern count exceeds the enumeration cap (10^6)")
    starts, ends = _endpoints(shape, n, kind)
    between = [[_paths_between(a, b, kind) for b in ends] for a in starts]
    end_of = {m: k for row in between for k, ps in enumerate(row, 1) for m, _ in ps}
    return tuple((sigma, [row[k - 1] for row, k in zip(between, sigma)]) for sigma in by_type), end_of


def _product(lists: list, free: bool) -> Iterator[tuple[tuple[int, ...], int, int]]:
    """One (mask, weight) pair from each list, in ``itertools.product`` order,
    as (masks, shared bits, weight product), from a running OR of the masks.
    With ``free``, a choice stops growing at its first shared bit."""
    last = len(lists) - 1

    def grow(k: int, masks: tuple, seen: int, shared: int, weight: int) -> Iterator:
        for m, w in lists[k]:
            meet = seen & m
            if free and meet:
                continue
            if k == last:
                yield (*masks, m), shared | meet, weight * w
            else:
                yield from grow(k + 1, (*masks, m), seen | m, shared | meet, weight * w)

    return grow(0, (), 0, 0, 1) if lists else iter([((), 0, 1)])


def enumerate_patterns(
    shape: Partition, n: int, kind: str = "H", free: bool = False
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every pattern of the height-``n`` grid as (type, masks), type by type
    in permutation order; with ``free``, only the nonintersecting ones (the
    product is pruned, not filtered)."""
    for sigma, choices in _grid(shape, n, kind)[0]:
        for masks, _, _ in _product([[(m, 1) for m, _ in ps] for ps in choices], free):
            yield sigma, masks


# ---------------------------------------------------------------------------
# Rim decompositions <-> types


@lru_cache(maxsize=None)
def _decomps_by_type(
    shape: Partition, kind: str
) -> dict[tuple[int, ...], RimDecomposition]:
    build = h_rim_decompositions if kind == "H" else e_rim_decompositions
    return {d.type: d for d in build(shape)}


def rim_for_type(
    shape: Partition, sigma: tuple[int, ...], kind: str
) -> RimDecomposition:
    """The rim decomposition of the given kind whose type is sigma."""
    found = _decomps_by_type(shape, kind).get(tuple(sigma))
    if found is None:
        raise UsageError(f"{sigma} is not the type of a {kind}-rim decomposition")
    return found


# ---------------------------------------------------------------------------
# Weights


def _path_weight(i: int, rows: tuple[int, ...], walk: tuple[Cell, ...], tables: dict) -> int:
    """The int numerator of path i's weight: the weighted edge on row j,
    read against cell c of the walk, takes c's table entry at m = j.  A
    path whose weighted edges do not match the walk's cells is refused."""
    if len(rows) != len(walk):
        raise UsageError(f"path {i} has {len(rows)} weighted edges but ribbon has {len(walk)} cells")
    return prod(tables[cell][j] for j, cell in zip(rows, walk))


def pattern_weight(shape: Partition, kind: str, sigma: tuple[int, ...], choices: list, tables: dict) -> list:
    """Per path index i, the (mask, weight) pairs of a ``_grid`` type: each
    path read along walk i of the type's rim decomposition, once per call.
    A pattern's weight is the product of one weight from each list."""
    walks = rim_for_type(shape, sigma, kind).walks
    return [[(m, _path_weight(i, rows, walk, tables)) for m, rows in paths]
            for i, (walk, paths) in enumerate(zip(walks, choices), start=1)]


def truncated_schur_via_paths(
    shape: Partition, n: int, s: Tableau, x: Tableau, kind: str = "H"
) -> Fraction:
    """Height-``n`` truncation of the tableau series, via nonintersecting
    paths: int numerators over one denominator.  Most types have no
    nonintersecting pattern, so a type is weighed once its masks give one."""
    tables, den = exact_tables(shape, s, x, n)
    total = 0
    for sigma, choices in _grid(shape, n, kind)[0]:
        if next(_product([[(m, 1) for m, _ in ps] for ps in choices], free=True), None):
            total += sum(w for _, _, w in _product(pattern_weight(shape, kind, sigma, choices, tables), free=True))
    return Fraction(total, den)


# ---------------------------------------------------------------------------
# Cancellation


def shared_vertices(masks: tuple[int, ...]) -> int:
    """The union of the pairwise ANDs of the masks: the shared vertices."""
    seen = shared = 0
    for m in masks:
        shared |= seen & m
        seen |= m
    return shared


def tail_swap(masks: tuple[int, ...]) -> tuple[int, ...]:
    """The standard sign-reversing involution on intersecting patterns.

    The two smallest-indexed paths through the lexicographically smallest
    shared vertex, the lowest shared bit v, trade their tails: their bits
    from v on, as (a & (v-1)) | (b & ~(v-1)).  The swap keeps each path's
    start; the new masks' ends give the mate's type (``_type_of``).
    """
    shared = shared_vertices(masks)
    if not shared:
        raise UsageError("pattern is nonintersecting")
    v = shared & -shared
    i, j = [k for k, m in enumerate(masks) if m & v][:2]
    below, mate = v - 1, list(masks)
    mate[i] = (masks[i] & below) | (masks[j] & ~below)
    mate[j] = (masks[j] & below) | (masks[i] & ~below)
    return tuple(mate)


def _type_of(masks: tuple[int, ...], end_of: dict[int, int]) -> tuple[int, ...]:
    """The type of a swapped pattern, from its paths' ends; a mask that is
    no path of the grid is a ``UsageError`` naming its index."""
    sigma = tuple(end_of.get(m) for m in masks)
    if None in sigma:
        raise UsageError(f"swapped path {sigma.index(None) + 1} is not a path of the grid")
    return sigma


@dataclass(frozen=True)
class CancellationReport:
    shape: Partition
    n: int
    kind: str
    total_patterns: int
    nonintersecting: int
    signed_total: Fraction
    nonintersecting_total: Fraction
    intersecting_signed_total: Fraction
    involution_verified: bool

    @property
    def passes(self) -> bool:
        return (
            self.intersecting_signed_total == 0
            and self.signed_total == self.nonintersecting_total
            and self.involution_verified
        )


def verify_cancellation(
    shape: Partition, n: int, s: Tableau, x: Tableau, kind: str = "H"
) -> CancellationReport:
    """Check that intersecting patterns cancel in signed pairs, exactly.

    A pair is checked from its first-enumerated member: both swapped masks
    are grid paths, swapping the mate gives the pattern back, the mate's
    type (from its ends) has the opposite sign and, when enumerated, the
    same weight.  No mate may be left unenumerated at the end.
    """
    if not (is_diagonal_constant(s) and is_diagonal_constant(x)):
        raise UsageError("the cancellation involution needs diagonal-constant exponents and shifts")
    tables, den = exact_tables(shape, s, x, n)
    types, end_of = _grid(shape, n, kind)
    # Numerators over den: signed over all and over intersecting patterns,
    # and summed over nonintersecting ones; pending maps a mate's masks to
    # its partner's weight (masks hold starts, which the swap keeps).
    signed = crossing = free = 0
    pending: dict[tuple[int, ...], int] = {}
    count, nfree, involution_ok = 0, 0, True
    for sigma, choices in types:
        sgn = _type_sign(sigma)
        for masks, shared, w in _product(pattern_weight(shape, kind, sigma, choices, tables), free=False):
            count += 1
            signed += sgn * w
            if not shared:
                nfree += 1
                free += w
                continue
            crossing += sgn * w
            partner = pending.pop(masks, None)
            if partner is None:
                # The grid lookup comes first, so it runs for every mate.
                mate = tail_swap(masks)
                involution_ok &= _type_sign(_type_of(mate, end_of)) == -sgn and tail_swap(mate) == masks
                pending[mate] = w
            elif partner != w:
                involution_ok = False
    return CancellationReport(
        shape, n, kind, count, nfree, Fraction(signed, den), Fraction(free, den),
        Fraction(crossing, den), involution_ok and not pending,
    )


# ---------------------------------------------------------------------------
# Text rendering


def render_pattern(masks: tuple[int, ...], top: int) -> str:
    """A fixed-width grid with each path's vertices marked by its index (a
    vertex of two paths by ``*``); ``top`` is the grid's top row, so bit b
    is point (b // (top + 1), b % (top + 1)).  No path draws ``""``."""
    pts: dict[Point, str] = {}
    for i, m in enumerate(masks, start=1):
        while m:
            v = divmod((m & -m).bit_length() - 1, top + 1)
            pts[v] = str(i) if v not in pts else "*"
            m &= m - 1
    if not pts:
        return ""
    x0, x1 = min(x for x, _ in pts), max(x for x, _ in pts)
    y0, y1 = min(y for _, y in pts), max(y for _, y in pts)
    lines = []
    for y in range(y1, y0 - 1, -1):
        row = "".join(pts.get((x, y), ".").rjust(2) for x in range(x0, x1 + 1))
        lines.append(f"{y:2d} |{row}")
    return "\n".join(lines)
