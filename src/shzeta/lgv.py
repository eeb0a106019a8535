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
weights, and one call weighs each (walk, path) pair once.

Everything here is exact for integer exponents and rational shifts, so the
cancellation lemma and the truncated-series identity can be asserted with
zero tolerance.  One call puts every weight over one denominator: its tables
come from ``tableaux.exact_tables`` (the builder, shape check and bit cap
that ``schurzeta``'s truncations share), integer numerators over each cell's
denominator for every row, and every pattern reads each cell once; a pattern
whose cells are not the tables' is refused.  So weights are ints, compared
with ``==`` and added into int totals (as in ``schurzeta``'s exact
truncations).  A path's vertices are one int mask.  A grid's paths between
each (start, end) pair are built once, into a table shared by calls
(``_grid``, bounded); pruning to nonintersecting patterns ANDs masks, the
cancellation checks each intersecting pair once, and a tail swap looks its
two new paths up in the table by mask.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Callable, Iterator

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
_MOVES = {"R": (1, 0), "U": (0, 1), "NE": (1, 1)}  # step letter -> (dx, dy)


@dataclass(frozen=True)
class LatticePath:
    """A monotone path given by its start point and step letters.

    Steps are "R" (right), "U" (up), or "NE" (diagonal up-right).  The
    vertices are one int, ``_mask``: point (x, y) is bit x(h+1) + y, where h
    is the row the path ends on (every path of a grid ends on its top row).
    Bit order is the lexicographic order of points.
    """

    start: Point
    steps: tuple[str, ...]
    _mask: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if min(self.start) < 0:
            raise UsageError(f"path starts at {self.start}, off the quadrant x, y >= 0")
        pts = self.points()
        stride = pts[-1][1] + 1
        object.__setattr__(self, "_mask", sum(1 << (x * stride + y) for x, y in pts))

    def points(self) -> tuple[Point, ...]:
        """The vertices in step order, walked from the start."""
        x, y = self.start
        pts = [(x, y)]
        for s in self.steps:
            if s not in _MOVES:
                raise UsageError(f"unknown step {s!r}")
            x, y = x + _MOVES[s][0], y + _MOVES[s][1]
            pts.append((x, y))
        return tuple(pts)


@dataclass(frozen=True)
class Pattern:
    """A tuple of paths realizing some endpoint permutation.  The paths end
    on the grid's top row, as enumerated ones do: masks compare only then."""

    shape: Partition
    n: int
    kind: str  # "H" or "E"
    paths: tuple[LatticePath, ...]
    type: tuple[int, ...]  # sigma as (sigma(1), ..., sigma(t)), 1-indexed

    @property
    def sign(self) -> int:
        return _type_sign(self.type)

    def is_nonintersecting(self) -> bool:
        seen = 0
        for p in self.paths:
            if seen & p._mask:
                return False
            seen |= p._mask
        return True


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


def _paths_between(start: Point, end: Point, kind: str) -> Iterator[LatticePath]:
    counts = _steps(start, end, kind)
    if counts is None:
        return
    total, weighted = counts
    letter = "R" if kind == "H" else "NE"
    for positions in itertools.combinations(range(total), weighted):
        steps = ["U"] * total
        for p in positions:
            steps[p] = letter
        yield LatticePath(start, tuple(steps))


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


def count_patterns(shape: Partition, n: int, kind: str) -> int:
    return sum(patterns_by_type(shape, n, kind).values())


@lru_cache(maxsize=32)
def _grid(shape: Partition, n: int, kind: str) -> tuple[tuple, dict[int, LatticePath]]:
    """The paths between each (start, end) pair of the grid, and every path
    by its mask (which holds its start); built once per grid, within the cap."""
    if count_patterns(shape, n, kind) > PATTERN_CAP:
        raise UsageError("pattern count exceeds the enumeration cap (10^6)")
    starts, ends = _endpoints(shape, n, kind)
    between = tuple(tuple(tuple(_paths_between(a, b, kind)) for b in ends) for a in starts)
    return between, {p._mask: p for row in between for paths in row for p in paths}


def _patterns(shape: Partition, n: int, kind: str, free: bool) -> Iterator[Pattern]:
    """Patterns type by type, in permutation order, from the grid's paths
    between each (start, end) pair; only nonintersecting ones if free."""
    between, _ = _grid(shape, n, kind)
    for sigma in itertools.permutations(range(len(between))):
        choices = [row[k] for row, k in zip(between, sigma)]
        if all(choices):
            sigma = tuple(k + 1 for k in sigma)
            for combo in _disjoint(choices) if free else itertools.product(*choices):
                yield Pattern(shape, n, kind, combo, sigma)


def _disjoint(choices: list, seen: int = 0) -> Iterator[tuple]:
    """One path from each list, pairwise disjoint and off the mask ``seen``,
    in ``itertools.product`` order: a choice stops growing at its first meeting."""
    if not choices:
        yield ()
        return
    for path in choices[0]:
        if not seen & path._mask:
            for rest in _disjoint(choices[1:], seen | path._mask):
                yield (path, *rest)


def enumerate_patterns(shape: Partition, n: int, kind: str = "H") -> Iterator[Pattern]:
    """Every pattern of the given kind on the height-``n`` grid."""
    yield from _patterns(shape, n, kind, free=False)


def nonintersecting_patterns(
    shape: Partition, n: int, kind: str = "H"
) -> Iterator[Pattern]:
    """The nonintersecting patterns, in ``enumerate_patterns`` order."""
    yield from _patterns(shape, n, kind, free=True)


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


def _pattern_weigher(s: Tableau, x: Tableau, n: int) -> tuple[Callable[[Pattern], int], int]:
    """Exact pattern weights on the height-``n`` grid, as ``(weigh, den)``:
    a pattern's weight is the int ``weigh(pat)`` over the one denominator
    ``den``.  The tables are ``exact_tables``'s on the tableaux' own shape,
    every row 1..n built before any pattern is weighed; the weighted edge of
    a path on row j, read against cell c of its walk, takes c's numerator at
    m = j.  The walks of a pattern cover every cell once, so ``den`` is the
    product of the cells' denominators.

    The memo holds, per pattern kind and type, that type's walks and one
    dict per path index from a path's mask to its weight (the index fixes
    the start), so each (walk, path) pair is weighed once; the memo dies with
    the weigher.  A pattern whose shape's cells are not the tables' is
    refused when its type first reaches the memo.
    """
    tables, den = exact_tables(s.shape, s, x, n)
    memo: dict[tuple, tuple[tuple, list[dict[int, int]]]] = {}

    def path_weight(i: int, walk: tuple, path: LatticePath, kind: str) -> int:
        letter = "R" if kind == "H" else "NE"
        # The row of an edge is the y of the vertex it leaves.
        rows = [y for (_, y), step in zip(path.points(), path.steps) if step == letter]
        if len(rows) != len(walk):
            raise UsageError(
                f"path {i} has {len(rows)} weighted edges but ribbon has "
                f"{len(walk)} cells"
            )
        w = 1
        for j, cell in zip(rows, walk):
            w *= tables[cell][j]
        return w

    def weigh(pat: Pattern) -> int:
        key = pat.kind, pat.type
        found = memo.get(key)
        if found is None:
            if tables.keys() != set(pat.shape.cells()):
                raise UsageError("exponent/shift tableaux must match the shape")
            walks = rim_for_type(pat.shape, pat.type, pat.kind).walks
            found = memo[key] = (walks, [{} for _ in walks])
        total = 1
        for i, (walk, weights, path) in enumerate(zip(*found, pat.paths), start=1):
            w = weights.get(path._mask)
            if w is None:
                w = weights[path._mask] = path_weight(i, walk, path, pat.kind)
            total *= w
        return total

    return weigh, den


def pattern_weight(pat: Pattern, s: Tableau, x: Tableau) -> Fraction:
    """Exact weight of a pattern for integer exponents and rational shifts:
    the product of its path weights, as one ``Fraction``.
    ``verify_cancellation`` and ``truncated_schur_via_paths`` share one
    weigher over all their patterns and add its int numerators instead of
    calling this per pattern."""
    weigh, den = _pattern_weigher(s, x, pat.n)
    return Fraction(weigh(pat), den)


def truncated_schur_via_paths(
    shape: Partition, n: int, s: Tableau, x: Tableau, kind: str = "H"
) -> Fraction:
    """Height-``n`` truncation of the tableau series, via nonintersecting
    paths: the patterns' int numerators are added over one denominator."""
    weigh, den = _pattern_weigher(s, x, n)
    return Fraction(sum(map(weigh, nonintersecting_patterns(shape, n, kind))), den)


# ---------------------------------------------------------------------------
# Cancellation


def tail_swap(pat: Pattern) -> Pattern:
    """The standard sign-reversing involution on intersecting patterns.

    Swap the tails of the two smallest-indexed paths through the
    lexicographically smallest shared vertex v, the lowest bit of the union
    of the pairwise ANDs of the paths' masks.  A new path keeps its own
    vertices below v and takes the other's from v on, so its mask is
    (a & (v-1)) | (b & ~(v-1)), looked up among the grid's paths: no path is
    built.  A new path that is no path of the grid (a hand-built pattern may
    leave it) is a ``UsageError`` naming its index.
    """
    masks = [p._mask for p in pat.paths]
    seen = shared = 0
    for m in masks:
        shared |= seen & m
        seen |= m
    if not shared:
        raise UsageError("pattern is nonintersecting")
    v = shared & -shared
    i, j = [k for k, m in enumerate(masks) if m & v][:2]
    below = v - 1
    _, by_mask = _grid(pat.shape, pat.n, pat.kind)
    paths, sigma = list(pat.paths), list(pat.type)
    for k, head, tail in ((i, masks[i], masks[j]), (j, masks[j], masks[i])):
        paths[k] = by_mask.get((head & below) | (tail & ~below))
        if paths[k] is None:
            raise UsageError(f"swapped path {k + 1} is not a path of the grid")
    sigma[i], sigma[j] = sigma[j], sigma[i]
    return Pattern(pat.shape, pat.n, pat.kind, tuple(paths), tuple(sigma))


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

    A pair is checked from its first-enumerated member: swapping the mate's
    tails gives it back, the mate has the opposite sign and, when enumerated,
    the same weight.  No mate may be left unenumerated at the end.
    """
    if not (is_diagonal_constant(s) and is_diagonal_constant(x)):
        raise UsageError(
            "the cancellation involution needs diagonal-constant exponents "
            "and shifts"
        )
    weigh, den = _pattern_weigher(s, x, n)
    # Weight numerators over den: signed over all patterns and over the
    # intersecting ones, and summed over the nonintersecting ones.
    signed = crossing = free = 0
    # A mate's path masks -> its partner's weight (a mask holds the path's
    # start, and ``tail_swap`` keeps starts).
    pending: dict[tuple[int, ...], int] = {}
    count, nfree, involution_ok = 0, 0, True
    for pat in enumerate_patterns(shape, n, kind):
        count += 1
        w = weigh(pat)
        sgn = pat.sign
        signed += sgn * w
        if pat.is_nonintersecting():
            nfree += 1
            free += w
            continue
        crossing += sgn * w
        partner = pending.pop(tuple([p._mask for p in pat.paths]), None)
        if partner is None:
            mate = tail_swap(pat)
            involution_ok &= tail_swap(mate).paths == pat.paths and mate.sign == -sgn
            pending[tuple([p._mask for p in mate.paths])] = w
        elif partner != w:
            involution_ok = False
    return CancellationReport(
        shape, n, kind, count, nfree, Fraction(signed, den), Fraction(free, den),
        Fraction(crossing, den), involution_ok and not pending,
    )


# ---------------------------------------------------------------------------
# Text rendering


def render_pattern(pat: Pattern) -> str:
    """A fixed-width grid with each path's vertices marked by its index."""
    pts: dict[Point, str] = {}
    for i, p in enumerate(pat.paths, start=1):
        for v in p.points():
            pts[v] = str(i) if v not in pts else "*"
    x0, x1 = min(x for x, _ in pts), max(x for x, _ in pts)
    y0, y1 = min(y for _, y in pts), max(y for _, y in pts)
    lines = []
    for y in range(y1, y0 - 1, -1):
        row = "".join(pts.get((x, y), ".").rjust(2) for x in range(x0, x1 + 1))
        lines.append(f"{y:2d} |{row}")
    return "\n".join(lines)
