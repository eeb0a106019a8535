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

Everything here is exact (``fractions.Fraction``) for integer exponents and
rational shifts, so the cancellation lemma and the truncated-series identity
can be asserted with zero tolerance.
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
from .tableaux import Tableau, int_exponent, is_diagonal_constant

Point = tuple[int, int]


@dataclass(frozen=True)
class LatticePath:
    """A monotone path given by its start point and step letters.

    Steps are "R" (right), "U" (up), or "NE" (diagonal up-right).  The
    vertices are computed once, as a tuple in step order and as a set.
    """

    start: Point
    steps: tuple[str, ...]
    _points: tuple[Point, ...] = field(init=False, repr=False, compare=False)
    _vertex_set: frozenset[Point] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        x, y = self.start
        pts = [(x, y)]
        for s in self.steps:
            if s == "R":
                x += 1
            elif s == "U":
                y += 1
            elif s == "NE":
                x += 1
                y += 1
            else:
                raise UsageError(f"unknown step {s!r}")
            pts.append((x, y))
        object.__setattr__(self, "_points", tuple(pts))
        object.__setattr__(self, "_vertex_set", frozenset(pts))

    def points(self) -> tuple[Point, ...]:
        return self._points


@dataclass(frozen=True)
class Pattern:
    """A tuple of paths realizing some endpoint permutation."""

    shape: Partition
    n: int
    kind: str  # "H" or "E"
    paths: tuple[LatticePath, ...]
    type: tuple[int, ...]  # sigma as (sigma(1), ..., sigma(t)), 1-indexed

    @property
    def sign(self) -> int:
        return perm_sign(self.type)

    def is_nonintersecting(self) -> bool:
        seen: set[Point] = set()
        for p in self.paths:
            if not seen.isdisjoint(p._vertex_set):
                return False
            seen |= p._vertex_set
        return True


def _endpoints(shape: Partition, n: int, kind: str) -> tuple[list[Point], list[Point]]:
    if kind == "H":
        t = shape.rows
        starts = [(t + 1 - i, 1) for i in range(1, t + 1)]
        ends = [(t + 1 - i + shape.part(i), n) for i in range(1, t + 1)]
    elif kind == "E":
        conj = shape.conjugate()
        t = conj.rows
        starts = [(t + 1 - i, 1) for i in range(1, t + 1)]
        ends = [(t + 1 - i + conj.part(i), n + 1) for i in range(1, t + 1)]
    else:
        raise UsageError("kind must be 'H' or 'E'")
    return starts, ends


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


def count_patterns(shape: Partition, n: int, kind: str) -> int:
    starts, ends = _endpoints(shape, n, kind)
    total = 0
    for perm in itertools.permutations(ends):
        ways = 1
        for a, b in zip(starts, perm):
            counts = _steps(a, b, kind)
            if counts is None:
                break
            ways *= comb(*counts)
        else:
            total += ways
    return total


def enumerate_patterns(
    shape: Partition, n: int, kind: str = "H"
) -> Iterator[Pattern]:
    """Every pattern of the given kind on the height-``n`` grid."""
    if count_patterns(shape, n, kind) > 10**6:
        raise UsageError("pattern count exceeds the enumeration cap (10^6)")
    starts, ends = _endpoints(shape, n, kind)
    t = len(starts)
    for sigma in itertools.permutations(range(t)):
        choices = [
            list(_paths_between(starts[i], ends[sigma[i]], kind))
            for i in range(t)
        ]
        if any(not c for c in choices):
            continue
        sigma = tuple(s + 1 for s in sigma)
        for combo in itertools.product(*choices):
            yield Pattern(shape, n, kind, combo, sigma)


def nonintersecting_patterns(
    shape: Partition, n: int, kind: str = "H"
) -> Iterator[Pattern]:
    for pat in enumerate_patterns(shape, n, kind):
        if pat.is_nonintersecting():
            yield pat


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


def _pattern_weigher(s: Tableau, x: Tableau) -> Callable[[Pattern], Fraction]:
    """Exact pattern weights for one set of exponents and shifts, weighing
    each (ribbon walk, path) pair once; the memo dies with the weigher."""
    memo: dict[tuple[tuple[Cell, ...], LatticePath], Fraction] = {}

    def path_weight(i: int, walk: tuple, path: LatticePath, kind: str) -> Fraction:
        letter = "R" if kind == "H" else "NE"
        # The row of an edge is the y of the vertex it leaves.
        rows = [y for (_, y), step in zip(path.points(), path.steps) if step == letter]
        if len(rows) != len(walk):
            raise UsageError(
                f"path {i} has {len(rows)} weighted edges but ribbon has "
                f"{len(walk)} cells"
            )
        w = Fraction(1)
        for j, cell in zip(rows, walk):
            w /= (j + Fraction(x[cell])) ** int_exponent(s[cell])
        return w

    def weigh(pat: Pattern) -> Fraction:
        walks = rim_for_type(pat.shape, pat.type, pat.kind).walks
        weight = None
        for i, key in enumerate(zip(walks, pat.paths), start=1):
            w = memo.get(key)
            if w is None:
                w = memo[key] = path_weight(i, *key, pat.kind)
            weight = w if weight is None else weight * w
        return Fraction(1) if weight is None else weight

    return weigh


def pattern_weight(pat: Pattern, s: Tableau, x: Tableau) -> Fraction:
    """Exact weight of a pattern for integer exponents and rational shifts:
    the product of its path weights.  ``verify_cancellation`` and
    ``truncated_schur_via_paths`` share one weigher over all their patterns
    instead of calling this per pattern."""
    return _pattern_weigher(s, x)(pat)


def truncated_schur_via_paths(
    shape: Partition, n: int, s: Tableau, x: Tableau, kind: str = "H"
) -> Fraction:
    """Height-``n`` truncation of the tableau series, via nonintersecting paths."""
    weigh = _pattern_weigher(s, x)
    return sum(
        (weigh(p) for p in nonintersecting_patterns(shape, n, kind)),
        Fraction(0),
    )


# ---------------------------------------------------------------------------
# Cancellation


def tail_swap(pat: Pattern) -> Pattern:
    """The standard sign-reversing involution on intersecting patterns.

    Swap the tails of the two smallest-indexed paths through the
    lexicographically smallest shared vertex.  One pass over the paths in
    index order finds all three: the first path met at a vertex is its
    smallest-indexed owner, and the next one met there is the second.
    """
    owner: dict[Point, int] = {}
    meet = None  # (vertex, i, j)
    for k, path in enumerate(pat.paths):
        for v in path.points():
            first = owner.setdefault(v, k)
            if first != k and (meet is None or v < meet[0]):
                meet = (v, first, k)
    if meet is None:
        raise UsageError("pattern is nonintersecting")
    v, i, j = meet

    def split(k: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
        idx = pat.paths[k].points().index(v)
        return pat.paths[k].steps[:idx], pat.paths[k].steps[idx:]

    head_i, tail_i = split(i)
    head_j, tail_j = split(j)
    new_paths = list(pat.paths)
    new_paths[i] = LatticePath(pat.paths[i].start, head_i + tail_j)
    new_paths[j] = LatticePath(pat.paths[j].start, head_j + tail_i)
    new_type = list(pat.type)
    new_type[i], new_type[j] = new_type[j], new_type[i]
    return Pattern(pat.shape, pat.n, pat.kind, tuple(new_paths), tuple(new_type))


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
    """Check that intersecting patterns cancel in signed pairs, exactly."""
    if not (is_diagonal_constant(s) and is_diagonal_constant(x)):
        raise UsageError(
            "the cancellation involution needs diagonal-constant exponents "
            "and shifts"
        )
    weigh = _pattern_weigher(s, x)
    signed = Fraction(0)
    crossing_signed = Fraction(0)
    free_total = Fraction(0)
    count = 0
    free_count = 0
    involution_ok = True
    for pat in enumerate_patterns(shape, n, kind):
        count += 1
        w = weigh(pat)
        sgn = pat.sign
        signed = signed + w if sgn > 0 else signed - w
        if pat.is_nonintersecting():
            free_count += 1
            free_total += w
            continue
        crossing_signed = crossing_signed + w if sgn > 0 else crossing_signed - w
        mate = tail_swap(pat)
        if (
            tail_swap(mate).paths != pat.paths
            or mate.sign != -sgn
            or weigh(mate) != w
        ):
            involution_ok = False
    return CancellationReport(
        shape,
        n,
        kind,
        count,
        free_count,
        signed,
        free_total,
        crossing_signed,
        involution_ok,
    )


# ---------------------------------------------------------------------------
# Text rendering


def render_pattern(pat: Pattern) -> str:
    """A fixed-width grid with each path's vertices marked by its index."""
    pts: dict[Point, str] = {}
    xs = []
    ys = []
    for i, p in enumerate(pat.paths, start=1):
        for v in p.points():
            pts[v] = str(i) if v not in pts else "*"
            xs.append(v[0])
            ys.append(v[1])
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    lines = []
    for y in range(y1, y0 - 1, -1):
        row = "".join(pts.get((x, y), ".").rjust(2) for x in range(x0, x1 + 1))
        lines.append(f"{y:2d} |{row}")
    return "\n".join(lines)
