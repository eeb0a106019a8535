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
zero tolerance.  One call puts every weight over one denominator: each
cell's factors come from ``tableaux.exact_powers`` as integer numerators
over that cell's denominator, for every row, and every pattern reads each
cell once.  So weights are ints, compared with ``==`` and added into int
totals (as in ``schurzeta``'s exact truncations).  A call builds each
(start, end) pair's paths once, finds the nonintersecting patterns by
pruning, and checks each intersecting pair of the cancellation once; a tail
swap joins slices of the two paths instead of walking new ones.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm
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
from .tableaux import (
    Tableau,
    exact_powers,
    int_exponent,
    is_diagonal_constant,
)

Point = tuple[int, int]
_type_sign = lru_cache(maxsize=None)(perm_sign)  # the sign of a pattern type

# The enumeration refuses more patterns than PATTERN_CAP; the weigher refuses,
# before any power, data whose weights could need more bits than WEIGHT_BIT_CAP.
PATTERN_CAP = 10**6
WEIGHT_BIT_CAP = 10**5


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

    def _joined(self, other: LatticePath, cut: int, other_cut: int) -> LatticePath:
        """This path's steps and points before its vertex ``cut``, then
        ``other``'s from its vertex ``other_cut`` on, which must be the same
        point: the path is built from the slices, not walked."""
        points = self._points[:cut] + other._points[other_cut:]
        path = object.__new__(LatticePath)
        object.__setattr__(path, "start", self.start)
        object.__setattr__(path, "steps", self.steps[:cut] + other.steps[other_cut:])
        object.__setattr__(path, "_points", points)
        object.__setattr__(path, "_vertex_set", frozenset(points))
        return path


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
        return _type_sign(self.type)

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


def _patterns(shape: Partition, n: int, kind: str, free: bool) -> Iterator[Pattern]:
    """Patterns type by type, in permutation order, from the paths between
    each (start, end) pair built once; only nonintersecting ones if free."""
    if count_patterns(shape, n, kind) > PATTERN_CAP:
        raise UsageError("pattern count exceeds the enumeration cap (10^6)")
    starts, ends = _endpoints(shape, n, kind)
    between = [[list(_paths_between(a, b, kind)) for b in ends] for a in starts]
    for sigma in itertools.permutations(range(len(starts))):
        choices = [row[k] for row, k in zip(between, sigma)]
        if all(choices):
            sigma = tuple(k + 1 for k in sigma)
            for combo in _disjoint(choices) if free else itertools.product(*choices):
                yield Pattern(shape, n, kind, combo, sigma)


def _disjoint(choices: list, seen: frozenset = frozenset()) -> Iterator[tuple]:
    """One path from each list, pairwise disjoint and off ``seen``, in
    ``itertools.product`` order: a choice stops growing at its first meeting."""
    if not choices:
        yield ()
        return
    for path in choices[0]:
        if seen.isdisjoint(path._vertex_set):
            for rest in _disjoint(choices[1:], seen | path._vertex_set):
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
    ``den``.  Each cell gets its table of integer numerators over its own
    denominator (``exact_powers``), for every row 1..n before any pattern is
    weighed; the weighted edge of a path on row j, read against cell c of
    its walk, takes c's numerator at m = j.  The walks of a pattern cover
    every cell once, so ``den`` is the product of the cells' denominators.

    The memo holds, per pattern kind and type, that type's walks and one
    dict per path index from a path's steps to its weight (the index fixes
    the start), so each (walk, path) pair is weighed once; the memo dies with
    the weigher.
    """
    if n < 1:
        raise UsageError("max_entry must be >= 1")
    cells = {c: (int_exponent(v), *Fraction(x[c]).as_integer_ratio()) for c, v in s.entries.items()}
    # A cell's numerators and denominator have at most |e| times the bits of
    # q and of the lcm of its nonzero bases jq + p.
    bits = 0
    for e, p, q in cells.values():
        common = lcm(*[j * q + p for j in range(1, n + 1) if j * q + p])
        bits += abs(e) * (common.bit_length() + q.bit_length())
    if bits > WEIGHT_BIT_CAP:
        raise UsageError(f"exact weights could need {bits} bits, beyond the cap (10^5)")
    tables, den = {}, 1
    for c, (e, p, q) in cells.items():
        tables[c], d = exact_powers(c, e, p, q, n)
        den *= d
    memo: dict[tuple, tuple[tuple, list[dict[tuple[str, ...], int]]]] = {}

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
            walks = rim_for_type(pat.shape, pat.type, pat.kind).walks
            found = memo[key] = (walks, [{} for _ in walks])
        total = 1
        for i, (walk, weights, path) in enumerate(zip(*found, pat.paths), start=1):
            w = weights.get(path.steps)
            if w is None:
                w = weights[path.steps] = path_weight(i, walk, path, pat.kind)
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
    lexicographically smallest shared vertex v.  That vertex is the least
    of the pairwise intersections of the paths' vertex sets.  Each new path
    joins slices at v: its own steps and points before v, the other path's
    from v on.  So each path keeps its start, and nothing is walked again.
    """
    vsets = [p._vertex_set for p in pat.paths]
    shared = [min(m) for a, b in itertools.combinations(vsets, 2) if (m := a & b)]
    if not shared:
        raise UsageError("pattern is nonintersecting")
    v = min(shared)
    i, j = [k for k, vs in enumerate(vsets) if v in vs][:2]
    paths = list(pat.paths)
    a, b = paths[i], paths[j]
    cut_a, cut_b = a._points.index(v), b._points.index(v)
    paths[i] = a._joined(b, cut_a, cut_b)
    paths[j] = b._joined(a, cut_b, cut_a)
    sigma = list(pat.type)
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
    # A mate's step tuples -> its partner's weight.  Path i starts at a_i in
    # every pattern and mate (``tail_swap`` keeps starts), so the steps name
    # the mate; plain tuples do not keep its vertex sets alive until then.
    pending: dict[tuple[tuple[str, ...], ...], int] = {}
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
        partner = pending.pop(tuple([p.steps for p in pat.paths]), None)
        if partner is None:
            mate = tail_swap(pat)
            involution_ok &= tail_swap(mate).paths == pat.paths and mate.sign == -sgn
            pending[tuple([p.steps for p in mate.paths])] = w
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
