"""Partition and skew-shape combinatorics.

Young diagram geometry used throughout the package: conjugation, Frobenius
coordinates, corners, contents, the anti-diagonal ("hash") transpose, and
rim decompositions into ribbons.

Conventions: cells are 1-indexed ``(row, col)`` with rows growing downward,
and the content of a cell is ``col - row``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Mapping, Sequence

Cell = tuple[int, int]


def content(cell: Cell) -> int:
    """Content (diagonal index) of a cell: column minus row."""
    i, j = cell
    return j - i


@dataclass(frozen=True, order=True)
class Partition:
    """A weakly decreasing sequence of positive integers (possibly empty)."""

    parts: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        parts = tuple(int(p) for p in self.parts if p != 0)
        if any(p < 0 for p in parts):
            raise ValueError(f"negative part in {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"parts not weakly decreasing: {parts}")
        object.__setattr__(self, "parts", parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __getitem__(self, i: int) -> int:
        return self.parts[i]

    def part(self, i: int) -> int:
        """Row length ``lambda_i`` for a 1-indexed row, 0 beyond the last row."""
        return self.parts[i - 1] if 1 <= i <= len(self.parts) else 0

    @property
    def size(self) -> int:
        return sum(self.parts)

    @property
    def rows(self) -> int:
        return len(self.parts)

    def cells(self) -> tuple[Cell, ...]:
        """All cells in row-major order."""
        return tuple(
            (i, j)
            for i, lam in enumerate(self.parts, start=1)
            for j in range(1, lam + 1)
        )

    def __contains__(self, cell: Cell) -> bool:
        i, j = cell
        return 1 <= i <= len(self.parts) and 1 <= j <= self.parts[i - 1]

    def conjugate(self) -> "Partition":
        """The transposed diagram: column lengths become row lengths."""
        if not self.parts:
            return Partition()
        return Partition(
            tuple(
                sum(1 for p in self.parts if p >= j)
                for j in range(1, self.parts[0] + 1)
            )
        )

    def corners(self) -> frozenset[Cell]:
        """Cells with no box to the right and none below."""
        out = set()
        for i, lam in enumerate(self.parts, start=1):
            nxt = self.part(i + 1)
            if lam > nxt:
                out.add((i, lam))
        return frozenset(out)

    def frobenius(self) -> "FrobeniusCoords":
        """Arm/leg lengths measured from the diagonal cells."""
        conj = self.conjugate()
        n = sum(1 for i in range(1, len(self.parts) + 1) if self.part(i) >= i)
        p = tuple(self.part(i) - i for i in range(1, n + 1))
        q = tuple(conj.part(i) - i for i in range(1, n + 1))
        return FrobeniusCoords(p, q)

    def __str__(self) -> str:
        return ",".join(str(p) for p in self.parts) if self.parts else "0"


@dataclass(frozen=True)
class FrobeniusCoords:
    """Frobenius notation (p_1,...,p_N | q_1,...,q_N)."""

    p: tuple[int, ...]
    q: tuple[int, ...]

    def __post_init__(self) -> None:
        p, q = tuple(self.p), tuple(self.q)
        if len(p) != len(q):
            raise ValueError("p and q must have equal length")
        for seq in (p, q):
            if any(x < 0 for x in seq):
                raise ValueError("Frobenius coordinates must be nonnegative")
            if any(seq[i] <= seq[i + 1] for i in range(len(seq) - 1)):
                raise ValueError("Frobenius coordinates must strictly decrease")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    @property
    def depth(self) -> int:
        return len(self.p)

    def to_partition(self) -> Partition:
        """Rebuild the partition whose Frobenius coordinates these are."""
        n = self.depth
        if n == 0:
            return Partition()
        # Row i (i <= n) has i + p_i boxes; below the diagonal block, column
        # lengths are determined by the q's.
        rows = [i + self.p[i - 1] for i in range(1, n + 1)]
        # Column j (j <= n) has j + q_j boxes; rows beyond n are read off the
        # conjugate of the leg staircase.
        col_len = [j + self.q[j - 1] for j in range(1, n + 1)]
        extra_rows = []
        i = n + 1
        while True:
            lam = sum(1 for c in col_len if c >= i)
            if lam == 0:
                break
            extra_rows.append(lam)
            i += 1
        return Partition(tuple(rows + extra_rows))

    def __str__(self) -> str:
        ps = ",".join(str(x) for x in self.p)
        qs = ",".join(str(x) for x in self.q)
        return f"({ps}|{qs})"


def perm_sign(perm: Sequence[int]) -> int:
    """Sign of a permutation given as a sequence of distinct values."""
    inversions = sum(
        1
        for a in range(len(perm))
        for b in range(a + 1, len(perm))
        if perm[a] > perm[b]
    )
    return -1 if inversions % 2 else 1


def hook(p: int, q: int) -> Partition:
    """The hook partition (p+1, 1^q)."""
    return Partition((p + 1,) + (1,) * q)


@dataclass(frozen=True)
class SkewShape:
    """Set difference ``outer / inner`` of two nested Young diagrams.

    The only normalization is that ``Partition`` drops zero parts and a
    shape with no cells becomes ``0/0``.  So equal cell sets may compare
    unequal: ``3,2/3`` and ``4,2/4`` both hold the two cells of row 2.
    """

    outer: Partition
    inner: Partition = Partition()

    def __post_init__(self) -> None:
        outer, inner = self.outer, self.inner
        if not isinstance(outer, Partition):
            outer = Partition(tuple(outer))
        if not isinstance(inner, Partition):
            inner = Partition(tuple(inner))
        for i in range(1, inner.rows + 1):
            if inner.part(i) > outer.part(i):
                raise ValueError(f"inner {inner} not contained in outer {outer}")
        if outer.size == inner.size:
            outer, inner = Partition(), Partition()
        object.__setattr__(self, "outer", outer)
        object.__setattr__(self, "inner", inner)

    @classmethod
    def from_cells(cls, cells: Iterable[Cell]) -> "SkewShape":
        """The skew shape whose cells are exactly ``cells``.

        Row i runs from inner_i + 1 to outer_i; a row with no cells, above
        one that has some, gets inner_i = outer_i = outer_(i+1).  Raises
        ValueError when no skew shape has exactly these cells.
        """
        cells = set(cells)
        runs: dict[int, list[int]] = {}
        for i, j in cells:
            if i < 1 or j < 1:
                raise ValueError(f"the cells do not form a skew shape: {(i, j)} "
                                 "is outside rows and columns 1, 2, ...")
            runs.setdefault(i, []).append(j)
        outer: list[int] = []
        inner: list[int] = []
        for i in range(max(runs, default=0), 0, -1):  # bottom row first
            js = runs.get(i, [])
            lo, hi = (min(js) - 1, max(js)) if js else (outer[-1], outer[-1])
            if hi - lo != len(js):
                raise ValueError(f"the cells do not form a skew shape: row {i} has a gap")
            if outer and (hi < outer[-1] or lo < inner[-1]):
                raise ValueError(f"the cells do not form a skew shape: row {i + 1} "
                                 f"does not fit under row {i}")
            inner.append(lo)
            outer.append(hi)
        return cls(Partition(tuple(outer[::-1])), Partition(tuple(inner[::-1])))

    # Tableaux, instances and the domain checks ask again for each shape's
    # cells and corners; both are immutable, so each is kept per shape.
    @lru_cache(maxsize=1024)
    def cells(self) -> tuple[Cell, ...]:
        return tuple(
            (i, j)
            for i in range(1, self.outer.rows + 1)
            for j in range(self.inner.part(i) + 1, self.outer.part(i) + 1)
        )

    @property
    def size(self) -> int:
        return self.outer.size - self.inner.size

    def __contains__(self, cell: Cell) -> bool:
        i, j = cell
        return cell in self.outer and j > self.inner.part(i)

    @lru_cache(maxsize=1024)
    def corners(self) -> frozenset[Cell]:
        """Cells with no right neighbor and no down neighbor in the shape."""
        cs = set(self.cells())
        return frozenset(
            (i, j) for (i, j) in cs if (i, j + 1) not in cs and (i + 1, j) not in cs
        )

    def is_ribbon(self) -> bool:
        """Connected and containing no 2x2 block of cells."""
        cs = set(self.cells())
        if not cs:
            return False
        for (i, j) in cs:
            if {(i, j + 1), (i + 1, j), (i + 1, j + 1)} <= cs:
                return False
        seen = {next(iter(cs))}
        frontier = list(seen)
        while frontier:
            i, j = frontier.pop()
            for nb in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)):
                if nb in cs and nb not in seen:
                    seen.add(nb)
                    frontier.append(nb)
        return seen == cs

    def __str__(self) -> str:
        if self.inner.size == 0:
            return str(self.outer)
        return f"{self.outer}/{self.inner}"


def is_ribbon(s: "SkewShape | Partition") -> bool:
    if isinstance(s, Partition):
        s = SkewShape(s)
    return s.is_ribbon()


@dataclass(frozen=True)
class HashTranspose:
    """Result of reflecting a skew shape across the anti-diagonal.

    ``shape`` is the reflected skew shape and ``cell_map`` sends each cell of
    the input to its image, so tableau data can be transported.
    """

    shape: SkewShape
    cell_map: Mapping[Cell, Cell]


def hash_transpose(s: "SkewShape | Partition") -> HashTranspose:
    """Reflect a (skew) diagram across the anti-diagonal of its bounding box.

    The bounding box of ``outer`` has R rows and C = outer_1 columns; cell
    (i, j) maps to (C + 1 - j, R + 1 - i).  The image of a straight shape is
    in general a genuine skew shape inside the transposed C x R box.
    """
    if isinstance(s, Partition):
        s = SkewShape(s)
    r, c = s.outer.rows, s.outer.part(1)
    cmap = {(i, j): (c + 1 - j, r + 1 - i) for (i, j) in s.cells()}
    return HashTranspose(SkewShape.from_cells(cmap.values()), cmap)


@dataclass(frozen=True)
class RimDecomposition:
    """An ordered peeling of a partition into ribbons (some possibly empty).

    ``walks[k-1]`` lists ribbon k's cells in the order they were added: an
    H ribbon runs from its anchor (k, 1) with up/right steps, an E ribbon
    from (1, k) with down/left steps.  ``type`` is the permutation sigma with
    ribbon k of ref_sigma(k) - sigma(k) + k cells, ref being the shape (H)
    or its conjugate (E).
    """

    shape: Partition
    kind: str  # "H" or "E"
    type: tuple[int, ...]
    walks: tuple[tuple[Cell, ...], ...]

    @property
    def slots(self) -> int:
        return len(self.walks)

    def ribbons(self) -> list[frozenset[Cell]]:
        return [frozenset(walk) for walk in self.walks]


def _rim_decompositions(shape: Partition, kind: str) -> list[RimDecomposition]:
    """All rim decompositions of the given kind, one per admissible type.

    A decomposition is a chain of partitions () = mu^(0) <= mu^(1) <= ... <=
    mu^(t) = lambda where step k adds either nothing or a ribbon whose
    initial end is the anchor (k, 1) for H (the anchor (1, k) for E).

    Step k of an H-decomposition of type sigma adds a ribbon of
    lambda_r - r + k cells, r = sigma(k).  That ribbon is forced: walking
    from its anchor, it must go up while the cell above is free (otherwise
    mu^(k) would not be a partition) and go right otherwise.  So each type
    yields at most one decomposition, built directly, and the walk is kept
    in that order.  E-decompositions are the transposes of the
    H-decompositions of the conjugate.
    """
    if kind == "E":
        return [
            RimDecomposition(
                shape, "E", d.type, tuple(tuple((j, i) for i, j in w) for w in d.walks)
            )
            for d in _rim_decompositions(shape.conjugate(), "H")
        ]
    t = shape.rows
    results: list[RimDecomposition] = []

    def extend(
        k: int, sigma: tuple[int, ...], current: set[Cell], walks: tuple
    ) -> None:
        if k > t:
            results.append(RimDecomposition(shape, kind, sigma, walks))
            return
        for r in range(1, t + 1):
            size = shape.part(r) - r + k
            if r in sigma or size < 0:
                continue
            ribbon: list[Cell] = []
            cell = (k, 1)
            while len(ribbon) < size:
                if cell not in shape or cell in current:
                    break
                ribbon.append(cell)
                i, j = cell
                cell = (i - 1, j) if i > 1 and (i - 1, j) not in current else (i, j + 1)
            union = current.union(ribbon)
            # mu^(k-1) is a partition, so mu^(k) is one iff every new cell
            # has its upper and left neighbours in it.
            if len(ribbon) == size and all(
                (i == 1 or (i - 1, j) in union) and (j == 1 or (i, j - 1) in union)
                for (i, j) in ribbon
            ):
                extend(k + 1, sigma + (r,), union, walks + (tuple(ribbon),))

    extend(1, (), set(), ())
    return results


def h_rim_decompositions(shape: Partition) -> list[RimDecomposition]:
    """All decompositions whose k-th ribbon (if nonempty) starts at (k, 1)."""
    return _rim_decompositions(shape, "H")


def e_rim_decompositions(shape: Partition) -> list[RimDecomposition]:
    """All decompositions whose k-th ribbon (if nonempty) starts at (1, k)."""
    return _rim_decompositions(shape, "E")


# ---------------------------------------------------------------------------
# Textual syntax


def parse_partition(text: str) -> Partition:
    """Parse "4,3,3,2" (or "0" / "" for the empty partition)."""
    text = text.strip()
    if text in ("", "0", "()"):
        return Partition()
    try:
        parts = tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise ValueError(f"bad partition syntax: {text!r}") from exc
    return Partition(parts)


def parse_shape(text: str) -> SkewShape:
    """Parse "4,3,3,2" or "4,3,3,2/2,1" into a (possibly skew) shape."""
    if "/" in text:
        outer_text, inner_text = text.split("/", 1)
        return SkewShape(parse_partition(outer_text), parse_partition(inner_text))
    return SkewShape(parse_partition(text))


_FROB_RE = re.compile(r"^\(\s*([0-9,\s]*)\|\s*([0-9,\s]*)\)$")


def parse_frobenius(text: str) -> FrobeniusCoords:
    """Parse "(3,1,0|3,2,0)"."""
    m = _FROB_RE.match(text.strip())
    if not m:
        raise ValueError(f"bad Frobenius syntax: {text!r}")
    def ints(s: str) -> tuple[int, ...]:
        s = s.strip()
        return tuple(int(tok) for tok in s.split(",")) if s else ()
    return FrobeniusCoords(ints(m.group(1)), ints(m.group(2)))
