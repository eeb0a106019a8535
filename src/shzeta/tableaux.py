"""Tableaux over (skew) shapes and the related domain checks.

Covers semi-standard enumeration, the convergence-domain predicates on
exponent tableaux, diagonal-constant (content) parametrization, the
diagonal-permutation orbit used to symmetrize non-diagonal-constant
identities, sigma-tableaux and their hook decomposition, and the
corner-entry condition for integer exponent tableaux.
"""

from __future__ import annotations

import cmath
import itertools
import json
from dataclasses import dataclass
from typing import Any, Iterator, Mapping

from .errors import DomainError, UsageError
from .shapes import (
    Cell,
    Partition,
    SkewShape,
    content,
    hook,
)

Shape = Partition | SkewShape


def as_skew(shape: Shape) -> SkewShape:
    return shape if isinstance(shape, SkewShape) else SkewShape(shape)


@dataclass(frozen=True)
class Tableau:
    """A map from the cells of a shape to values (exponents, shifts, entries)."""

    shape: Shape
    entries: Mapping[Cell, Any]

    def __post_init__(self) -> None:
        entries = dict(self.entries)
        cells = set(as_skew(self.shape).cells())
        if set(entries) != cells:
            missing = cells - set(entries)
            extra = set(entries) - cells
            raise UsageError(
                f"tableau entries do not match shape cells "
                f"(missing {sorted(missing)}, extra {sorted(extra)})"
            )
        object.__setattr__(self, "entries", entries)

    def __getitem__(self, cell: Cell) -> Any:
        return self.entries[cell]

    def cells(self) -> tuple[Cell, ...]:
        return as_skew(self.shape).cells()

    def with_entries(self, updates: Mapping[Cell, Any]) -> "Tableau":
        new = dict(self.entries)
        for c, v in updates.items():
            if c not in new:
                raise UsageError(f"cell {c} not in shape {self.shape}")
            new[c] = v
        return Tableau(self.shape, new)

    def __hash__(self) -> int:
        return hash((self.shape, tuple(sorted(self.entries.items()))))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tableau):
            return NotImplemented
        return self.shape == other.shape and self.entries == other.entries


def constant_tableau(shape: Shape, value: Any) -> Tableau:
    return Tableau(shape, {c: value for c in as_skew(shape).cells()})


# ---------------------------------------------------------------------------
# Semi-standard enumeration


def ssyt_iter(shape: Shape, max_entry: int) -> Iterator[Tableau]:
    """The fillings of ``ssyt_fillings``, each as a validated ``Tableau``."""
    for filling in ssyt_fillings(shape, max_entry):
        yield Tableau(shape, filling)


def ssyt_fillings(shape: Shape, max_entry: int) -> Iterator[dict[Cell, int]]:
    """All fillings with entries in 1..max_entry, rows weakly increasing
    left-to-right and columns strictly increasing top-to-bottom, each as a
    new dict from cell to entry.

    Skew shapes use the same rules on the cells that are present.  Output is
    ordered lexicographically by the row-major reading word.
    """
    if max_entry < 1:
        raise UsageError("max_entry must be >= 1")
    cells = as_skew(shape).cells()
    filled: dict[Cell, int] = {}

    def rec(k: int) -> Iterator[dict[Cell, int]]:
        if k == len(cells):
            yield dict(filled)
            return
        i, j = cells[k]
        lo = 1
        left = filled.get((i, j - 1))
        if left is not None:
            lo = max(lo, left)
        above = filled.get((i - 1, j))
        if above is not None:
            lo = max(lo, above + 1)
        for v in range(lo, max_entry + 1):
            filled[(i, j)] = v
            yield from rec(k + 1)
        filled.pop((i, j), None)

    yield from rec(0)


def is_ssyt(t: Tableau) -> bool:
    """Weak rows / strict columns on the cells present."""
    e = t.entries
    for (i, j), v in e.items():
        if (i, j + 1) in e and e[(i, j + 1)] < v:
            return False
        if (i + 1, j) in e and e[(i + 1, j)] <= v:
            return False
    return True


# ---------------------------------------------------------------------------
# Convergence-domain predicates


def _re(v: Any) -> float:
    return complex(v).real


def int_exponent(v: Any) -> int:
    """An exponent as an int, for exact rational arithmetic."""
    c = complex(v)
    if c.imag != 0 or c.real != int(c.real):
        raise UsageError(f"exact arithmetic needs integer exponents, got {v!r}")
    return int(c.real)


def in_W_lambda(s: Tableau) -> bool:
    """Real part >= 1 everywhere, and > 1 on the corners of the shape."""
    cs = as_skew(s.shape).corners()
    for cell, v in s.entries.items():
        if _re(v) < 1:
            return False
        if cell in cs and _re(v) <= 1:
            return False
    return True


def h_cells(shape: Partition) -> frozenset[Cell]:
    """Cells whose content equals some row's arm offset ``lambda_i - i``."""
    hs = {shape.part(i) - i for i in range(1, shape.rows + 1)}
    return frozenset(c for c in shape.cells() if content(c) in hs)


def in_W_lambda_H(s: Tableau) -> bool:
    """Real part > 1 on the extended corner-diagonal set, >= 1 elsewhere."""
    if isinstance(s.shape, SkewShape):
        raise UsageError("the H-domain predicate is defined for straight shapes")
    strict = h_cells(s.shape)
    for cell, v in s.entries.items():
        if _re(v) < 1:
            return False
        if cell in strict and _re(v) <= 1:
            return False
    return True


# ---------------------------------------------------------------------------
# Content (diagonal-constant) parametrization


@dataclass(frozen=True)
class ContentSpec:
    """One exponent ``z_k`` and one shift ``y_k`` per content ``k = j - i``."""

    z: Mapping[int, complex]
    y: Mapping[int, float]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "z", {int(k): complex(v) for k, v in self.z.items()}
        )
        object.__setattr__(
            self, "y", {int(k): float(v) for k, v in self.y.items()}
        )
        for k, v in self.y.items():
            if v < 0:
                raise DomainError(f"shift y_{k} = {v} must be nonnegative")

    def z_at(self, k: int) -> complex:
        if k not in self.z:
            raise UsageError(f"content spec missing exponent for content {k}")
        return self.z[k]

    def y_at(self, k: int) -> float:
        # Unspecified shifts default to 0, matching the ordinary (x = 0) case.
        return self.y.get(k, 0.0)


def expand_content(spec: ContentSpec, shape: Shape) -> tuple[Tableau, Tableau]:
    """Materialize (exponent tableau, shift tableau) with s_ij = z_{j-i}."""
    cells = as_skew(shape).cells()
    s = Tableau(shape, {c: spec.z_at(content(c)) for c in cells})
    x = Tableau(shape, {c: spec.y_at(content(c)) for c in cells})
    return s, x


def is_diagonal_constant(t: Tableau) -> bool:
    seen: dict[int, Any] = {}
    for c, v in t.entries.items():
        k = content(c)
        if k in seen and seen[k] != v:
            return False
        seen[k] = v
    return True


def contents_of(shape: Shape) -> tuple[int, ...]:
    return tuple(sorted({content(c) for c in as_skew(shape).cells()}))


# ---------------------------------------------------------------------------
# Diagonal-permutation orbit


@dataclass(frozen=True)
class DiagonalOrbit:
    """One choice of permutation per diagonal cell set I(j)."""

    shape: Shape
    diagonal_sets: Mapping[int, tuple[Cell, ...]]
    permutation_choice: Mapping[int, tuple[int, ...]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "diagonal_sets", dict(self.diagonal_sets))
        object.__setattr__(
            self, "permutation_choice", dict(self.permutation_choice)
        )


def diagonal_sets(shape: Shape) -> dict[int, tuple[Cell, ...]]:
    """I(j) = cells of content j, ordered by row."""
    out: dict[int, list[Cell]] = {}
    for c in as_skew(shape).cells():
        out.setdefault(content(c), []).append(c)
    return {k: tuple(sorted(v)) for k, v in sorted(out.items())}


def diagonal_orbit(shape: Shape) -> Iterator[DiagonalOrbit]:
    """All tuples of per-diagonal permutations; cardinality prod |I(j)|!."""
    sets = diagonal_sets(shape)
    keys = list(sets)
    for choice in itertools.product(
        *(itertools.permutations(range(len(sets[k]))) for k in keys)
    ):
        yield DiagonalOrbit(shape, sets, dict(zip(keys, choice)))


def apply_orbit(orbit: DiagonalOrbit, t: Tableau) -> Tableau:
    """Permute entries within each diagonal: new[I(j)[k]] = old[I(j)[sigma(k)]]."""
    new = dict(t.entries)
    for j, cells in orbit.diagonal_sets.items():
        sigma = orbit.permutation_choice[j]
        for k, cell in enumerate(cells):
            new[cell] = t.entries[cells[sigma[k]]]
    return Tableau(t.shape, new)


# ---------------------------------------------------------------------------
# sigma-tableaux


def is_sigma_tableau(t: Tableau, sigma: tuple[int, ...]) -> bool:
    """Check the relaxed tableau conditions for a permutation of 1..N.

    ``sigma`` is given one-indexed as a tuple (sigma(1), ..., sigma(N)).
    Conditions: weak increase along rows strictly right of the main diagonal;
    strict increase down columns on and left of the main diagonal; and the
    anchor inequality t_{sigma(i),sigma(i)} <= t_{i,i+1} whenever row i
    extends past the diagonal.
    """
    if isinstance(t.shape, SkewShape):
        raise UsageError("sigma-tableaux are defined for straight shapes")
    shape: Partition = t.shape
    n = shape.frobenius().depth
    if sorted(sigma) != list(range(1, n + 1)):
        raise UsageError(f"sigma must permute 1..{n}, got {sigma}")
    e = t.entries
    for (i, j), v in e.items():
        # (I) weak rows within the strict-arm region.
        if j > i and (i, j + 1) in e and e[(i, j + 1)] < v:
            return False
        # (II) strict columns on/below the main diagonal.
        if i >= j and (i + 1, j) in e and e[(i + 1, j)] <= v:
            return False
    # (III) diagonal anchors against row starts.
    for i in range(1, n + 1):
        if i + 1 <= shape.part(i):
            if e[(sigma[i - 1], sigma[i - 1])] > e[(i, i + 1)]:
                return False
    return True


def decompose_sigma_tableau(
    t: Tableau, sigma: tuple[int, ...]
) -> list[Tableau]:
    """Split a sigma-tableau into N hook tableaux T_k(sigma).

    T_k(sigma) has first row t_{sigma(k),sigma(k)}, t_{k,k+1}, ..., t_{k,k+p_k}
    and first column continuing t_{sigma(k),sigma(k)+1}, ...,
    t_{sigma(k),sigma(k)+q_{sigma(k)}} — the column entries are read from row
    sigma(k) transposed, i.e. from the column below cell
    (sigma(k), sigma(k)).
    """
    if not is_sigma_tableau(t, sigma):
        raise UsageError("input is not a sigma-tableau for the given sigma")
    shape: Partition = t.shape  # type: ignore[assignment]
    fr = shape.frobenius()
    e = t.entries
    hooks: list[Tableau] = []
    for k in range(1, fr.depth + 1):
        sk = sigma[k - 1]
        p_k = fr.p[k - 1]
        q_sk = fr.q[sk - 1]
        hshape = hook(p_k, q_sk)
        entries: dict[Cell, Any] = {(1, 1): e[(sk, sk)]}
        for a in range(1, p_k + 1):
            entries[(1, 1 + a)] = e[(k, k + a)]
        for b in range(1, q_sk + 1):
            entries[(1 + b, 1)] = e[(sk + b, sk)]
        hooks.append(Tableau(hshape, entries))
    return hooks


# ---------------------------------------------------------------------------
# Integer exponent tableaux with the corner condition


def in_I_theta(gamma: Tableau) -> bool:
    """All entries >= 1 and corner entries >= 2 (real parts compared)."""
    cs = as_skew(gamma.shape).corners()
    for cell, v in gamma.entries.items():
        if _re(v) < 1:
            return False
        if cell in cs and _re(v) < 2:
            return False
    return True


# ---------------------------------------------------------------------------
# Text formats


def tableau_to_rows(t: Tableau) -> list[list[Any]]:
    """Row-major nested arrays with ``None`` for absent skew cells."""
    skew = as_skew(t.shape)
    rows: list[list[Any]] = []
    for i in range(1, skew.outer.rows + 1):
        row: list[Any] = []
        for j in range(1, skew.outer.part(i) + 1):
            row.append(t.entries.get((i, j)))
        rows.append(row)
    return rows


def tableau_from_rows(rows: list[list[Any]]) -> Tableau:
    """Inverse of ``tableau_to_rows``: null-prefixed rows describe a skew
    shape, given by its cells (``SkewShape.from_cells``)."""
    entries = {
        (i, j): v
        for i, row in enumerate(rows, start=1)
        for j, v in enumerate(row, start=1)
        if v is not None
    }
    shape = SkewShape.from_cells(entries)
    return Tableau(shape if shape.inner.size else shape.outer, entries)


def json_scalar(value: Any, what: str) -> Any:
    """A finite JSON number or number text (such as "2+1j"), returned as
    given; booleans, NaN, infinities and other text are malformed input."""
    try:
        if not isinstance(value, bool) and (
            isinstance(value, int) or cmath.isfinite(complex(value))
        ):
            return value
    except (TypeError, ValueError):
        pass
    raise UsageError(f"{what} must be a finite number, got {value!r}")


def content_spec_from_json(obj: "str | Mapping[str, Any]") -> ContentSpec:
    """Parse {"z": {"-1": 3, "0": 2.5}, "y": {"0": 0.3}}."""
    if isinstance(obj, str):
        obj = json.loads(obj)
    y = obj.get("y", {}) if isinstance(obj, Mapping) else None
    if not (isinstance(y, Mapping) and isinstance(obj.get("z"), Mapping)):
        raise UsageError("content spec requires a 'z' mapping ('y' optional)")
    return ContentSpec(
        {int(k): complex(json_scalar(v, f"z[{k}]")) for k, v in obj["z"].items()},
        {int(k): float(json_scalar(v, f"y[{k}]")) for k, v in y.items()},
    )
