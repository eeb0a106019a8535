"""Definition-level evaluation of Schur multiple zeta series of Hurwitz type.

The series runs over all semi-standard fillings M of a (possibly skew) shape
and weights cell (i, j) by (m_ij + x_ij)^(-s_ij).  The fillings are the
P-partitions of the cell order (rows weakly increasing rightward, columns
strictly increasing downward).  ``schur_eval`` sums them with one DP over
the lattice of order ideals (Stanley, *Enumerative Combinatorics* I, §4.7),
run by ``ezzeta.eval_layers``: a state is an order ideal with the cell added
last, at a cost of (number of states) * cutoff.  No determinant or expansion
identity is used and no derivative taken, keeping this module independent of
the identities it is checked against.

Oracles only: ``linear_extensions`` and ``chain_decomposition`` (one chain
per linear extension, Stanley's fundamental lemma, §3.15) and the exact
rational truncations back the tests and the lattice-path cross-checks.  A
truncation takes its tables from ``tableaux.exact_tables``, which refuses
what ``lgv`` refuses (tableaux that do not match the shape, a non-integer
exponent, data over the bit cap), puts every term over one denominator
and adds int numerators.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from typing import Any, Sequence

from .errors import DomainError, UsageError
from .ezzeta import APPROX_ONE, Approx, DEFAULT_CONFIG, EvalConfig, Layers, eval_layers
from .shapes import Cell, SkewShape
from .tableaux import (
    ContentSpec,
    Shape,
    Tableau,
    as_skew,
    exact_tables,
    expand_content,
    in_W_lambda,
    ssyt_fillings,
)


@dataclass(frozen=True)
class SchurInstance:
    """A shape with an exponent tableau and a shift tableau."""

    shape: Shape
    exponents: Tableau
    shifts: Tableau

    def __post_init__(self) -> None:
        cells = set(as_skew(self.shape).cells())
        if set(self.exponents.entries) != cells or set(self.shifts.entries) != cells:
            raise UsageError("exponent/shift tableaux must match the shape")
        for what, tableau in (("exponent", self.exponents), ("shift", self.shifts)):
            for c, v in tableau.entries.items():
                # Exact entries (int, Fraction) are finite; a float may not be.
                if isinstance(v, (float, complex)) and not cmath.isfinite(v):
                    raise UsageError(f"{what} at cell {c} must be a finite number, got {v!r}")
        for c, v in self.shifts.entries.items():
            if float(v) < 0:
                raise DomainError(f"negative shift at cell {c}")


def instance_from_spec(spec: ContentSpec, shape: Shape) -> SchurInstance:
    s, x = expand_content(spec, shape)
    return SchurInstance(shape, s, x)


def _omega(cell: Cell) -> tuple[int, int]:
    # Column-strict labeling: increases rightward along rows, decreases
    # downward along columns, so a descent marks a strict (column) step.
    i, j = cell
    return (j, -i)


@lru_cache(maxsize=None)
def linear_extensions(shape: SkewShape) -> tuple[tuple[Cell, ...], ...]:
    """All linear extensions of the cell order (left and up precede)."""
    cells = list(shape.cells())
    cellset = set(cells)
    preds = {
        c: frozenset(
            p for p in ((c[0], c[1] - 1), (c[0] - 1, c[1])) if p in cellset
        )
        for c in cells
    }
    out: list[tuple[Cell, ...]] = []
    order: list[Cell] = []
    placed: set[Cell] = set()

    def rec() -> None:
        if len(order) == len(cells):
            out.append(tuple(order))
            return
        for c in cells:
            if c in placed or not preds[c] <= placed:
                continue
            placed.add(c)
            order.append(c)
            rec()
            order.pop()
            placed.remove(c)

    rec()
    return tuple(out)


def chain_decomposition(
    shape: Shape,
) -> tuple[tuple[tuple[Cell, ...], tuple[bool, ...]], ...]:
    """Cell sequences with their strictness patterns, one chain per extension."""
    exts = linear_extensions(as_skew(shape))
    return tuple(
        (
            ext,
            tuple(
                _omega(ext[k]) > _omega(ext[k + 1]) for k in range(len(ext) - 1)
            ),
        )
        for ext in exts
    )


@lru_cache(maxsize=None)
def ideal_layers(shape: SkewShape) -> tuple[tuple[Cell, ...], Layers]:
    """The cells and the P-partition state graph (``ezzeta.Layers``) of the
    cell order: adding cell d after cell c is a strict step exactly where
    the column-strict labeling descends, ``_omega(c) > _omega(d)``."""
    cells = tuple(shape.cells())
    bit = {c: 1 << k for k, c in enumerate(cells)}
    need = [bit.get((i, j - 1), 0) | bit.get((i - 1, j), 0) for i, j in cells]
    states, layers = [(0, None)], []  # from the empty ideal
    for _ in cells:
        nxt: dict[tuple[int, int], list[tuple[int, bool]]] = {}
        for p, (mask, last) in enumerate(states):
            for d, c in enumerate(cells):
                if not mask & bit[c] and not need[d] & ~mask:
                    strict = last is not None and _omega(cells[last]) > _omega(c)
                    nxt.setdefault((mask | bit[c], d), []).append((p, strict))
        states = list(nxt)
        layers.append(tuple((d, tuple(ps)) for (_, d), ps in nxt.items()))
    return cells, tuple(layers)


def dp_states(shape: Shape) -> int:
    """Number of states ``schur_eval`` runs for the shape."""
    return sum(map(len, ideal_layers(as_skew(shape))[1]))


def schur_eval(inst: SchurInstance, cfg: EvalConfig = DEFAULT_CONFIG) -> Approx:
    """Certified value of the tableau series for the instance."""
    if not in_W_lambda(inst.exponents):
        raise DomainError(
            "exponent tableau violates the convergence domain "
            "(need Re >= 1 everywhere and Re > 1 on corners)"
        )
    cells, layers = ideal_layers(as_skew(inst.shape))
    if not cells:
        return APPROX_ONE  # empty shape: empty product
    s = [inst.exponents[c] for c in cells]
    y = [float(inst.shifts[c]) for c in cells]
    return eval_layers(layers, s, y, cfg, first_min=1)


def schur_truncated_exact(
    shape: Shape,
    exponents: Tableau,
    shifts: Tableau,
    max_entry: int,
) -> Fraction:
    """Exact rational value of the tableau sum truncated at ``max_entry``.

    Requires integer exponents and rational shifts; used as an oracle for
    both the chain decomposition and the lattice-path model.  The factors
    1/(m + x)^s come from one table of integer numerators per call over
    one common denominator (``tableaux.exact_tables``), so each filling
    adds a plain int product to one int total.
    """
    table, den = exact_tables(shape, exponents, shifts, max_entry)
    total = 0
    for filling in ssyt_fillings(shape, max_entry):
        term = 1
        for c, m in filling.items():
            term *= table[c][m]
        total += term
    return Fraction(total, den)


def chain_truncated_exact(
    shape: Shape,
    exponents: Tableau,
    shifts: Tableau,
    max_entry: int,
) -> Fraction:
    """The chain decomposition summed exactly to ``max_entry`` per variable.

    Equals ``schur_truncated_exact`` filling-for-filling; kept separate so
    the equality is testable.  Factors come from ``tableaux.exact_tables``,
    and each leaf adds its int numerator to one total, as there.
    """
    table, den = exact_tables(shape, exponents, shifts, max_entry)
    total = 0
    for cells, strict in chain_decomposition(shape):
        # (position, previous value, weight numerator)
        stack = [(0, 0, 1)]
        while stack:
            k, prev, num = stack.pop()
            if k == len(cells):
                total += num
                continue
            lo = prev + 1 if (k > 0 and strict[k - 1]) else max(prev, 1)
            row = table[cells[k]]
            for m in range(lo, max_entry + 1):
                stack.append((k + 1, m, num * row[m]))
    return Fraction(total, den)


def shift_exponent(
    inst: SchurInstance, cells: Sequence[Cell], a: int
) -> SchurInstance:
    """Raise the exponent of each listed cell by ``a`` (repeats compound)."""
    updates: dict[Cell, Any] = {}
    for c in cells:
        if c not in inst.exponents.entries:
            raise UsageError(f"cell {c} not in shape {inst.shape}")
        updates[c] = updates.get(c, inst.exponents[c]) + a
    return replace(inst, exponents=inst.exponents.with_entries(updates))
