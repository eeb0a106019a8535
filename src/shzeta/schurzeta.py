"""Definition-level evaluation of Schur multiple zeta series of Hurwitz type.

The series runs over all semi-standard fillings M of a (possibly skew) shape
and weights cell (i, j) by (m_ij + x_ij)^(-s_ij).  Evaluation decomposes the
filling set into disjoint monotone chains, one per linear extension of the
cell order (rows weakly increasing rightward, columns strictly increasing
downward): reading the cells of an extension in order, consecutive entries
satisfy ``<=``, tightened to ``<`` exactly where the column-strict labeling
descends.  Each chain is then a mixed Euler-Zagier chain handled by the
certified prefix-sum evaluator, so the result is a certified truncation of
the literal tableau sum — no determinant or expansion identity is used,
keeping this module independent of the identities it is checked against.

An exact-rational truncated mode (direct tableau enumeration) backs the
small-scale oracles and the lattice-path cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from typing import Any, Sequence

from .errors import DomainError, UsageError
from .ezzeta import APPROX_ONE, Approx, DEFAULT_CONFIG, EvalConfig, eval_chain
from .shapes import Cell, SkewShape, content
from .tableaux import (
    ContentSpec,
    Shape,
    Tableau,
    as_skew,
    expand_content,
    in_W_lambda,
    int_exponent,
    ssyt_iter,
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


def schur_eval(inst: SchurInstance, cfg: EvalConfig = DEFAULT_CONFIG) -> Approx:
    """Certified value of the tableau series for the instance."""
    if not cfg.override_domain and not in_W_lambda(inst.exponents):
        raise DomainError(
            "exponent tableau violates the convergence domain "
            "(need Re >= 1 everywhere and Re > 1 on corners)"
        )
    chains = chain_decomposition(inst.shape)
    if not chains or not chains[0][0]:
        return APPROX_ONE  # empty shape: empty product
    total = 0.0 + 0.0j
    err = 0.0
    for cells, strict in chains:
        s = [inst.exponents[c] for c in cells]
        y = [float(inst.shifts[c]) for c in cells]
        a = eval_chain(s, y, strict, cfg, first_min=1)
        total += a.value
        err += a.err_bound
    return Approx(total, err)


def schur_truncated_exact(
    shape: Shape,
    exponents: Tableau,
    shifts: Tableau,
    max_entry: int,
) -> Fraction:
    """Exact rational value of the tableau sum truncated at ``max_entry``.

    Requires integer exponents and rational shifts; used as an oracle for
    both the chain decomposition and the lattice-path model.
    """
    total = Fraction(0)
    for t in ssyt_iter(shape, max_entry):
        term = Fraction(1)
        for c, m in t.entries.items():
            term /= (Fraction(m) + Fraction(shifts[c])) ** int_exponent(
                exponents[c]
            )
        total += term
    return total


def chain_truncated_exact(
    shape: Shape,
    exponents: Tableau,
    shifts: Tableau,
    max_entry: int,
) -> Fraction:
    """The chain decomposition summed exactly to ``max_entry`` per variable.

    Equals ``schur_truncated_exact`` filling-for-filling; kept separate so
    the equality is testable.
    """
    total = Fraction(0)
    for cells, strict in chain_decomposition(shape):
        stack = [(0, 0, Fraction(1))]  # (position, previous value, weight)
        while stack:
            k, prev, w = stack.pop()
            if k == len(cells):
                total += w
                continue
            lo = prev + 1 if (k > 0 and strict[k - 1]) else max(prev, 1)
            c = cells[k]
            e = int_exponent(exponents[c])
            for m in range(lo, max_entry + 1):
                stack.append(
                    (k + 1, m, w / (Fraction(m) + Fraction(shifts[c])) ** e)
                )
    return total


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


@dataclass(frozen=True)
class DerivativeEstimate:
    """Finite-difference derivative with separated error accounts."""

    value: complex
    trunc_err: float  # propagated series-truncation bounds
    disc_err: float  # discretization heuristic (post-Richardson)


def d_dy(
    spec: ContentSpec,
    shape: Shape,
    ell: int,
    cfg: EvalConfig = DEFAULT_CONFIG,
    h: float = 1e-4,
) -> DerivativeEstimate:
    """Central-difference d/dy_ell of the content-parametrized series.

    Uses one Richardson extrapolation step: D = (4 D(h/2) - D(h)) / 3, with
    |D(h/2) - D(h)| / 3 reported as the discretization heuristic.
    """
    cells = [c for c in as_skew(shape).cells() if content(c) == ell]
    if not cells:
        return DerivativeEstimate(0.0 + 0.0j, 0.0, 0.0)
    y0 = spec.y_at(ell)
    if y0 - h < 0:
        raise DomainError(f"step {h} would push shift y_{ell} negative")

    def value_at(delta: float) -> Approx:
        y = dict(spec.y)
        y[ell] = y0 + delta
        return schur_eval(instance_from_spec(ContentSpec(spec.z, y), shape), cfg)

    def central(step: float) -> tuple[complex, float]:
        hi = value_at(step)
        lo = value_at(-step)
        return (hi.value - lo.value) / (2 * step), (
            hi.err_bound + lo.err_bound
        ) / (2 * step)

    d1, e1 = central(h)
    d2, e2 = central(h / 2)
    value = (4 * d2 - d1) / 3
    return DerivativeEstimate(value, (4 * e2 + e1) / 3, abs(d2 - d1) / 3)
