"""Identity checks: both sides of each determinant / expansion formula.

Every operation evaluates its left-hand side at the series definition
(``schur_eval``) and its right-hand side through an independent route
(Euler-Zagier determinants, alternating hook expansions, signed diagonal
sums, ...), then reports the discrepancy against the combined certified
error budget.  Every determinant (Jacobi-Trudi, Giambelli, Frobenius,
Dirichlet) is expanded by minors in O(n 2^n) Approx operations, so the entry
error bounds propagate rigorously, no looser than in the full expansion.
Every determinant but the reflected Giambelli one is a
``_strip_determinant``: det[Z(a_j, b_i)] over the strips (a_k, b_k) of an
outside decomposition of the shape (rows, columns or diagonal hooks), each
with its own entry route.  The extended Jacobi-Trudi form reads its row
strips' entries from tableau cells instead of a content spec, and the
derivative identities are the Frobenius check with one exponent raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DomainError, UsageError
from .ezzeta import (
    APPROX_ONE,
    APPROX_ZERO,
    Approx,
    DEFAULT_CONFIG,
    EvalConfig,
    TwoSided,
    chain_tails,
    ez_zeta,
    ez_zeta_star,
    majorant,
    power_tables,
    product_bound,
    tail_integral,
)
from .schurzeta import SchurInstance, instance_from_spec, schur_eval
from .shapes import (
    Cell,
    HashTranspose,
    Partition,
    SkewShape,
    hash_transpose,
    hook,
)
from .tableaux import (
    ContentSpec,
    Tableau,
    apply_orbit,
    diagonal_orbit,
    diagonal_sets,
    in_I_theta,
    in_W_lambda_H,
)

OUTER_CUTOFF = 300  # diagonal entries summed by ``dirichlet_series_expr``


@dataclass(frozen=True)
class IdentityReport(TwoSided):
    """Both sides of one identity with their certified budgets.

    ``discrepancy``, ``budget`` and the pass rule are ``TwoSided``'s; here
    ``passes`` is a property.
    """

    identity_id: str
    lhs: Approx
    rhs: Approx

    passes = property(TwoSided.passes)

    def as_dict(self) -> dict:
        return {
            "identity_id": self.identity_id,
            "lhs": [self.lhs.value.real, self.lhs.value.imag],
            "rhs": [self.rhs.value.real, self.rhs.value.imag],
            "discrepancy": self.discrepancy,
            "budget": self.budget,
            "pass": self.passes,
        }


def determinant(entries: Sequence[Sequence[Approx]]) -> Approx:
    """Expansion by minors, row by row over the sets of columns used: O(n 2^n)
    Approx operations, with an error bound no looser than the full signed
    expansion's (|sum| <= sum |.| at each merge)."""
    n = len(entries)
    if any(len(row) != n for row in entries):
        raise UsageError("determinant needs a square matrix")
    # used columns (bit mask) -> signed sum over the assignments of the rows so far
    minors = {0: APPROX_ONE}
    for row in entries:
        nxt: dict[int, Approx] = {}
        for used, acc in minors.items():
            for j, a in enumerate(row):
                if used >> j & 1 or (a.value == 0 and a.err_bound == 0):
                    continue
                term = acc * a
                if (used >> j).bit_count() & 1:  # used columns > j
                    term = -term
                key = used | 1 << j
                nxt[key] = nxt[key] + term if key in nxt else term
        minors = nxt
    return minors.get((1 << n) - 1, APPROX_ZERO)


def _zy(spec: ContentSpec, ks: Sequence[int]) -> tuple[list[complex], list[float]]:
    return [spec.z_at(k) for k in ks], [spec.y_at(k) for k in ks]


def _strip_determinant(
    strips: Sequence[tuple[int, int]], entry: Callable[[int, int], Approx]
) -> Approx:
    """det[Z(a_j, b_i)] over the strips (a_k, b_k), strip k covering the
    contents a_k..b_k: entry (i, j) is the series of the contents a_j..b_i,
    ``entry(a_j, b_i)``, so rows go by strip end.  A segment that starts one
    past its end is empty (1); one that starts later is 0."""

    def at(a: int, b: int) -> Approx:
        if a > b:
            return APPROX_ONE if a == b + 1 else APPROX_ZERO
        return entry(a, b)

    starts = [a for a, _ in strips]
    return determinant([[at(a, b) for a in starts] for _, b in strips])


def _hook_strips(shape: Partition) -> list[tuple[int, int]]:
    fr = shape.frobenius()
    return list(zip((-q for q in fr.q), fr.p))


# ---------------------------------------------------------------------------
# Jacobi-Trudi


def _row_strips(shape: Partition) -> list[tuple[int, int]]:
    return [(1 - i, shape.part(i) - i) for i in range(1, shape.rows + 1)]


def _weak_rows(spec: ContentSpec, shape: Partition, cfg: EvalConfig) -> Approx:
    return _strip_determinant(
        _row_strips(shape),
        lambda a, b: ez_zeta_star(*_zy(spec, range(a, b + 1)), cfg),
    )


def jacobi_trudi_H(
    spec: ContentSpec, shape: Partition, cfg: EvalConfig = DEFAULT_CONFIG
) -> IdentityReport:
    """Determinant of weak-chain zetas over the rows vs. the direct sum.

    Row i is the strip of contents 1 - i..lambda_i - i, so entry (i, j) is
    ``ez_zeta_star`` on the contents 1 - j, 2 - j, ..., lambda_i - i
    (depth lambda_i - i + j).
    """
    lhs = schur_eval(instance_from_spec(spec, shape), cfg)
    return IdentityReport("jacobi_trudi_H", lhs, _weak_rows(spec, shape, cfg))


def jacobi_trudi_E(
    spec: ContentSpec, shape: Partition, cfg: EvalConfig = DEFAULT_CONFIG
) -> IdentityReport:
    """Determinant of strict-chain zetas over the columns vs. the direct sum.

    Column j is the strip of contents j - lambda'_j..j - 1, so entry (i, j)
    is ``ez_zeta`` on the contents i - 1, i - 2, ..., j - lambda'_j
    (descending, as a column is read downward).
    """
    lhs = schur_eval(instance_from_spec(spec, shape), cfg)
    conj = shape.conjugate()
    columns = [(j - conj.part(j), j - 1) for j in range(1, conj.rows + 1)]
    rhs = _strip_determinant(
        columns, lambda a, b: ez_zeta(*_zy(spec, range(b, a - 1, -1)), cfg)
    )
    return IdentityReport("jacobi_trudi_E", lhs, rhs)


def jacobi_trudi_H_general(
    s: Tableau, x: Tableau, shape: Partition, cfg: EvalConfig = DEFAULT_CONFIG
) -> IdentityReport:
    """Jacobi-Trudi H computed from literal tableaux.

    The determinant side needs one parameter per content; it reads the
    topmost cell of each diagonal.  With diagonal-constant tableaux this is
    the identity; otherwise it serves as the negative control showing the
    diagonal-constancy hypothesis is not removable.
    """
    lhs = schur_eval(SchurInstance(shape, s, x), cfg)
    sets = diagonal_sets(shape)
    spec = ContentSpec(
        {k: s[cells[0]] for k, cells in sets.items()},
        {k: float(x[cells[0]]) for k, cells in sets.items()},
    )
    return IdentityReport("jacobi_trudi_H_general", lhs, _weak_rows(spec, shape, cfg))


def extended_jacobi_trudi(
    s: Tableau, x: Tableau, shape: Partition, cfg: EvalConfig = DEFAULT_CONFIG
) -> IdentityReport:
    """Diagonal-symmetrized Jacobi-Trudi for shapes (m, n, 1^(X-2)).

    Both sides are summed over every reordering of the entries within each
    diagonal (``diagonal_orbit``).  The right side is the strip determinant
    over the rows of ``jacobi_trudi_H``, but its entries read one cell per
    content k of the reordered tableaux: the first column below row 2 for
    k <= -2, row 1 for k >= n - 1, and in between row 2 on a segment that
    starts left of content 0, else row 1.
    """
    parts = tuple(shape)
    if len(parts) < 2 or any(p != 1 for p in parts[2:]):
        raise UsageError(
            "extended Jacobi-Trudi supports shapes (m, n, 1, ..., 1) only"
        )
    n = parts[1]
    if not in_W_lambda_H(s):
        raise DomainError(
            "exponents outside the extended convergence domain "
            "(need Re >= 1 everywhere, > 1 on the arm-content diagonals)"
        )
    rows = _row_strips(shape)

    def cell(a: int, k: int) -> Cell:
        if k <= -2:
            return (1 - k, 1)
        return (2, k + 2) if k <= n - 2 and a < 0 else (1, k + 1)

    lhs = APPROX_ZERO
    rhs = APPROX_ZERO
    # Orbits that permute cells an entry does not read repeat its chain, so
    # each distinct (exponents, shifts) chain is evaluated once per call.
    chains: dict[tuple, Approx] = {}
    for orbit in diagonal_orbit(shape):
        so = apply_orbit(orbit, s)
        xo = apply_orbit(orbit, x)
        lhs = lhs + schur_eval(SchurInstance(shape, so, xo), cfg)

        def entry(a: int, b: int) -> Approx:
            cells = [cell(a, k) for k in range(a, b + 1)]
            key = tuple(so[c] for c in cells), tuple(float(xo[c]) for c in cells)
            if key not in chains:
                chains[key] = ez_zeta_star(*key, cfg)
            return chains[key]

        rhs = rhs + _strip_determinant(rows, entry)
    return IdentityReport("extended_jacobi_trudi", lhs, rhs)


# ---------------------------------------------------------------------------
# Giambelli


def giambelli(
    spec: ContentSpec, shape: Partition, cfg: EvalConfig = DEFAULT_CONFIG
) -> IdentityReport:
    """Determinant of hook evaluations over the diagonal hooks: entry (i, j)
    is the hook (p_i + 1, 1^(q_j)) on contents -q_j..p_i."""
    lhs = schur_eval(instance_from_spec(spec, shape), cfg)
    rhs = _strip_determinant(
        _hook_strips(shape),
        lambda a, b: schur_eval(instance_from_spec(spec, hook(b, -a)), cfg),
    )
    return IdentityReport("giambelli", lhs, rhs)


def _transport(t: Tableau, ht: HashTranspose) -> Tableau:
    return Tableau(ht.shape, {ht.cell_map[c]: v for c, v in t.entries.items()})


def skew_giambelli_entries(
    shape: Partition, gamma: Tableau, x: Tableau
) -> list[list[tuple[SkewShape, Tableau, Tableau]]]:
    """Entry data for the anti-diagonal Giambelli determinant.

    Entry (i, j) is the anti-diagonal reflection of the hook
    (p_i + 1, 1^(q_j)) whose first row carries the data of row i of the
    source right of the diagonal and whose first column carries column j
    below the diagonal.
    """
    fr = shape.frobenius()
    out = []
    for i in range(1, fr.depth + 1):
        row = []
        for j in range(1, fr.depth + 1):
            p, q = fr.p[i - 1], fr.q[j - 1]
            hk = hook(p, q)
            gmap = {(1, 1 + t): gamma[(i, i + t)] for t in range(p + 1)}
            xmap = {(1, 1 + t): x[(i, i + t)] for t in range(p + 1)}
            for b in range(1, q + 1):
                gmap[(1 + b, 1)] = gamma[(j + b, j)]
                xmap[(1 + b, 1)] = x[(j + b, j)]
            ht = hash_transpose(hk)
            row.append(
                (
                    ht.shape,
                    _transport(Tableau(hk, gmap), ht),
                    _transport(Tableau(hk, xmap), ht),
                )
            )
        out.append(row)
    return out


def skew_giambelli_hash(
    gamma: Tableau, x: Tableau, cfg: EvalConfig = DEFAULT_CONFIG
) -> IdentityReport:
    """Giambelli identity for the anti-diagonal reflection of a partition."""
    shape = gamma.shape
    if not isinstance(shape, Partition):
        raise UsageError("the source shape must be a straight partition")
    ht = hash_transpose(shape)
    gh = _transport(gamma, ht)
    if not in_I_theta(gh):
        raise DomainError(
            "reflected exponents must be >= 1 with >= 2 on the corners"
        )
    lhs = schur_eval(SchurInstance(ht.shape, gh, _transport(x, ht)), cfg)
    rows = [
        [schur_eval(SchurInstance(sh, g, xx), cfg) for (sh, g, xx) in row]
        for row in skew_giambelli_entries(shape, gamma, x)
    ]
    return IdentityReport("skew_giambelli_hash", lhs, determinant(rows))


# ---------------------------------------------------------------------------
# Hook and Frobenius expansions


def _signed_sum(terms: Iterable[Approx]) -> Approx:
    """The alternating sum t_0 - t_1 + t_2 - ... of a hook expansion."""
    return sum((-t if j % 2 else t for j, t in enumerate(terms)), APPROX_ZERO)


def hook_expansion_star(
    spec: ContentSpec, p: int, q: int, cfg: EvalConfig = DEFAULT_CONFIG
) -> IdentityReport:
    """Hook value as an alternating sum of (weak zeta) x (strict zeta)."""
    shape = hook(p, q)
    lhs = schur_eval(instance_from_spec(spec, shape), cfg)
    return IdentityReport("hook_expansion_star", lhs, _frobenius_rhs(spec, shape, cfg))


def hook_expansion_zeta(
    spec: ContentSpec, p: int, q: int, cfg: EvalConfig = DEFAULT_CONFIG
) -> IdentityReport:
    """Companion expansion splitting the first row instead of the column."""
    lhs = schur_eval(instance_from_spec(spec, hook(p, q)), cfg)
    rhs = _signed_sum(
        ez_zeta(*_zy(spec, range(j, -q - 1, -1)), cfg)
        * ez_zeta_star(*_zy(spec, range(j + 1, p + 1)), cfg)
        for j in range(p + 1)
    )
    return IdentityReport("hook_expansion_zeta", lhs, rhs)


def _frobenius_rhs(spec: ContentSpec, shape: Partition, cfg: EvalConfig) -> Approx:
    """Giambelli determinant det[H(p_i, q_j)] over the diagonal hooks, with
    the hook expansion H(p, q) = sum_{j <= q} (-1)^j zeta*(contents
    -j..p) zeta(contents -j-1 down to -q).  By multilinearity in the rows it
    is the signed sum over the matchings of arms to legs and the split
    points of every leg; on a hook, ``hook_expansion_star``."""
    fr = shape.frobenius()
    splits = range(max(fr.q, default=0) + 1)
    weak = {
        p: [ez_zeta_star(*_zy(spec, range(-j, p + 1)), cfg) for j in splits] for p in fr.p
    }
    strict = {
        q: [ez_zeta(*_zy(spec, range(-j - 1, -q - 1, -1)), cfg) for j in range(q + 1)]
        for q in fr.q
    }

    def h(p: int, q: int) -> Approx:
        return _signed_sum(weak[p][j] * strict[q][j] for j in range(q + 1))

    return _strip_determinant(_hook_strips(shape), lambda a, b: h(b, -a))


def frobenius_expansion(
    spec: ContentSpec, shape: Partition, cfg: EvalConfig = DEFAULT_CONFIG
) -> IdentityReport:
    """Signed multi-alternating sum of hook-split products over the
    Frobenius coordinates."""
    lhs = schur_eval(instance_from_spec(spec, shape), cfg)
    return IdentityReport("frobenius_expansion", lhs, _frobenius_rhs(spec, shape, cfg))


# ---------------------------------------------------------------------------
# Dirichlet-series expression


def dirichlet_series_expr(
    spec: ContentSpec,
    shape: Partition,
    cfg: EvalConfig = DEFAULT_CONFIG,
    outer_cutoff: int = OUTER_CUTOFF,
) -> IdentityReport:
    """Outer Dirichlet sum over the diagonal entries vs. the direct value.

    The signed inner sum factorizes per diagonal variable, so the right side
    is det[S(p_i, q_k)]: each entry sums over the diagonal entry m a
    zeta-star-star tail over the arm contents times a zeta tail over the leg
    contents, both shifted by m, and ``chain_tails`` gives each factor at
    every m in one reverse pass, an ``Approx`` over arrays, so the entry
    sums their ``Approx`` product times the weight (m + y_0)^(-z_0) over
    m <= outer_cutoff.  The outer truncation tail takes monotone
    closed-form majorants t of the chain values, so it needs Re z > 1 on
    the diagonal, arm and leg contents; each entry carries err + t, as the
    true entry lies within err + t of S.
    """
    if outer_cutoff < 1:
        raise UsageError(f"outer_cutoff must be >= 1, got {outer_cutoff}")
    fr = shape.frobenius()
    for k in range(-max(fr.q, default=0), max(fr.p, default=0) + 1):
        if complex(spec.z_at(k)).real <= 1:
            raise DomainError(f"the Dirichlet sum needs Re z > 1; content {k} has "
                              f"z = {spec.z_at(k)}")
    lhs = schur_eval(instance_from_spec(spec, shape), cfg)
    z0, y0, m_top = complex(spec.z_at(0)), spec.y_at(0), outer_cutoff
    w = power_tables()(m_top + 1, z0, y0)[1:]
    outer_tail = tail_integral(z0.real, m_top, y0)

    def bound(z: list[complex], y: list[float], b: int) -> float:
        # Per cell sum_{k >= b} (k + y)^(-sigma): its first term and the rest.
        return math.prod(majorant(complex(zv).real, b, yv, b) for zv, yv in zip(z, y))

    arms = {p: _zy(spec, range(1, p + 1)) for p in fr.p}
    legs = {q: _zy(spec, range(-1, -q - 1, -1)) for q in fr.q}
    star = {p: Approx(*chain_tails(*arms[p], (False,) * (p - 1), cfg, m_top, 0))
            for p in arms}
    strict = {q: Approx(*chain_tails(*legs[q], (True,) * (q - 1), cfg, m_top, 1))
              for q in legs}

    def entry(p: int, q: int) -> Approx:
        # The error adds the majorant of the tail past m_top, where the arm
        # chain starts at m and the strict leg chain at m + 1.
        terms = (star[p] * strict[q]).scale(w)
        tail = bound(*arms[p], m_top + 1) * bound(*legs[q], m_top + 2) * outer_tail
        return Approx(complex(np.sum(terms.value)), float(np.sum(terms.err_bound)) + tail)

    rhs = _strip_determinant(_hook_strips(shape), lambda a, b: entry(b, -a))
    return IdentityReport("dirichlet_series_expr", lhs, rhs)


# ---------------------------------------------------------------------------
# Derivative identities


def hook_pq(shape: Partition) -> tuple[int, int]:
    """(p, q) with shape = hook(p, q), the hook (p + 1, 1^q)."""
    parts = tuple(shape)
    if not parts or any(v != 1 for v in parts[1:]):
        raise UsageError(f"expected a hook shape (p + 1, 1^q), got {shape}")
    return parts[0] - 1, len(parts) - 1


def _raised(spec: ContentSpec, shape: Partition, ell: int, by: int) -> ContentSpec:
    """The spec with z_ell raised by ``by``; the shape must be a hook with
    an arm cell (or the corner) of content ell."""
    p, _ = hook_pq(shape)
    if not 0 <= ell <= p:
        raise UsageError(f"ell must be in 0..{p}")
    return ContentSpec({**spec.z, ell: spec.z_at(ell) + by}, spec.y)


def derivative_identity(
    spec: ContentSpec,
    shape: Partition,
    ell: int,
    order: int,
    cfg: EvalConfig = DEFAULT_CONFIG,
) -> IdentityReport:
    """The Frobenius check of a hook at z_ell + ``order``: its value with
    z_ell raised against ``_frobenius_rhs`` at the same raised spec.

    Content ell has one cell on a hook, so the k-th derivative in y_ell of
    the hook's value is (-1)^k (z_ell)(z_ell + 1)...(z_ell + k - 1) times
    this raised value.
    """
    if order not in (1, 2):
        raise UsageError("order must be 1 or 2")
    raised = _raised(spec, shape, ell, order)
    lhs = schur_eval(instance_from_spec(raised, shape), cfg)
    rhs = _frobenius_rhs(raised, shape, cfg)
    return IdentityReport(f"derivative_identity_{order}", lhs, rhs)


def derivative_fd_check(
    spec: ContentSpec,
    shape: Partition,
    ell: int,
    cfg: EvalConfig = DEFAULT_CONFIG,
    h: float = 1e-4,
) -> IdentityReport:
    """Cross-validate the order-1 identity against a central difference:
    the shift derivative should equal -z_ell times the shifted sum.

    In y = y_ell, D = (f(y + h) - f(y - h)) / 2h is within (h^2 / 6) times
    sup_{|t| <= h} |f'''(y + t)| of f'(y) (Taylor).  On a hook, content ell
    has one cell c and f''' = -z (z + 1)(z + 2) f(s + 3 e_c), which the series
    with real exponents at y - h bounds: |(m + y)^(-s)| = (m + y)^(-Re s),
    which needs h > 0.
    """
    if not h > 0:
        raise UsageError(f"step h must be > 0, got {h}")
    shifted = schur_eval(instance_from_spec(_raised(spec, shape, ell, 1), shape), cfg)
    y0, z = spec.y_at(ell), complex(spec.z_at(ell))
    if y0 - h < 0:
        raise DomainError(f"step {h} would push shift y_{ell} negative")

    def at(zs: dict, dy: float) -> Approx:
        moved = ContentSpec(zs, {**spec.y, ell: y0 + dy})
        return schur_eval(instance_from_spec(moved, shape), cfg)

    hi, lo = at(spec.z, h), at(spec.z, -h)
    third = at({**{k: v.real for k, v in spec.z.items()}, ell: z.real + 3}, -h)
    bounded = abs(third.value) + third.err_bound
    taylor = product_bound(
        lambda: h * h / 6 * abs(z * (z + 1) * (z + 2)) * bounded,
        lambda: np.log([h * h / 6, abs(z), abs(z + 1), abs(z + 2), bounded]).sum())
    lhs = (hi - lo).scale(0.5 / h) + Approx(0.0, taylor)
    return IdentityReport("derivative_fd_check", lhs, shifted.scale(-z))
