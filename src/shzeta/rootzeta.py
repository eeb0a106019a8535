"""Zeta-functions of the root system of type A_r and their variants.

The base series puts one factor per positive root:

    zeta_r(s) = sum over m_1..m_r >= 1 of
                prod_{1 <= i < j <= r+1} (m_i + ... + m_{j-1})^(-s(i,j)).

Variants: ``zeta_bullet`` starts the first d variables at 0 and omits each
factor whose index block is entirely zero (the primed-sum rule, applied to
factors, as literally stated); ``zeta_H`` adds a positive shift x inside
every factor; ``zeta_bullet_H`` combines both but keeps all factors (x > 0
prevents singular terms).  So the primed rule holds exactly when x == 0.

Evaluation is a direct nested sum (no reindexing to Euler-Zagier chains, so
the reduction identities remain genuine cross-checks against the chain
evaluator).  Every summed level builds one numpy vector of its factors from
one power table per root factor, read from the kernel's table builder
(``ezzeta.power_tables``, so shared per ``power_table_scope``); outer levels
iterate over its entries.  The last variable is summed analytically, from the
reverse cumulative sum of its factor's table, whenever it appears in
exactly one factor with nonzero exponent — in particular for all reduced
(6.5)/(6.6) configurations — and the remaining truncation tails are
certified with integral bounds that accumulate the decay of inner levels.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import DomainError, UsageError
from .ezzeta import (
    APPROX_ONE,
    Approx,
    DEFAULT_CONFIG,
    EvalConfig,
    TwoSided,
    em_tail,
    ez_zeta,
    ez_zeta_star_star,
    majorant,
    power_tables,
)

MAX_DEPTH = 4


@dataclass(frozen=True)
class RootExponents:
    """Exponents s(i, j) indexed by the pairs 1 <= i < j <= r+1."""

    r: int
    s: Mapping[tuple[int, int], complex]

    def __post_init__(self) -> None:
        if self.r < 0:
            raise UsageError("depth r must be nonnegative")
        expected = {
            (i, j)
            for i in range(1, self.r + 1)
            for j in range(i + 1, self.r + 2)
        }
        s = {
            (int(i), int(j)): complex(v) for (i, j), v in self.s.items()
        }
        if set(s) != expected:
            raise UsageError(
                f"exponent map must cover exactly the {len(expected)} pairs "
                f"(i, j) with 1 <= i < j <= {self.r + 1}"
            )
        object.__setattr__(self, "s", s)

    def sigma(self, i: int, j: int) -> float:
        return self.s[(i, j)].real

    @classmethod
    def from_flat(cls, r: int, values: Sequence[complex]) -> "RootExponents":
        """Flat list in the display ordering: pairs grouped by j - i
        ascending, then by i ascending within each group."""
        pairs = [
            (i, i + gap)
            for gap in range(1, r + 1)
            for i in range(1, r + 2 - gap)
        ]
        if len(values) != len(pairs):
            raise UsageError(
                f"need {len(pairs)} exponents for depth {r}, got {len(values)}"
            )
        return cls(r, dict(zip(pairs, values)))

    @classmethod
    def chain(cls, z: Sequence[complex]) -> "RootExponents":
        """s(1, l+1) = z_l and zero on every pair with i >= 2."""
        r = len(z)
        s = {
            (i, j): 0.0 + 0.0j
            for i in range(1, r + 1)
            for j in range(i + 1, r + 2)
        }
        for ell, v in enumerate(z, start=1):
            s[(1, ell + 1)] = complex(v)
        return cls(r, s)


def _check_domain(e: RootExponents) -> None:
    """Conservative sufficient criterion for absolute convergence."""
    bad = [(i, j) for (i, j), v in e.s.items() if v.real < 0]
    if bad:
        raise DomainError(f"negative real part at pairs {bad}")
    weak = [j for j in range(2, e.r + 2) if e.sigma(1, j) <= 1.0]
    if weak:
        raise DomainError(
            f"need Re s(1, j) > 1 for all j >= 2; violated at j in {weak}"
        )


def _eval_nested(e: RootExponents, x: float, d: int, cfg: EvalConfig) -> Approx:
    """Shared core: the first d variables start at 0, the rest at 1.

    With x == 0 the primed rule applies: a factor whose base is 0 (possible
    only on a block of zero-started variables) is omitted, i.e. counts as 1.

    Each factor (i, j) reads a table (x + k)^(-s(i, j)), k = 0..(j-i)*M,
    from ``power_tables``; it writes into none, so a primed factor (x == 0
    on a zero-started block) takes a copy with index 0 set to 1.  Level l,
    carrying the partial sums m_i + ... + m_{l-1}, builds one numpy vector
    over m_l = 0..M: its weight times the table slices of the factors
    (i, l+1), zeroed below the start after the products, so a tiny x's
    overflow at index 0 never meets a 0.
    An outer level recurses on each entry; the innermost summed level v adds
    its vector up.  When the last variable r appears only in the factor
    (1, r+1), v = r - 1 and the vector is dotted with the reverse cumulative
    sum of the (1, r+1) table capped with ``em_tail``.
    """
    r = e.r
    if r == 0:
        return APPROX_ONE
    if r > MAX_DEPTH:
        raise UsageError(f"depth {r} exceeds the supported maximum {MAX_DEPTH}")
    _check_domain(e)

    m = cfg.cutoff
    starts = [0 if i <= d else 1 for i in range(1, r + 1)]
    analytic_last = all(e.s[(i, r + 1)] == 0 for i in range(2, r + 1))
    vec = r - 1 if analytic_last else r

    table = power_tables()

    def power_table(i: int, j: int, top: int) -> np.ndarray:
        t = table(top + 1, e.s[(i, j)], x)
        if x == 0 and j <= d + 1:  # primed: the zero-base factor is omitted
            t = t.copy()
            t[0] = 1.0
        return t

    em_err = 0.0
    if analytic_last:
        top = r * m + 1
        em, em_err = em_tail(1.0, e.s[(1, r + 1)], top + 1 + x)
        # Summed from the far end: the Euler-Maclaurin cap first.
        tail = np.cumsum(np.append(power_table(1, r + 1, top), em)[::-1])[::-1]
    tables = {
        (i, j): power_table(i, j, (j - i) * m)
        for j in range(2, vec + 2)
        for i in range(1, j)
        if e.s[(i, j)] != 0
    }

    total = 0.0 + 0.0j
    em_weight = 0.0  # sum of |weights| multiplying tail entries

    def rec(level: int, sums: list[int], weight: complex) -> None:
        # sums[i - 1] = m_i + ... + m_{level-1}, the base offset of factor
        # (i, level + 1) before m_level is added.
        nonlocal total, em_weight
        w = np.full(m + 1, weight, dtype=np.complex128)
        for i, c in enumerate(sums, start=1):
            if (i, level + 1) in tables:
                w = w * tables[(i, level + 1)][c : c + m + 1]
        w[: starts[level - 1]] = 0.0
        if level < vec:
            for m_l in range(starts[level - 1], m + 1):
                rec(level + 1, [c + m_l for c in sums] + [0], w[m_l])
        elif analytic_last:
            q = sums[0] + starts[-1]
            total += complex(np.sum(w * tail[q : q + m + 1]))
            em_weight += float(np.sum(np.abs(w)))
        else:
            total += complex(w.sum())

    # An overflow (a tiny x on a zero-started block) leaves total non-finite.
    with np.errstate(over="ignore", invalid="ignore"):
        if vec:
            rec(1, [0], 1.0 + 0.0j)
        else:  # depth 1: the tail is the whole sum
            total, em_weight = complex(tail[starts[0]]), 1.0
    if not cmath.isfinite(total):
        raise DomainError(f"the sum overflows the double range (shift {x})")

    err = _truncation_bound(e, x, starts, analytic_last, m)
    err += em_weight * em_err
    return Approx(total, err)


def _truncation_bound(
    e: RootExponents,
    x: float,
    starts: list[int],
    analytic_last: bool,
    m: int,
) -> float:
    """Certified bound on the sum over index tuples with some truncated
    variable exceeding the cutoff.

    Factors with i >= 2 are bounded by their value at their own least base,
    x plus the one-started variables in their block (at x = 0 a zero block is
    omitted, primed); the chain factors s(1, l+1) (Re > 1 under the domain
    criterion) drive the decay.  Inner levels are integral-bounded with
    exponents accumulated outward:

        E_{r+1} = 0,   E_l = w_l + E_{l+1} - 1,
        A_{r+1} = 1,   A_l = A_{l+1} (1/min_base + 1/E_l),

    so the tail at level l is A_{l+1} (x + M)^(-E_l) / E_l times the full
    majorant sums of the levels outside it.
    """
    r = e.r
    w = [e.sigma(1, ell + 1) for ell in range(1, r + 1)]  # w[0] = sigma(1,2)
    min_base = x + min(starts) if x > 0 else max(x + min(starts), 1.0)
    c_other = 1.0
    for (i, j), v in e.s.items():
        base = x + sum(starts[i - 1 : j - 1])
        if i >= 2 and v.real > 0 and base > 0:
            c_other *= max(1.0, base ** (-v.real))

    # Accumulate inward->outward coefficients.  A[l] bounds the full sum
    # over variables l..r as a multiple of (x + S_{l-1} + lowest)^(-E[l]).
    E = [0.0] * (r + 2)
    A = [1.0] * (r + 2)
    for ell in range(r, 0, -1):
        E[ell] = w[ell - 1] + E[ell + 1] - 1.0
        A[ell] = A[ell + 1] * (1.0 / max(min_base, 1e-12) + 1.0 / E[ell])

    # Full one-variable majorant sums for levels outside a truncated level.
    def level_majorant(ell: int) -> float:
        sig = w[ell - 1]
        total = majorant(sig, max(starts[ell - 1], 1), x, m)
        if starts[ell - 1] == 0:
            total += 1.0 if x <= 0 else x ** (-sig)  # primed or shifted
        return total

    truncated = range(1, r) if analytic_last else range(1, r + 1)
    err = 0.0
    for ell in truncated:
        outer = math.prod(level_majorant(k) for k in range(1, ell))
        err += outer * A[ell + 1] * (m + x) ** (-E[ell]) / max(E[ell], 1e-12)
    return c_other * err


def zeta_Ar(e: RootExponents, cfg: EvalConfig = DEFAULT_CONFIG) -> Approx:
    """The type-A_r series with all variables starting at 1."""
    return _eval_nested(e, 0.0, d=0, cfg=cfg)


def zeta_bullet(
    e: RootExponents, d: int, cfg: EvalConfig = DEFAULT_CONFIG
) -> Approx:
    """First d variables start at 0; zero-block factors are omitted."""
    if not 0 <= d <= e.r:
        raise UsageError(f"d must be in 0..{e.r}")
    return _eval_nested(e, 0.0, d=d, cfg=cfg)


def zeta_H(
    e: RootExponents, x: float, cfg: EvalConfig = DEFAULT_CONFIG
) -> Approx:
    """Shifted series: every factor becomes (x + m_i + ... + m_{j-1})^(-s)."""
    if x <= 0:
        raise DomainError("shift x must be positive")
    return _eval_nested(e, x, d=0, cfg=cfg)


def zeta_bullet_H(
    e: RootExponents, d: int, x: float, cfg: EvalConfig = DEFAULT_CONFIG
) -> Approx:
    """Shifted series with the first d variables starting at 0 and no
    factor omitted (the shift keeps every term finite)."""
    if x <= 0:
        raise DomainError("shift x must be positive")
    if not 0 <= d <= e.r:
        raise UsageError(f"d must be in 0..{e.r}")
    return _eval_nested(e, x, d=d, cfg=cfg)


@dataclass(frozen=True)
class ReductionReport(TwoSided):
    """Both sides of a reduction identity: ``discrepancy``, ``budget`` and
    the pass rule, ``passes()``, are ``TwoSided``'s."""

    kind: str  # "star_star" or "strict"
    lhs: Approx
    rhs: Approx


def check_reductions(
    z_plus: Sequence[complex],
    z_minus: Sequence[complex],
    shift_base: float,
    cfg: EvalConfig = DEFAULT_CONFIG,
) -> list[ReductionReport]:
    """Verify the two reductions of shifted root-system zetas to
    Euler-Zagier form:

    * all-zero-started shifted series over p variables vs. the weak chain
      from 0 with constant shift;
    * the all-one-started shifted series over q variables vs. the strict
      chain with constant shift.
    """
    reports = []
    p = len(z_plus)
    if p:
        lhs = zeta_bullet_H(RootExponents.chain(z_plus), p, shift_base, cfg)
        rhs = ez_zeta_star_star(z_plus, (shift_base,) * p, cfg)
        reports.append(ReductionReport("star_star", lhs, rhs))
    q = len(z_minus)
    if q:
        lhs = zeta_H(RootExponents.chain(z_minus), shift_base, cfg)
        rhs = ez_zeta(z_minus, (shift_base,) * q, cfg)
        reports.append(ReductionReport("strict", lhs, rhs))
    return reports
