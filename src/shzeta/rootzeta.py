"""Zeta-functions of the root system of type A_r and their variants.

The base series puts one factor per positive root:

    zeta_r(s) = sum over m_1..m_r >= 1 of
                prod_{1 <= i < j <= r+1} (m_i + ... + m_{j-1})^(-s(i,j)).

Variants: ``zeta_bullet`` starts the first d variables at 0 and omits each
factor whose index block is entirely zero (the primed-sum rule, applied to
factors, as literally stated); ``zeta_H`` adds a positive shift x inside
every factor; ``zeta_bullet_H`` combines both but keeps all factors (x > 0
prevents singular terms).

Evaluation is a direct nested sum (no reindexing to Euler-Zagier chains, so
the reduction identities remain genuine cross-checks against the chain
evaluator).  The innermost variable is summed analytically via a
precomputed reverse-cumulative tail table whenever it appears in exactly
one factor with nonzero exponent — in particular for all reduced (6.5)/(6.6)
configurations — and the remaining truncation tails are certified with
integral bounds that accumulate the decay of inner levels.
"""

from __future__ import annotations

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
    em_tail,
    ez_zeta,
    ez_zeta_star_star,
    neg_power,
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


def _tail_table(
    s: complex, x: float, top: int, first: int
) -> tuple[np.ndarray, float]:
    """T[v] = sum_{u >= v} (x + u)^(-s) for first <= v <= top, via a reverse
    cumulative sum capped with an Euler-Maclaurin tail; returns (table,
    per-entry error bound).  Entries below ``first`` are unused (zero)."""
    a = neg_power(np.arange(0, top + 1, dtype=np.float64) + x, complex(s))
    a[:first] = 0.0
    # Analytic remainder beyond the table.
    em, em_err = em_tail(1.0, complex(s), top + 1 + x)
    table = np.cumsum(a[::-1])[::-1] + em
    return table, float(em_err)


def _eval_nested(
    e: RootExponents,
    x: float,
    d: int,
    primed: bool,
    cfg: EvalConfig,
) -> Approx:
    """Shared core: first d variables start at 0, the rest at 1."""
    r = e.r
    if r == 0:
        return APPROX_ONE
    if r > MAX_DEPTH:
        raise UsageError(f"depth {r} exceeds the supported maximum {MAX_DEPTH}")
    if d > 0 and x <= 0 and not primed:
        raise DomainError("zero-started variables need x > 0 or the primed rule")
    _check_domain(e)

    m = cfg.cutoff
    starts = [0 if i <= d else 1 for i in range(1, r + 1)]
    # The innermost variable can be summed in closed (tabulated) form when
    # it appears in exactly one factor with a nonzero exponent.
    analytic_last = all(e.s[(i, r + 1)] == 0 for i in range(2, r + 1))
    s_last = e.s[(1, r + 1)]

    def factor_array(
        i: int, j: int, offsets: np.ndarray, int_offsets: np.ndarray
    ) -> np.ndarray:
        """(x + offset)^(-s(i,j)) with the primed replacement where the
        integer part of the offset vanishes."""
        s_ij = e.s[(i, j)]
        if s_ij == 0:
            return np.ones_like(offsets, dtype=np.complex128)
        # Zero bases come out as 0; outside the primed rule they are always
        # masked by a zero weight (genuine unshifted zero terms are rejected
        # up front).
        out = neg_power(offsets + x, s_ij)
        if primed and j <= d + 1:
            out[int_offsets == 0] = 1.0
        return out

    if analytic_last and r >= 1:
        top = (r - 1) * m + m + 1
        table, em_err = _tail_table(s_last, x, top, first=1)
        # Entry for a query index 0 (possible only when the last variable
        # starts at 0): with the primed rule the zero term contributes an
        # omitted factor (i.e. 1); with x > 0 it is a genuine term.
        if starts[-1] == 0:
            if primed:
                zero_entry = 1.0 + table[1]
            else:
                zero_entry = (x ** (-complex(s_last))) + table[1]
            table = table.copy()
            table[0] = zero_entry
    else:
        table, em_err = None, 0.0

    if analytic_last and r == 1:
        return Approx(complex(table[starts[0]]), em_err)

    total = 0.0 + 0.0j
    em_weight = 0.0  # accumulated |weights| multiplying table entries

    # Python loops over variables 1..r-2, numpy vector over variable r-1
    # (or r when there is no analytic last variable).
    vec_level = r - 1 if (analytic_last and r >= 2) else r
    loop_levels = list(range(1, vec_level))

    vec_vals = np.arange(0, m + 1, dtype=np.float64)
    vec_lo = starts[vec_level - 1]

    def vec_contrib(prefix: list[int], weight: complex) -> None:
        nonlocal total, em_weight
        # offsets for factors (i, vec_level+1): partial sums m_i..m_vec.
        pre = [0]
        for v in prefix:
            pre.append(pre[-1] + v)
        w = np.full(m + 1, weight, dtype=np.complex128)
        w[:vec_lo] = 0.0
        ints = np.arange(0, m + 1, dtype=np.int64)
        for i in range(1, vec_level + 1):
            off_int = ints + (pre[vec_level - 1] - pre[i - 1])
            w = w * factor_array(
                i, vec_level + 1, off_int.astype(np.float64), off_int
            )
        if vec_level == r:
            total += complex(w.sum())
            return
        # analytic last variable: query the tail table at the accumulated
        # index plus the last variable's start.
        q = ints + pre[vec_level - 1] + starts[-1]
        total += complex(np.sum(w * table[q]))
        em_weight += float(np.sum(np.abs(w)))

    def rec(level: int, prefix: list[int], weight: complex) -> None:
        if level == vec_level:
            vec_contrib(prefix, weight)
            return
        lo = starts[level - 1]
        pre = [0]
        for v in prefix:
            pre.append(pre[-1] + v)
        for m_l in range(lo, m + 1):
            wl = weight
            for i in range(1, level + 1):
                off = pre[level - 1] - pre[i - 1] + m_l
                s_ij = e.s[(i, level + 1)]
                if s_ij == 0:
                    continue
                if off == 0:
                    if primed and level + 1 <= d + 1:
                        continue
                    if x <= 0:
                        raise DomainError("singular term: zero base")
                wl = wl * (off + x) ** (-s_ij)
            rec(level + 1, prefix + [m_l], wl)

    rec(1, [], 1.0 + 0.0j)

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

    Factors with i >= 2 are bounded by their value at the smallest possible
    base; the chain factors s(1, l+1) (all with real part > 1 under the
    domain criterion) drive the decay.  Inner levels are integral-bounded
    with exponents accumulated outward:

        E_r = w_r - 1,   E_l = w_l + E_{l+1} - 1,
        A_r = 1/min_base + 1/(w_r - 1),   A_l = A_{l+1} / E_l,

    so the tail at level l is A_{l+1} (x + M)^(-E_l) / E_l times the full
    majorant sums of the levels outside it.
    """
    r = e.r
    w = [e.sigma(1, ell + 1) for ell in range(1, r + 1)]  # w[0] = sigma(1,2)
    min_base = x + min(starts) if x > 0 else max(x + min(starts), 1.0)
    c_other = 1.0
    for (i, j), v in e.s.items():
        if i >= 2 and v.real > 0:
            c_other *= max(1.0, min_base ** (-v.real))

    # Accumulate inward->outward coefficients.  A[l] bounds the full sum
    # over variables l..r as a multiple of (x + S_{l-1} + lowest)^(-E[l]).
    E = [0.0] * (r + 2)
    A = [1.0] * (r + 2)
    E[r] = w[r - 1] - 1.0
    A[r] = 1.0 / max(min_base, 1e-12) + 1.0 / (w[r - 1] - 1.0)
    for ell in range(r - 1, 0, -1):
        E[ell] = w[ell - 1] + E[ell + 1] - 1.0
        A[ell] = A[ell + 1] * (
            1.0 / max(min_base, 1e-12) + 1.0 / E[ell]
        )

    # Full one-variable majorant sums for levels outside a truncated level.
    def majorant(ell: int) -> float:
        lo = max(starts[ell - 1], 1)
        sig = w[ell - 1]
        ks = np.arange(lo, m + 1, dtype=np.float64)
        partial = float(np.sum((ks + x) ** (-sig)))
        if starts[ell - 1] == 0:
            partial += 1.0 if x <= 0 else x ** (-sig)  # primed or shifted
        return partial + (m + x) ** (1.0 - sig) / (sig - 1.0)

    truncated = range(1, r) if analytic_last else range(1, r + 1)
    err = 0.0
    for ell in truncated:
        outer = math.prod(majorant(k) for k in range(1, ell))
        inner = A[ell + 1] if ell < r else 1.0
        err += outer * inner * (m + x) ** (-E[ell]) / max(E[ell], 1e-12)
    return c_other * err


def zeta_Ar(e: RootExponents, cfg: EvalConfig = DEFAULT_CONFIG) -> Approx:
    """The type-A_r series with all variables starting at 1."""
    return _eval_nested(e, 0.0, d=0, primed=True, cfg=cfg)


def zeta_bullet(
    e: RootExponents, d: int, cfg: EvalConfig = DEFAULT_CONFIG
) -> Approx:
    """First d variables start at 0; zero-block factors are omitted."""
    if not 0 <= d <= e.r:
        raise UsageError(f"d must be in 0..{e.r}")
    return _eval_nested(e, 0.0, d=d, primed=True, cfg=cfg)


def zeta_H(
    e: RootExponents, x: float, cfg: EvalConfig = DEFAULT_CONFIG
) -> Approx:
    """Shifted series: every factor becomes (x + m_i + ... + m_{j-1})^(-s)."""
    if x <= 0:
        raise DomainError("shift x must be positive")
    return _eval_nested(e, x, d=0, primed=False, cfg=cfg)


def zeta_bullet_H(
    e: RootExponents, d: int, x: float, cfg: EvalConfig = DEFAULT_CONFIG
) -> Approx:
    """Shifted series with the first d variables starting at 0 and no
    factor omitted (the shift keeps every term finite)."""
    if x <= 0:
        raise DomainError("shift x must be positive")
    if not 0 <= d <= e.r:
        raise UsageError(f"d must be in 0..{e.r}")
    return _eval_nested(e, x, d=d, primed=False, cfg=cfg)


@dataclass(frozen=True)
class ReductionReport:
    """Both sides of a reduction identity with their discrepancy."""

    kind: str  # "star_star" or "strict"
    lhs: Approx
    rhs: Approx

    @property
    def discrepancy(self) -> float:
        return abs(self.lhs.value - self.rhs.value)

    @property
    def budget(self) -> float:
        return self.lhs.err_bound + self.rhs.err_bound

    def passes(self, slack: float = 1e-9) -> bool:
        """Within the budget plus ``slack`` times the larger |side|."""
        scale = max(abs(self.lhs.value), abs(self.rhs.value))
        return self.discrepancy <= self.budget + slack * scale


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
