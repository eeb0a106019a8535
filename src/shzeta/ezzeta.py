"""Certified evaluation of Euler-Zagier multiple Hurwitz zeta-functions.

The three variants differ only in their index chains:

* ``ez_zeta``           : 0 < m_1 <  m_2 <  ... <  m_r   (strict)
* ``ez_zeta_star``      : 0 < m_1 <= m_2 <= ... <= m_r   (weak, from 1)
* ``ez_zeta_star_star`` : 0 <= m_1 <= ... <= m_r, all shifts > 0

Each term is prod_i (m_i + y_i)^(-s_i).  Evaluation is an O(r*M) prefix-sum
dynamic program over a single cutoff M, and every result carries a rigorous
truncation-error bound valid under the stated convergence hypotheses
(Re s_r > 1, Re s_i >= 1 for i < r).

Conventions: depth 0 returns exactly 1 and negative depth exactly 0, so
determinant entries of vanishing or negative depth need no special casing.

The general chain evaluator also accepts arbitrary mixed strict/weak
relations; the Schur-series module reduces semi-standard tableau sums to
such chains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class EvalConfig:
    """Controls the truncation cutoff and tail-bound mode.

    ``bound_only`` sums to the cutoff and certifies the remainder with a
    majorant bound; ``integral_correction`` additionally adds an
    Euler-Maclaurin correction on the outermost variable (used where the
    error budget is tight), falling back to ``bound_only`` when an inner
    exponent has real part <= 1.
    """

    cutoff: int = 2000
    tail_mode: str = "integral_correction"
    override_domain: bool = False

    def __post_init__(self) -> None:
        if self.cutoff < 1:
            raise ValueError("cutoff must be >= 1")
        if self.tail_mode not in ("bound_only", "integral_correction"):
            raise ValueError(f"unknown tail_mode {self.tail_mode!r}")


DEFAULT_CONFIG = EvalConfig()


@dataclass(frozen=True)
class Approx:
    """A numeric value with a rigorous absolute-error bound."""

    value: complex
    err_bound: float

    def __add__(self, other: "Approx") -> "Approx":
        return Approx(self.value + other.value, self.err_bound + other.err_bound)

    def __sub__(self, other: "Approx") -> "Approx":
        return Approx(self.value - other.value, self.err_bound + other.err_bound)

    def __mul__(self, other: "Approx") -> "Approx":
        # |ab - a'b'| <= |a| eb + |b| ea + ea eb
        ea, eb = self.err_bound, other.err_bound
        return Approx(
            self.value * other.value,
            abs(self.value) * eb + abs(other.value) * ea + ea * eb,
        )

    def __neg__(self) -> "Approx":
        return Approx(-self.value, self.err_bound)

    def scale(self, c: complex) -> "Approx":
        return Approx(c * self.value, abs(c) * self.err_bound)


APPROX_ONE = Approx(1.0 + 0.0j, 0.0)
APPROX_ZERO = Approx(0.0 + 0.0j, 0.0)


def _tail_integral(sigma: float, m: int, y: float) -> float:
    """Upper bound for sum_{k > m} (k + y)^(-sigma), sigma > 1.

    For sigma <= 1 (reachable only with ``override_domain``) the tail
    diverges, so the honest bound is infinite.
    """
    if sigma <= 1.0:
        return math.inf
    return (m + y) ** (1.0 - sigma) / (sigma - 1.0)


def neg_power(base: np.ndarray, s: complex) -> np.ndarray:
    """Elementwise base^(-s), with 0 wherever base <= 0."""
    with np.errstate(divide="ignore"):
        logs = np.log(np.where(base > 0, base, 1.0))
    out = np.exp(-s * logs)
    out[base <= 0] = 0.0
    return out


def em_tail(c: complex, s: complex, base: float) -> tuple[complex, float]:
    """Euler-Maclaurin value of c * sum_{k >= 0} (base + k)^(-s), Re s > 1,
    with a bound on its error:

        sum_{k >= a} f(k) = int_a^inf f + f(a)/2 + R,
        |R| <= (1/12) int_a^inf |f''|.
    """
    sigma = s.real
    value = c * (base ** (1.0 - s) / (s - 1.0) + 0.5 * base ** (-s))
    err = (
        abs(c) * abs(s * (s + 1.0)) * base ** (-sigma - 1.0) / (12.0 * (sigma + 1.0))
    )
    return value, err


def _check_chain_domain(s: Sequence[complex], override: bool) -> None:
    if not s:
        return
    sig = [complex(v).real for v in s]
    ok = sig[-1] > 1.0 and all(v >= 1.0 for v in sig[:-1])
    if not ok and not override:
        raise DomainError(
            "exponents outside the absolute-convergence domain "
            f"(need Re > 1 at the last slot, Re >= 1 before; got {sig})"
        )


def eval_chain(
    s: Sequence[complex],
    y: Sequence[float],
    strict: Sequence[bool],
    cfg: EvalConfig = DEFAULT_CONFIG,
    first_min: int = 1,
) -> Approx:
    """Evaluate sum over m_1 R_1 m_2 ... R_{r-1} m_r of prod (m_i+y_i)^(-s_i).

    ``strict[i]`` chooses R_{i+1} as ``<`` (True) or ``<=`` (False); the
    chain starts at m_1 >= first_min.  Depth 0 returns exactly 1.

    Because the chain is monotone, truncating every variable at the cutoff M
    is the same as truncating the last variable, so the tail is exactly the
    sum over chains with m_r > M.  It is certified through upper bounds
    Hbar_i on the full inner sums, built recursively from the DP's own
    absolute-value partial sums:

        Hbar_0 = 1,
        Hbar_i = Habs_i(M) + Hbar_{i-1} * int_M^inf (t+y_i)^(-sigma_i) dt,

    which stay of the same magnitude as the chain's actual nested sums
    (a loose product of one-variable majorants would not).
    """
    r = len(s)
    if r == 0:
        return APPROX_ONE
    if len(y) != r or len(strict) != r - 1:
        raise ValueError("length mismatch between s, y, strict")
    if first_min == 0 and y[0] <= 0:
        raise DomainError("a chain starting at 0 needs a positive first shift")
    _check_chain_domain(s, cfg.override_domain)

    m = cfg.cutoff
    sigmas = [complex(v).real for v in s]
    idx = np.arange(0, m + 1, dtype=np.float64)

    # Minimal admissible value of each variable.
    lows = [first_min]
    for st in strict:
        lows.append(lows[-1] + (1 if st else 0))

    def powers(i: int, absolute: bool) -> np.ndarray:
        # Indices below lows[i] may overflow (tiny base, negative log);
        # they are zeroed below, so the overflow is silenced, not fixed.
        with np.errstate(over="ignore"):
            a = neg_power(idx + y[i], sigmas[i] if absolute else complex(s[i]))
        a[: lows[i]] = 0.0
        return a

    eps_slots = [i for i in range(r - 1) if sigmas[i] <= 1.0]
    sigma_r = sigmas[-1]
    track_hbar = not eps_slots

    f = powers(0, absolute=False)
    fabs = powers(0, absolute=True) if track_hbar else None
    hbars = [1.0]  # Hbar_0 .. Hbar_{r-1}
    if track_hbar:
        hbars.append(
            float(fabs.sum()) + _tail_integral(sigmas[0], m, y[0])
        )
    inner_prefix_at_cutoff = 1.0 + 0.0j  # H_{r-1}(M), frozen for the EM tail
    for i in range(1, r):
        c = np.cumsum(f)
        if strict[i - 1]:
            h = np.concatenate(([0.0 + 0.0j], c[:-1]))
        else:
            h = c
        if i == r - 1:
            # Freeze the full prefix through M (for a strict relation this
            # still underlies every tail term, since m_r > M implies the
            # prefix may run through M).
            inner_prefix_at_cutoff = complex(c[m])
        f = powers(i, absolute=False) * h
        if track_hbar:
            cabs = np.cumsum(fabs)
            habs = np.concatenate(([0.0], cabs[:-1])) if strict[i - 1] else cabs
            fabs = powers(i, absolute=True) * habs
            hbars.append(
                float(fabs.sum())
                + hbars[-1] * _tail_integral(sigmas[i], m, y[i])
            )
    value = complex(f.sum())

    if not track_hbar:
        # Some inner exponent sits on the Re = 1 boundary: bound each such
        # factor's logarithmic partial sum by c_eps * (n+Y)^eps with
        #   sum_{k<=n} (k+y)^(-1) <= 1/(lo+y) + ln(n+y) <= c_eps (n+Y)^eps,
        # choosing eps so the outer exponent stays > 1, and bound the
        # remaining factors by full one-variable majorants.
        k = len(eps_slots)
        eps = (sigma_r - 1.0) / (2.0 * k)
        if eps <= 0:
            raise DomainError("outermost exponent must exceed 1 strictly")
        c_eps = 1.0
        for i in eps_slots:
            c_eps *= 1.0 / max(lows[i] + y[i], 1.0) + 1.0 / eps
        others = 1.0
        for i in range(r - 1):
            if i in eps_slots:
                continue
            base = idx[lows[i] :] + y[i]
            others *= float(np.sum(base ** (-sigmas[i]))) + _tail_integral(
                sigmas[i], m, y[i]
            )
        y_max = max(y)
        sigma_eff = sigma_r - k * eps
        tail = (
            c_eps
            * others
            * (1.0 + y_max) ** (k * eps)
            * m ** (1.0 - sigma_eff)
            / (sigma_eff - 1.0)
        )
        return Approx(value, tail)

    use_em = cfg.tail_mode == "integral_correction" and sigma_r > 1.0
    if not use_em:
        tail = hbars[r - 1] * _tail_integral(sigma_r, m, y[-1])
        return Approx(value, tail)

    # Freeze the inner prefix at the cutoff and treat the outer tail as
    # c * sum_{k > M} (k + y_r)^(-s_r), corrected by Euler-Maclaurin.
    em_value, em_remainder = em_tail(
        inner_prefix_at_cutoff, complex(s[-1]), m + 1 + y[-1]
    )
    # Residual from freezing the inner prefix: chains whose next-to-last
    # variable also exceeds the cutoff.
    if r >= 2:
        frozen_residual = (
            hbars[r - 2]
            * _tail_integral(sigmas[r - 2], m, y[r - 2])
            * _tail_integral(sigma_r, m, y[-1])
        )
    else:
        frozen_residual = 0.0
    return Approx(value + em_value, em_remainder + frozen_residual)


def _normalize(
    s: Sequence[complex], y: "Sequence[float] | None", depth: int | None
) -> tuple[tuple[complex, ...], tuple[float, ...], int]:
    if depth is None:
        depth = len(s)
    if depth < 0:
        return (), (), depth
    sv = tuple(complex(v) for v in s)
    if len(sv) != depth:
        raise ValueError(f"need {depth} exponents, got {len(sv)}")
    if y is None:
        yv: tuple[float, ...] = (0.0,) * depth
    else:
        yv = tuple(float(v) for v in y)
        if len(yv) != depth:
            raise ValueError(f"need {depth} shifts, got {len(yv)}")
    return sv, yv, depth


def ez_zeta(
    s: Sequence[complex],
    y: "Sequence[float] | None" = None,
    cfg: EvalConfig = DEFAULT_CONFIG,
    depth: int | None = None,
) -> Approx:
    """Strict-chain multiple zeta: 0 < m_1 < ... < m_r."""
    sv, yv, depth = _normalize(s, y, depth)
    if depth < 0:
        return APPROX_ZERO
    if depth == 0:
        return APPROX_ONE
    return eval_chain(sv, yv, (True,) * (depth - 1), cfg, first_min=1)


def ez_zeta_star(
    s: Sequence[complex],
    y: "Sequence[float] | None" = None,
    cfg: EvalConfig = DEFAULT_CONFIG,
    depth: int | None = None,
) -> Approx:
    """Weak-chain multiple zeta: 0 < m_1 <= ... <= m_r."""
    sv, yv, depth = _normalize(s, y, depth)
    if depth < 0:
        return APPROX_ZERO
    if depth == 0:
        return APPROX_ONE
    return eval_chain(sv, yv, (False,) * (depth - 1), cfg, first_min=1)


def ez_zeta_star_star(
    s: Sequence[complex],
    y: Sequence[float],
    cfg: EvalConfig = DEFAULT_CONFIG,
    depth: int | None = None,
) -> Approx:
    """Weak chain starting at 0: 0 <= m_1 <= ... <= m_r; all shifts > 0."""
    sv, yv, depth = _normalize(s, y, depth)
    if depth < 0:
        return APPROX_ZERO
    if depth == 0:
        return APPROX_ONE
    if any(v <= 0 for v in yv):
        raise DomainError("the chain starts at 0, so every shift must be positive")
    return eval_chain(sv, yv, (False,) * (depth - 1), cfg, first_min=0)


def hurwitz(s: complex, x: float, cfg: EvalConfig = DEFAULT_CONFIG) -> Approx:
    """The Hurwitz zeta sum_{m >= 0} (m + x)^(-s), Re s > 1, x > 0."""
    if x <= 0:
        raise DomainError("Hurwitz shift must be positive")
    return ez_zeta_star_star((s,), (x,), cfg)
