"""Reference values that live with the benchmark, independent of the kernels.

* Constant-exponent chains: with x_m = (m + y)^(-s) the strict chain of depth
  n is the elementary symmetric function e_n(x) and the weak chain is the
  complete homogeneous h_n(x).  Newton's identities give both from the power
  sums p_k = sum_m x_m^k, which are Hurwitz zeta values zeta(k s, a) that
  mpmath evaluates to any precision.
* Boundary chains zeta(1, n) (an inner exponent with Re = 1): Euler's formula
  for the depth-2 multiple zeta value zeta(n, 1).
* Exact truncations: a brute-force sum over every filling of the cells by
  1..N, keeping the semi-standard ones.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import mpmath

DPS = 40
mpmath.mp.dps = DPS
# Absolute error allowed for a reference value, relative to its size.
REF_RTOL = 1e-30


def _chain_from_power_sums(p: list, n: int, strict: bool):
    e = [mpmath.mpf(1)]
    for k in range(1, n + 1):
        acc = mpmath.mpf(0)
        for i in range(1, k + 1):
            sign = (-1) ** (i - 1) if strict else 1
            acc += sign * e[k - i] * p[i]
        e.append(acc / k)
    return e[n]


def constant_chain(s: complex, y: float, depth: int, variant: str) -> complex:
    """Reference for ez_zeta / ez_zeta_star / ez_zeta_star_star with every
    exponent equal to ``s`` and every shift equal to ``y``."""
    s_mp = mpmath.mpc(s.real, s.imag)
    a = mpmath.mpf(y) + (0 if variant == "star_star" else 1)
    p = [None] + [mpmath.zeta(k * s_mp, a) for k in range(1, depth + 1)]
    return complex(_chain_from_power_sums(p, depth, variant == "strict"))


def hurwitz(s: complex, x: float) -> complex:
    return complex(mpmath.zeta(mpmath.mpc(s.real, s.imag), mpmath.mpf(x)))


def zeta_one_n(n: int, star: bool) -> complex:
    """sum_{0 < m1 < m2} m1^-1 m2^-n (Euler), plus zeta(n+1) for the weak chain."""
    z = mpmath.zeta
    v = mpmath.mpf(n) / 2 * z(n + 1) - sum(
        z(n - k) * z(k + 1) for k in range(1, n - 1)
    ) / 2
    return complex(v + z(n + 1) if star else v)


def truncated_tableau_sum(cells, exponents, shifts, max_entry: int) -> Fraction:
    """Sum over semi-standard fillings with entries <= max_entry of
    prod (m + shift)^(-exponent), by enumerating every filling."""
    cells = list(cells)
    index = {c: k for k, c in enumerate(cells)}
    right = [index.get((i, j + 1)) for i, j in cells]
    below = [index.get((i + 1, j)) for i, j in cells]
    factors = [
        [None] + [1 / (m + Fraction(shifts[c])) ** int(exponents[c]) for m in range(1, max_entry + 1)]
        for c in cells
    ]
    total = Fraction(0)
    for fill in itertools.product(range(1, max_entry + 1), repeat=len(cells)):
        if any(
            (r is not None and fill[r] < v) or (b is not None and fill[b] <= v)
            for v, r, b in zip(fill, right, below)
        ):
            continue
        term = Fraction(1)
        for k, v in enumerate(fill):
            term *= factors[k][v]
        total += term
    return total
