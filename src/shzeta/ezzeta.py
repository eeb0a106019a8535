"""Certified evaluation of Euler-Zagier multiple Hurwitz zeta-functions.

The three variants differ only in their index chains:

* ``ez_zeta``           : 0 < m_1 <  m_2 <  ... <  m_r   (strict)
* ``ez_zeta_star``      : 0 < m_1 <= m_2 <= ... <= m_r   (weak, from 1)
* ``ez_zeta_star_star`` : 0 <= m_1 <= ... <= m_r, all shifts > 0

Each term is prod_i (m_i + y_i)^(-s_i).  Evaluation is an O(r*M) prefix-sum
dynamic program over a single cutoff M, and every result carries a rigorous
truncation-error bound valid under the stated convergence hypotheses
(Re s_r > 1, Re s_i >= 1 for i < r).

An empty chain (depth 0) sums to exactly 1.

One kernel, ``eval_layers``, sums over the P-partitions of a labelled poset
given as its graph of (order ideal, last cell) states.  ``eval_chain``, with
any mixed strict/weak relations, is its chain case; the Schur-series module
runs it on the cell poset of a shape.  ``chain_tails`` gives a chain's tails
for every shift m = 1..N at once (Re s > 1 in every slot), from reverse
cumulative sums.  ``tail_integral`` and ``majorant`` bound one-variable tails.
"""

from __future__ import annotations

import cmath
import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class EvalConfig:
    """The truncation cutoff M of every summation variable.

    The tail past M takes an Euler-Maclaurin correction on the outermost
    variable; in ``eval_layers`` an inner exponent of real part 1 leaves it
    only bounded, by ``_boundary_tail``, with no correction.
    """

    cutoff: int = 2000

    def __post_init__(self) -> None:
        if self.cutoff < 1:
            raise ValueError("cutoff must be >= 1")


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


def tail_integral(sigma: float, m: int, y: float) -> float:
    """Upper bound for sum_{k > m} (k + y)^(-sigma), sigma > 1, m + y > 0.

    For sigma <= 1 (an inner cell with Re s = 1, which only ``eval_layers``
    accepts) the tail diverges; ``_boundary_tail`` bounds such cells instead.
    """
    if sigma <= 1.0:
        return math.inf
    return (m + y) ** (1.0 - sigma) / (sigma - 1.0)


def majorant(sigma: float, lo: int, y: float, cutoff: int) -> float:
    """Upper bound for sum_{k >= lo} (k + y)^(-sigma): terms to cutoff, then
    ``tail_integral``."""
    ks = np.arange(lo, cutoff + 1, dtype=np.float64)
    return float(np.sum((ks + y) ** (-sigma))) + tail_integral(sigma, cutoff, y)


def neg_power(base: np.ndarray, s: complex) -> np.ndarray:
    """Elementwise base^(-s), with 0 wherever base <= 0."""
    with np.errstate(divide="ignore"):
        logs = np.log(np.where(base > 0, base, 1.0))
    out = np.exp(-s * logs)
    out[base <= 0] = 0.0
    return out


# The power-table store of the active ``power_table_scope``, if any.
_SCOPE_TABLES: ContextVar[dict | None] = ContextVar("power_tables", default=None)


@contextmanager
def power_table_scope() -> Iterator[dict]:
    """One power-table store shared by every kernel call in the block (the
    command line opens one per check record and one per eval), keyed by
    (table length, exponent, shift, |.| pass); dropped when the block ends."""
    token = _SCOPE_TABLES.set(store := {})
    try:
        yield store
    finally:
        _SCOPE_TABLES.reset(token)


def _power_tables(idx: np.ndarray) -> Callable[[complex, float, bool], np.ndarray]:
    """One read-only table (idx + y)^(-e) per (length, exponent, shift, pass):
    per ``power_table_scope`` if one is open, else per call.  ``idx`` is
    always arange(length).  A tiny base may overflow, so each caller zeroes
    or skips the entries below its least index in its own arrays.  The pass
    (value or |.|) is in the key: 2.5 == 2.5+0j, but the two tables differ in
    the last bit."""
    scoped = _SCOPE_TABLES.get()
    tables = {} if scoped is None else scoped

    def table(e: complex, y: float, absolute: bool) -> np.ndarray:
        key = (len(idx), e, y, absolute)
        a = tables.get(key)
        if a is None:
            with np.errstate(over="ignore"):
                a = tables[key] = neg_power(idx + y, e)
            a.flags.writeable = False
        return a

    return table


def cpow(base: float, s: complex) -> complex:
    """base ** s for base > 0.  For an integer-valued s CPython multiplies
    repeatedly, so an intermediate power can overflow and turn a result that
    fits in a float into NaN; such a result is recomputed as exp(s log base).
    A power that does not fit in a float raises DomainError.
    """
    try:
        p = base**s
        return p if cmath.isfinite(p) else cmath.exp(s * math.log(base))
    except (OverflowError, ZeroDivisionError):  # 1 / base^-s underflowed to 0
        raise DomainError(f"{base!r} ** {s!r} overflows the double range") from None


def em_tail(c: complex, s: complex, base: float) -> tuple[complex, float]:
    """Euler-Maclaurin value of c * sum_{k >= 0} (base + k)^(-s), Re s > 1,
    with a bound on its error:

        sum_{k >= a} f(k) = int_a^inf f + f(a)/2 + R,
        |R| <= (1/12) int_a^inf |f''|.
    """
    sigma = s.real
    value = c * (cpow(base, 1.0 - s) / (s - 1.0) + 0.5 * cpow(base, -s))
    err = (
        abs(c) * abs(s * (s + 1.0)) * base ** (-sigma - 1.0) / (12.0 * (sigma + 1.0))
    )
    return value, err


# A P-partition state graph: layer i holds a state ``(cell, preds)`` per
# (order ideal of size i + 1, cell added last), ``preds`` listing ``(index in
# layer i - 1, strict)`` per state it extends; layer -1 is the empty ideal,
# extended weakly.  The last layer has one state per maximal cell (corner).
Layers = tuple[tuple[tuple[int, tuple[tuple[int, bool], ...]], ...], ...]


@lru_cache(maxsize=256)
def chain_layers(strict: tuple[bool, ...]) -> Layers:
    """The state graph of a chain: one state per layer."""
    return tuple(((i, ((0, st),)),) for i, st in enumerate((False, *strict)))


@lru_cache(maxsize=256)
def _strict_steps(layers: Layers) -> tuple[int, ...]:
    """Per cell, the fewest strict steps on a path to a state it ends."""
    steps, least = [0], {}  # per state of the layer; per cell
    for layer in layers:
        steps = [min(steps[p] + st for p, st in preds) for _, preds in layer]
        for (c, _), n in zip(layer, steps):
            least[c] = min(n, least.get(c, n))
    return tuple(least[c] for c in range(len(least)))


def _inflow(cums: list[np.ndarray], preds: Sequence[tuple[int, bool]]) -> np.ndarray:
    # h[n] = sum over preds of their partial sums through n (strict: n - 1).
    if len(preds) == 1:
        ((p, strict),) = preds
        c = cums[p]
        return np.concatenate((np.zeros(1, c.dtype), c[:-1])) if strict else c
    h = np.zeros_like(cums[preds[0][0]])
    for p, strict in preds:
        if strict:
            h[1:] += cums[p][:-1]
        else:
            h += cums[p]
    return h


def eval_layers(
    layers: Layers, s: Sequence[complex], y: Sequence[float],
    cfg: EvalConfig = DEFAULT_CONFIG, first_min: int = 1,
) -> Approx:
    """Sum prod_c (m_c + y_c)^(-s_c) over the P-partitions m >= first_min of
    a labelled poset, given as its state graph (``chain_layers`` for a chain);
    Re s must be > 1 on the maximal cells and >= 1 elsewhere.

    Each state holds, summed over the linear extensions reaching it, the
    array over the last entry's value n <= M; every certificate term is
    linear in the states and is summed per final corner d.  The outer tail
    (last entry > M) takes an Euler-Maclaurin correction on the inner sums
    frozen at M; the fillings whose next-to-last entry also exceeds M are
    bounded through the full inner sums,

        Hbar(empty) = 1,
        Hbar(state) = Habs(state)(M) + Hbar(preds) * int_M^inf (t+y_c)^(-sigma_c) dt,

    Habs being the DP on |.|, run only through layer r - 3, the last one this
    residual reads.  These stay of the same magnitude as the actual nested
    sums (a loose product of one-variable majorants would not).  Cells with
    Re s = 1 take ``_boundary_tail`` instead.

    Cells with one (exponent, shift) pair (a diagonal's cells when s and y
    are constant along diagonals, a constant chain's slots) share one power
    table per pass, built once per ``power_table_scope`` (one per check
    record), else per call; each state multiplies it by its inflow into a
    new array (a first-layer state copies it) and zeroes that below its
    least entry.
    """
    r, m = len(layers), cfg.cutoff
    sigmas = [complex(v).real for v in s]
    tails = [tail_integral(sig, m, yc) for sig, yc in zip(sigmas, y)]
    idx = np.arange(0, m + 1, dtype=np.float64)
    n_eps = sum(sg <= 1.0 for sg in sigmas)  # cells on the Re s = 1 boundary
    exps = {False: [complex(v) for v in s], True: sigmas}  # per pass
    table = _power_tables(idx)
    steps = _strict_steps(layers)

    # The frozen residual is carry = Hbar(preds) * tail on layer r - 2.
    carry_layer = -1 if n_eps else r - 2
    arrs: dict[bool, list[np.ndarray]] = {False: [], True: []}  # True: |.|
    hbar, carry = [1.0], [0.0]  # of the empty ideal
    prefix = [1.0 + 0.0j]  # inner sums through M, frozen for the EM tail
    # Overflow below a least entry is zeroed; any other leaves the total non-finite.
    with np.errstate(over="ignore", invalid="ignore"):
        for i, layer in enumerate(layers):
            for absolute in (False, True) if i < carry_layer else (False,):
                cums = arrs[absolute]  # only two layers of arrays are alive
                for k, a in enumerate(cums):
                    cums[k] = np.cumsum(a)
                if i == r - 1 and i and not absolute:  # strict final step too
                    prefix = [sum(complex(cums[p][m]) for p, _ in q) for _, q in layer]
                out = []
                for c, preds in layer:
                    a = table(exps[absolute][c], y[c], absolute)
                    # Keep the operand order: with fused multiply-adds,
                    # complex products do not commute bitwise, and numpy
                    # would evaluate ``a * temporary`` as ``temporary *= a``.
                    a = np.multiply(a, _inflow(cums, preds)) if i else a.copy()
                    # Below its least entry a cell sums nothing, but the shared
                    # table holds powers there, which may overflow (tiny base;
                    # 0 * inf is NaN).
                    a[:first_min + steps[c]] = 0.0
                    out.append(a)
                arrs[absolute] = out
            if i <= carry_layer:
                hbar_in = [sum(hbar[p] for p, _ in preds) for _, preds in layer]
                carry = [h * tails[c] for h, (c, _) in zip(hbar_in, layer)]
            if i < carry_layer:
                hbar = [float(a.sum()) + t for a, t in zip(arrs[True], carry)]

        total, err = 0j, 0.0
        for k, (d, preds) in enumerate(layers[-1]):
            total += complex(arrs[False][k].sum())
            if n_eps:
                err += _boundary_tail(layers, k, n_eps, sigmas, y, m, first_min)
                continue
            # Freeze the inner prefix at the cutoff and treat the outer tail as
            # C * sum_{n > M} (n + y_d)^(-s_d), corrected by Euler-Maclaurin.
            em_value, em_remainder = em_tail(prefix[k], complex(s[d]), m + 1 + y[d])
            frozen_residual = sum(carry[p] for p, _ in preds) * tails[d]
            total += em_value
            err += em_remainder + frozen_residual
    if not cmath.isfinite(total):
        raise DomainError(f"the sum overflows the double range (least shift {min(y)})")
    return Approx(total, err)


def _boundary_tail(
    layers: Layers, k: int, n_eps: int, sigmas: list[float], y: Sequence[float],
    m: int, first_min: int,
) -> float:
    """Tail bound for the fillings ending at final state ``k`` when ``n_eps``
    other cells sit on the Re s = 1 boundary.

    Such a cell's partial sums are bounded by sum_{j<=n} (j+y)^(-1) <= 1/(lo+y)
    + ln(n+y) <= c_eps (n+Y)^eps, where eps = (sigma_d - 1) / (2 n_eps) is > 0
    because the final cell d is a corner; every other inner cell by its full
    ``majorant``.  Both depend on the cell's least entry lo = first_min + the
    strict steps before it, so a scalar DP over (state, lo) sums their
    product over the extensions.
    """
    d, final_preds = layers[-1][k]
    eps = (sigmas[d] - 1.0) / (2.0 * n_eps)

    @lru_cache(maxsize=None)
    def g(c: int, lo: int) -> float:
        if sigmas[c] <= 1.0:
            return 1.0 / max(lo + y[c], 1.0) + 1.0 / eps
        return majorant(sigmas[c], lo, y[c], m)

    weights = [{first_min: 1.0}]  # the empty ideal
    for layer in layers[:-1]:
        nxt = []
        for c, preds in layer:
            w: dict[int, float] = {}
            for p, strict in preds:
                for lo, v in weights[p].items():
                    w[lo + strict] = w.get(lo + strict, 0.0) + v * g(c, lo + strict)
            nxt.append(w)
        weights = nxt
    inner = sum(v for p, _ in final_preds for v in weights[p].values())
    sigma_eff = sigmas[d] - n_eps * eps
    growth = (1.0 + max(y)) ** (n_eps * eps)
    return inner * growth * m ** (1.0 - sigma_eff) / (sigma_eff - 1.0)


def _check_chain(
    s: Sequence[complex], y: Sequence[float], strict: Sequence[bool], least: int,
) -> list[float]:
    """Check a chain's arguments; return the real parts of its exponents.
    Re s must be > 1 at the last slot and >= 1 before, and every base
    positive: cell i's least base is ``least`` (the least first index) +
    the strict steps before it + y_i."""
    if len(y) != len(s) or len(strict) != len(s) - 1:
        raise ValueError("length mismatch between s, y, strict")
    sig = [complex(v).real for v in s]
    if not (sig[-1] > 1.0 and min(sig) >= 1.0):
        raise DomainError(
            "exponents outside the absolute-convergence domain "
            f"(need Re > 1 at the last slot, Re >= 1 before; got {sig})"
        )
    bases = [least + sum(strict[:i]) + v for i, v in enumerate(y)]
    if min(bases) <= 0:
        raise DomainError(f"every base must be positive; the least bases are {bases}")
    return sig


def eval_chain(
    s: Sequence[complex],
    y: Sequence[float],
    strict: Sequence[bool],
    cfg: EvalConfig = DEFAULT_CONFIG,
    first_min: int = 1,
) -> Approx:
    """Evaluate sum over m_1 R_1 m_2 ... R_{r-1} m_r of prod (m_i+y_i)^(-s_i).

    ``strict[i]`` chooses R_{i+1} as ``<`` (True) or ``<=`` (False); the chain
    starts at m_1 >= first_min.  Depth 0 returns exactly 1.  ``eval_layers``
    does the work, one state per layer.
    """
    if len(s) == 0:
        return APPROX_ONE
    _check_chain(s, y, strict, first_min)
    return eval_layers(chain_layers(tuple(strict)), s, y, cfg, first_min)


def _reverse_pass(
    arrays: Sequence[np.ndarray], strict: Sequence[bool], size: int,
    consts: Sequence[float] | None = None,
) -> np.ndarray:
    """S_1 over k = 0..K + 1 for chain levels a_1..a_L, each over j = 0..K:

        S_L(k) = sum_{k <= j <= K} a_L(j) + c_L,
        S_i(k) = sum_{k <= j <= K} a_i(j) S_{i+1}(j + strict_i) + c_i,

    with S_i(K + 1) = c_i (``consts``, default 0).  No levels give 1.
    """
    acc = np.ones(size + 1)
    for i in reversed(range(len(arrays))):
        st = int(strict[i]) if i + 1 < len(arrays) else 0
        a = arrays[i] * acc[st:st + size]
        acc = np.append(np.cumsum(a[::-1])[::-1], 0.0)
        if consts is not None:
            acc += consts[i]
    return acc


def chain_tails(
    s: Sequence[complex],
    y: Sequence[float],
    strict: Sequence[bool],
    cfg: EvalConfig,
    count: int,
    first_min: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Every shifted tail of a chain in one reverse pass: for m = 1..count,

        F(m) = sum over lo(m) <= k_1 R_1 k_2 ... R_{r-1} k_r of prod (k_i + y_i)^(-s_i),

    lo(m) = m + first_min, so first_min = 0 gives ``ez_zeta_star_star(s, m + y)``
    and first_min = 1 with strict steps ``ez_zeta(s, m + y)``.  Returns the
    values and their error bounds as arrays indexed by m - 1.

    Every k runs to K = cutoff + count, the largest k_r those per-m calls
    reach, so F(m) is the per-m ``eval_chain`` at cutoff K - m, with the same
    certificate terms: the Euler-Maclaurin correction of the outer tail
    and its remainder |C(m)| r, C(m) the inner sum, and the frozen residual
    Hbar_{r-2}(m) T_{r-1}(K) T_r(K).  Each is S_1(lo(m)) of a
    ``_reverse_pass``; Hbar_L = sum_l U_l prod_{t > l} T_t (U_l the |.| sum of
    the first l levels) is the pass over |a| with c_i = prod_{t >= i} T_t.
    The chain must satisfy ``eval_chain``'s conditions at m = 1, with
    Re s > 1 in every slot.
    """
    r = len(s)
    if r == 0:
        return np.ones(count, complex), np.zeros(count)
    sig = _check_chain(s, y, strict, first_min + 1)  # lo(1) = 1 + first_min
    if min(sig) <= 1.0:
        raise DomainError(f"chain_tails needs Re s > 1 in every slot; got {sig}")
    big = cfg.cutoff + count
    tails = [tail_integral(sg, big, yc) for sg, yc in zip(sig, y)]
    table = _power_tables(np.arange(big + 1, dtype=np.float64))
    # The passes run over k = lo(1)..K, so index m - 1 is lo(m); no sum reads
    # a lower k, where a tiny base may overflow.
    start, size = 1 + first_min, big - first_min
    a = [table(complex(v), yc, False)[start:] for v, yc in zip(s, y)]
    values = _reverse_pass(a, strict, size)[:count]
    prefix = _reverse_pass(a[:-1], strict, size)[:count]
    em_value, em_remainder = em_tail(prefix, complex(s[-1]), big + 1 + y[-1])
    if r > 1:
        # The frozen residual Hbar_{r-2}(m) T_{r-1}(K) T_r(K).
        n = r - 2
        consts = [math.prod(tails[i:n]) for i in range(n)]
        absolute = [table(sig[i], y[i], True)[start:] for i in range(n)]
        hbar = _reverse_pass(absolute, strict, size, consts)[:count]
        em_remainder = em_remainder + hbar * tails[-2] * tails[-1]
    return values + em_value, em_remainder


def _chain_zeta(
    s: Sequence[complex], y: "Sequence[float] | None", cfg: EvalConfig,
    strict: bool, first_min: int,
) -> Approx:
    sv = tuple(complex(v) for v in s)
    yv = (0.0,) * len(sv) if y is None else tuple(float(v) for v in y)
    return eval_chain(sv, yv, (strict,) * (len(sv) - 1), cfg, first_min)


def ez_zeta(
    s: Sequence[complex],
    y: "Sequence[float] | None" = None,
    cfg: EvalConfig = DEFAULT_CONFIG,
) -> Approx:
    """Strict-chain multiple zeta: 0 < m_1 < ... < m_r."""
    return _chain_zeta(s, y, cfg, True, 1)


def ez_zeta_star(
    s: Sequence[complex],
    y: "Sequence[float] | None" = None,
    cfg: EvalConfig = DEFAULT_CONFIG,
) -> Approx:
    """Weak-chain multiple zeta: 0 < m_1 <= ... <= m_r."""
    return _chain_zeta(s, y, cfg, False, 1)


def ez_zeta_star_star(
    s: Sequence[complex],
    y: Sequence[float],
    cfg: EvalConfig = DEFAULT_CONFIG,
) -> Approx:
    """Weak chain starting at 0: 0 <= m_1 <= ... <= m_r; all shifts > 0."""
    return _chain_zeta(s, y, cfg, False, 0)


def hurwitz(s: complex, x: float, cfg: EvalConfig = DEFAULT_CONFIG) -> Approx:
    """The Hurwitz zeta sum_{m >= 0} (m + x)^(-s), Re s > 1, x > 0."""
    if x <= 0:
        raise DomainError("Hurwitz shift must be positive")
    return ez_zeta_star_star((s,), (x,), cfg)
