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

Every certified value is an ``Approx``, a value (or an array of them) with
its error bound, combined by its arithmetic; ``TwoSided`` holds the one
pass rule that judges two such sides of an identity.

One kernel, ``eval_layers``, sums over the P-partitions of a labelled poset
given as its graph of (order ideal, last cell) states.  ``eval_chain``, with
any mixed strict/weak relations, is its chain case; the Schur-series module
runs it on the cell poset of a shape.  ``chain_tails`` gives a chain's tails
for every shift m = 1..N at once (Re s > 1 in every slot), from reverse
cumulative sums.  ``tail_integral`` and ``majorant`` bound one-variable tails.

``power_tables`` builds every array (k + y)^(-s) a float series reads: this
kernel's, ``rootzeta``'s factor tables and the Dirichlet-series weights of
``identities``.  Its tables are read-only and shared per
``power_table_scope``, whose nested scopes trim them to a byte budget;
``neg_power`` has no other caller.  The same scope keeps each
``eval_layers`` result, so an identical call is summed once per scope.
"""

from __future__ import annotations

import cmath
import math
from collections import Counter
from contextvars import ContextVar
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, ContextManager, Sequence

import numpy as np

from .errors import DomainError, UsageError


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
    """A numeric value with a rigorous absolute-error bound.

    The value may be a numpy array, its bound an array of the same shape
    or a float; the arithmetic is then elementwise, each entry bounded by
    the scalar rule.
    """

    value: complex | np.ndarray
    err_bound: float | np.ndarray

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

DEFAULT_SLACK = 1e-9  # relative to the larger side


class TwoSided:
    """Two certified sides of one identity, ``lhs`` and ``rhs``: the base
    of every two-sided check report, with its one pass rule."""

    lhs: Approx
    rhs: Approx

    @property
    def discrepancy(self) -> float:
        return abs(self.lhs.value - self.rhs.value)

    @property
    def budget(self) -> float:
        return self.lhs.err_bound + self.rhs.err_bound

    def passes(self) -> bool:
        """Whether the discrepancy is within the budget plus
        ``DEFAULT_SLACK`` times the larger of |lhs| and |rhs|."""
        scale = max(abs(self.lhs.value), abs(self.rhs.value))
        return self.discrepancy <= self.budget + DEFAULT_SLACK * scale


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
    """Elementwise base^(-s) as exp(-s log base), with 0 wherever base <= 0.

    ``base`` must be finite and ascending, so those entries form a prefix,
    and it is scratch: the logarithms overwrite it, and for a real s the
    powers too.  The result is the one array allocated (none for a real s).
    """
    zeros = int(np.searchsorted(base, 0.0, side="right"))
    base[:zeros] = 1.0  # log 1 = 0, overwritten below
    logs = np.log(base, out=base)
    real = np.result_type(s, logs) == logs.dtype
    out = np.multiply(-s, logs, out=logs if real else None)
    np.exp(out, out=out)
    out[:zeros] = 0.0
    return out


# The store of the active ``power_table_scope``, if any: its power tables and
# its ``eval_layers`` results.  A nested scope opening on more than
# ``TABLE_BUDGET`` bytes of tables first drops them all.
TABLE_BUDGET = 32 << 20
_SCOPE_TABLES: ContextVar[tuple[dict, dict] | None] = ContextVar("power_tables", default=None)
# The keys of the power tables read in the active ``table_reads`` block.
_READS: ContextVar[set | None] = ContextVar("table_reads", default=None)


def power_table_scope() -> ContextManager[dict]:
    """One store shared by every float series in the block, dropped when the
    block ends: the power tables, keyed by (table length, exponent, shift,
    real exponent), which the block yields, and the ``eval_layers`` results.
    The command line opens one per ``check`` run and one per ``eval``; a
    scope opened inside another shares its store.  Threads share it through
    ``contextvars.copy_context``: two may build one table or sum at once,
    to the same bits.

    A scope opened inside another first drops every kept table if they
    hold more than ``TABLE_BUDGET`` bytes (32 MiB); the kept sums stay.  A
    ``check`` run opens one per record, so a run's memory is bounded by the
    budget plus the tables and arrays of the records in progress, whatever
    its number of records.  No sum is in progress in the thread that trims,
    so none of its sums builds a table twice; a table another thread drops
    while a sum runs is built again for it, to the same bits."""
    store = _SCOPE_TABLES.get() or ({}, {})
    if sum(a.nbytes for a in list(store[0].values())) > TABLE_BUDGET:
        store[0].clear()  # a new store is empty
    return _Bound(_SCOPE_TABLES, store, store[0])


def table_reads() -> ContextManager[set]:
    """The keys of the power tables read in the block, built there or
    before; an ``eval_layers`` call reports the reads of its sum, kept or
    not, and a nested block keeps its own."""
    return _Bound(_READS, reads := set(), reads)


class _Bound:
    """``var`` set to ``value`` for the block, which yields ``out``."""

    def __init__(self, var: ContextVar, value, out) -> None:
        self.var, self.value, self.out = var, value, out

    def __enter__(self):
        self.token = self.var.set(self.value)
        return self.out

    def __exit__(self, *exc) -> None:
        self.var.reset(self.token)


def power_tables() -> Callable[..., np.ndarray]:
    """The table builder: ``table(length, e, y)`` is the read-only array
    (k + y)^(-e), k = 0..length - 1, one per (length, exponent, shift,
    real exponent), per ``power_table_scope`` if one is open, else per call.
    This is the one place a float series builds such an array.  A tiny base
    may overflow, so each caller zeroes or skips the entries below its
    least index in its own arrays, and writes into no table.  Whether the
    exponent is a float or a complex is in the key, as ``neg_power`` takes
    its route from it: 2.5 == 2.5+0j, but the two tables differ in the last
    bit.  A float exponent's table is the |.| table of complex or mixed
    data, and the value table of all-real data: one table per (exponent,
    shift) pair.  The kernels' rounding term bounds the error of a float
    exponent's entries (``_table_ops``); a complex one's is not counted."""
    scoped, reads = _SCOPE_TABLES.get(), _READS.get()
    kept = {} if scoped is None else scoped[0]  # outside a scope, the call's own

    def table(length: int, e: complex, y: float) -> np.ndarray:
        key = (length, e, y, not isinstance(e, complex))
        if reads is not None:
            reads.add(key)
        a = kept.get(key)
        if a is None:
            base = np.arange(length, dtype=np.float64)
            base += y
            with np.errstate(over="ignore"):
                a = neg_power(base, e)
            a.flags.writeable = False
            kept[key] = a
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
    return value, product_bound(
        lambda: abs(c) * abs(s * (s + 1.0)) * base ** (-sigma - 1.0) / (12.0 * (sigma + 1.0)),
        lambda: np.log(abs(c)) + math.log(abs(s)) + math.log(abs(s + 1.0))
        - (sigma + 1.0) * math.log(base) - math.log(12.0 * (sigma + 1.0)),
    )


def product_bound(product: Callable, log: Callable):
    """``product()``, a bound computed as a product of nonnegative floats,
    where it is finite.  Elsewhere a factor overflowed, maybe against one
    that underflowed (inf * 0 is NaN), or Python's ``abs`` raised: there
    the bound is exp(``log()``), the sum of the factors' logs, with an
    underflow rounded up to the least positive float.  Both may return
    arrays, whose caller silences numpy's overflow and invalid warnings;
    a scalar stays a float."""
    try:
        p = product()
    except OverflowError:
        p = math.inf
    if not (isinstance(p, float) and math.isfinite(p) or np.isfinite(p).all()):
        with np.errstate(all="ignore"):
            p = np.where(np.isfinite(p), p, np.maximum(np.exp(log()), math.ulp(0.0)))
        p = p if p.ndim else float(p)
    return p


# The rounding term of a float sum of all-real data.  Its terms are positive,
# so if each computed term is within a relative gamma_K of its value, gamma_K
# = K u / (1 - K u), so is their computed sum (Higham, Accuracy and Stability
# of Numerical Algorithms, 2nd ed., ch. 3-4).  K counts the rounded
# operations on one term's path, each table entry's error in units of u.
# The stated float64 error bounds, in ulps (an ulp of x is at most 2u|x|):
# numpy's ``log`` and ``exp``, and the C library's ``pow``, ``log`` and
# ``exp`` that Python's powers and ``math`` call.  ``tests/test_rounding.py``
# checks them against mpmath.
UNIT_ROUNDOFF = 2.0**-53
LOG_ULPS = EXP_ULPS = LIBM_ULPS = 1.0
# exp(-x) rounds to 0.0 for x > 745.14, so a power (k + y)^(-sigma) with
# sigma log(k + y) past this is 0.0 in any table, and a nonzero entry's
# |sigma log(k + y)| is below ``_LOG_CAP``.
_LAST_POWER, _LOG_CAP = 746.0, 750.0


def _table_ops(sigma: float, y: float, lo, hi: int):
    """(t, n) for the entries (k + y)^(-sigma), k = lo..hi, of a float table
    (``neg_power`` on a real exponent): each nonzero entry is within a
    relative gamma_t of its value, and at most n entries are nonzero.  The
    window starts at the least positive base; ``lo`` may be an array.

    The base k + y rounds once unless y is an integer (beta = 1, else 0);
    the logarithm is within ``LOG_ULPS`` ulps and the product with sigma
    rounds once, so the argument of exp is off by at most
    u (beta sigma + (2 LOG_ULPS + 1) L), L the largest |sigma log(k + y)|;
    exp adds ``EXP_ULPS`` ulps unless its argument is 0 (log 1 = +0 and
    exp(-0) = 1 are exact).  The factor 1.01 covers the terms of order u^2.
    An entry that underflows, to 0.0 or to a subnormal, is not counted:
    its absolute error is below 2^-1022."""
    lo = np.maximum(lo, max(math.floor(-y) + 1, 0))
    beta = 0.0 if float(y).is_integer() and abs(y) + hi < 2.0**53 else 1.0
    if hi + y <= 0:
        return np.zeros(np.shape(lo)), np.zeros(np.shape(lo), int)
    # A rounded base moves sigma log b by up to sigma u.
    edge = _LAST_POWER + 2.0**-52 * sigma * beta
    top = hi if sigma * math.log(hi + y) <= edge else max(math.floor(math.exp(edge / sigma) - y), -1)
    n = np.maximum(top - lo + 1, 0)
    ends = abs(math.log(top + y)) if top + y > 0 else 0.0
    logs = np.minimum(sigma * np.maximum(np.abs(np.log(lo + y)), ends), _LOG_CAP)
    t = 1.01 * (sigma * beta + (2.0 * LOG_ULPS + 1.0) * logs) + 2.0 * EXP_ULPS * (logs > 0)
    return np.where(n > 0, t, 0.0), n


def _pow_ops(e: float, base: float) -> float:
    """The error of ``cpow(base, -e)`` for a real e, in units of u: CPython
    multiplies |e| times for an integer |e| <= 100, else calls ``pow``; a
    non-finite result is taken as exp(-e log base); -e may carry the
    rounding of 1 - s (x = |e log base| units), and the base that of
    M + 1 + y (|e| units)."""
    x = min(abs(e) * math.log(base), _LOG_CAP)
    route = abs(e) + 1.0 if e.is_integer() and abs(e) <= 100 else 2.0 * LIBM_ULPS
    fallback = (2.0 * LIBM_ULPS + 1.0) * x + 2.0 * LIBM_ULPS
    return 1.01 * (max(route, fallback) + x + abs(e))


def _path_ops(sigmas: tuple, y: tuple, lo, hi: int) -> tuple:
    """The rounded operations on one term's path through a float sum over
    the cells (sigma_c, y_c), each entry k = lo..hi, in units of u:
    (tables, sums, exact, em).

    ``tables`` adds up the cells' table errors, r - 1 products and r - 1
    inflow merges of at most r - 1 additions each; ``sums``, per cell, the
    additions of a cumulative (or final) sum of its at most n nonzero
    entries.  Both depend only on the cells and the window, so a shape and
    its chains get one count.  ``exact``: every entry the sum may read is 0
    or exactly 1, so the sum adds small integers and rounds nothing.  ``em``:
    an EM value's operations past its prefix (r - 1 additions of prefixes,
    the two powers, a subtraction, a division, an addition and a product),
    the most over the cells whose power at the EM base can be nonzero.
    ``lo`` may be an array."""
    r = len(sigmas)
    ops = [_table_ops(sg, yc, lo, hi) for sg, yc in zip(sigmas, y)]
    tables = sum(t for t, _ in ops) + r * (r - 1)
    sums = sum(np.maximum(n - 1, 0) for _, n in ops)
    exact = np.logical_and.reduce([(t == 0) & (n <= 1) for t, n in ops])
    em = r - 1 + max((
        max(_pow_ops(sg - 1.0, hi + 1 + yc) + 2.0, _pow_ops(sg, hi + 1 + yc)) + 2.0
        for sg, yc in zip(sigmas, y) if (sg - 1.0) * math.log(hi + 1 + yc) <= _LOG_CAP
    ), default=0.0)  # past the cap a corner's EM value underflows
    return tables, sums, exact, em


_cached_path_ops = lru_cache(maxsize=1024)(_path_ops)


def _gamma_times(k: np.ndarray, x: np.ndarray) -> np.ndarray:
    """gamma_k |x|, gamma_k = k u / (1 - k u) (inf for k u >= 1), and 0
    where x is 0."""
    ku = k * UNIT_ROUNDOFF
    with np.errstate(divide="ignore", invalid="ignore"):
        gamma = np.where(ku < 1.0, ku / (1.0 - ku), math.inf)
        return np.where(x == 0, 0.0, gamma * np.abs(x))


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


@lru_cache(maxsize=256)
def _sole_readers(layers: Layers) -> tuple[tuple[bool, ...], ...]:
    """Per layer and state: whether the state has one predecessor, a weak
    step, and no other state of its layer reads that predecessor."""
    plan = []
    for layer in layers:
        readers = Counter(p for _, preds in layer for p, _ in preds)
        plan.append(tuple(
            len(preds) == 1 and not preds[0][1] and readers[preds[0][0]] == 1
            for _, preds in layer
        ))
    return tuple(plan)


def _times_inflow(
    a: np.ndarray, cums: list[np.ndarray], preds: Sequence[tuple[int, bool]],
) -> np.ndarray:
    """A new array a * h, h[n] the sum over preds of their partial sums
    through n (strict: n - 1, and 0 at n = 0)."""
    if len(preds) == 1:
        ((p, strict),) = preds
        c = cums[p]
        if not strict:
            return np.multiply(a, c)
        out = np.empty_like(c)
        np.multiply(a[:1], np.zeros(1, c.dtype), out=out[:1])
        np.multiply(a[1:], c[:-1], out=out[1:])
        return out
    h = np.zeros_like(cums[preds[0][0]])
    for p, strict in preds:
        if strict:
            h[1:] += cums[p][:-1]
        else:
            h += cums[p]
    return np.multiply(a, h, out=h)


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

    All-real data (Im s = 0 in every cell, whatever the type) runs the DP
    in float64 on the float tables; its terms are positive, so its value
    arrays are the |.| arrays Habs reads, and no separate |.| pass runs.
    Its bound adds a rigorous rounding term gamma_K |total|, K the rounded
    operations on one term's path (``_path_ops``): the table entry's error,
    the products, cumulative sums and inflow merges, the 2r - 1 final
    additions and the EM value's operations.  K depends only on the cells
    and the cutoff, so a shape and its chains get one term, and it is 0
    where nothing rounds.  Complex or mixed data keep the complex value
    pass and the |.| pass, bit for bit, with no rounding term yet; nor is
    an underflowed term's error counted (ROADMAP items 1(a) and 4).

    Cells with one (exponent, shift) pair (a diagonal's cells when s and y
    are constant along diagonals, a constant chain's slots) share one power
    table per pass, built once per ``power_table_scope`` (again after a
    nested scope trims the store), else per call.  No table is written
    to, and no step allocates an array it does not keep: a first-layer
    state copies its table; a state that is the one reader of its one weak
    predecessor multiplies into that array; any other state writes the
    product of table and inflow into one new array (a merged inflow is
    that array).  Each state zeroes its array below its least entry, and
    the next layer cumulates it in place.  Each operation and its order
    are those of the out-of-place form, so are the bits.

    Inside a ``power_table_scope`` the result is kept with the keys of the
    tables it read (its own ``table_reads``), trimmed tables or not, so an
    identical call, as the kernel reads its arguments, returns it unsummed;
    either call reports those reads to the enclosing ``table_reads``.
    """
    scoped = _SCOPE_TABLES.get()
    if scoped is None:
        return _sum_layers(layers, s, y, cfg, first_min)
    key = (layers, tuple(map(complex, s)), tuple(y), cfg.cutoff, first_min)
    outer, kept = _READS.get(), scoped[1].get(key)
    if kept is None:
        with table_reads() as reads:
            kept = scoped[1][key] = _sum_layers(layers, s, y, cfg, first_min), reads
    if outer is not None:
        outer |= kept[1]
    return kept[0]


def _sum_layers(
    layers: Layers, s: Sequence[complex], y: Sequence[float], cfg: EvalConfig,
    first_min: int,
) -> Approx:
    """The DP of ``eval_layers``, run on every call: no store."""
    r, m = len(layers), cfg.cutoff
    sigmas = [complex(v).real for v in s]
    tails = [tail_integral(sig, m, yc) for sig, yc in zip(sigmas, y)]
    n_eps = sum(sg <= 1.0 for sg in sigmas)  # cells on the Re s = 1 boundary
    # All-real data has positive terms: its value pass, on the float tables,
    # is its |.| pass too.
    real = all(complex(v).imag == 0 for v in s)
    exps = {False: sigmas if real else [complex(v) for v in s], True: sigmas}  # per pass
    table = power_tables()
    steps, sole = _strict_steps(layers), _sole_readers(layers)

    # The frozen residual is carry = Hbar(preds) * tail on layer r - 2.
    carry_layer = -1 if n_eps else r - 2
    passes = (False,) if real else (False, True)
    arrs: dict[bool, list[np.ndarray]] = {False: [], True: []}  # True: |.|
    hbar, carry = [1.0], [0.0]  # of the empty ideal
    prefix = [1.0 + 0.0j]  # inner sums through M, frozen for the EM tail
    # Overflow below a least entry is zeroed; any other leaves the total non-finite.
    with np.errstate(over="ignore", invalid="ignore"):
        for i, layer in enumerate(layers):
            for absolute in passes if i < carry_layer else (False,):
                cums = arrs[absolute]  # only two layers of arrays are alive
                for a in cums:
                    np.add.accumulate(a, out=a)  # np.cumsum's bits
                if i == r - 1 and i and not absolute:  # strict final step too
                    prefix = [sum(complex(cums[p][m]) for p, _ in q) for _, q in layer]
                out = []
                for own, (c, preds) in zip(sole[i], layer):
                    a = table(m + 1, exps[absolute][c], y[c])
                    # Keep the table the first operand: with fused
                    # multiply-adds, complex products do not commute bitwise.
                    if not i:
                        a = a.copy()
                    elif own:
                        h = cums[preds[0][0]]
                        a = np.multiply(a, h, out=h)
                    else:
                        a = _times_inflow(a, cums, preds)
                    # Below its least entry a cell sums nothing, but the shared
                    # table holds powers there, which may overflow (tiny base;
                    # 0 * inf is NaN).
                    a[:first_min + steps[c]] = 0.0
                    out.append(a)
                arrs[absolute] = out
            if i <= carry_layer:
                hbar_in = [sum(hbar[p] for p, _ in preds) for _, preds in layer]
                carry = [h * tails[c] for h, (c, _) in zip(hbar_in, layer)]
            if i < carry_layer:  # from the |.| arrays, on all-real data the value arrays
                hbar = [float(a.sum()) + t for a, t in zip(arrs[passes[-1]], carry)]

        total, em_total, err = 0j, 0j, 0.0
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
            em_total += em_value
            err += em_remainder + frozen_residual
    if not cmath.isfinite(total):
        raise DomainError(f"the sum overflows the double range (least shift {min(y)})")
    if real and total:
        # One term's path: its cells, then the 2r - 1 additions of the corner
        # sums and EM values; an EM value's path also runs its own operations.
        tables, sums, exact, em_ops = _cached_path_ops(tuple(sigmas), tuple(y), first_min, m)
        if not (exact and em_total == 0):
            ku = float(tables + sums + 2 * r - 1 + (em_ops if em_total else 0.0)) * UNIT_ROUNDOFF
            err += ku / (1.0 - ku) * abs(total) if ku < 1.0 else math.inf  # gamma_K |total|
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
    Every exponent and shift must be a finite number (else UsageError),
    Re s must be > 1 at the last slot and >= 1 before, and every base
    positive: cell i's least base is ``least`` (the least first index) +
    the strict steps before it + y_i.  An empty chain needs empty y and
    strict, and has no exponents."""
    if len(y) != len(s) or len(strict) != max(len(s) - 1, 0):
        raise ValueError("length mismatch between s, y, strict")
    if not s:
        return []
    for what, values in (("exponent", s), ("shift", y)):
        for v in values:
            _check_finite(v, what)
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


def _check_finite(v: complex, what: str) -> None:
    if not cmath.isfinite(v):
        raise UsageError(f"{what} must be a finite number, got {v!r}")


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
    _check_chain(s, y, strict, first_min)
    if len(s) == 0:
        return APPROX_ONE
    return eval_layers(chain_layers(tuple(strict)), s, y, cfg, first_min)


def _reverse_pass(
    arrays: Sequence[np.ndarray], strict: Sequence[bool], size: int,
    consts: Sequence[float] | None = None,
) -> np.ndarray:
    """S_1 over k = 0..K + 1 for chain levels a_1..a_L, each over j = 0..K:

        S_L(k) = sum_{k <= j <= K} a_L(j) + c_L,
        S_i(k) = sum_{k <= j <= K} a_i(j) S_{i+1}(j + strict_i) + c_i,

    with S_i(K + 1) = c_i (``consts``, default 0).  No levels give 1.

    Each level allocates one array of size + 1 entries, writes the product
    of a_i and S_{i+1} into it, drops S_{i+1} and cumulates the product in
    place from the far end.  The operations and their order are those of
    a reversed ``np.cumsum``, so are the bits.
    """
    acc = np.ones(size + 1)
    for i in reversed(range(len(arrays))):
        st = int(strict[i]) if i + 1 < len(arrays) else 0
        out = np.zeros(size + 1, np.result_type(arrays[i], acc))
        np.multiply(arrays[i], acc[st:st + size], out=out[:size])
        acc = out  # drops S_{i+1}
        np.add.accumulate(acc[-2::-1], out=acc[-2::-1])  # np.cumsum's bits
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

    All-real data runs the passes in float64 on the float tables, the
    Hbar pass on the value tables, and adds the rounding term of
    ``_tails_rounding`` to each bound; complex or mixed data keep the
    complex passes bit for bit, with no rounding term yet.
    """
    r = len(s)
    sig = _check_chain(s, y, strict, first_min + 1)  # lo(1) = 1 + first_min
    if r == 0:
        return np.ones(count, complex), np.zeros(count)
    if min(sig) <= 1.0:
        raise DomainError(f"chain_tails needs Re s > 1 in every slot; got {sig}")
    big = cfg.cutoff + count
    tails = [tail_integral(sg, big, yc) for sg, yc in zip(sig, y)]
    table = power_tables()
    # The passes run over k = lo(1)..K, so index m - 1 is lo(m); no sum reads
    # a lower k, where a tiny base may overflow.
    start, size = 1 + first_min, big - first_min
    real = all(complex(v).imag == 0 for v in s)  # then a is its own |a|
    a = [table(big + 1, sg if real else complex(v), yc)[start:] for v, sg, yc in zip(s, sig, y)]
    values = _reverse_pass(a, strict, size)[:count]
    prefix = _reverse_pass(a[:-1], strict, size)[:count]
    with np.errstate(over="ignore", invalid="ignore"):  # mended by ``product_bound``
        em_value, em_remainder = em_tail(prefix, complex(s[-1]), big + 1 + y[-1])
    if r > 1:
        # The frozen residual Hbar_{r-2}(m) T_{r-1}(K) T_r(K).
        n = r - 2
        consts = [math.prod(tails[i:n]) for i in range(n)]
        absolute = a[:n] if real else [table(big + 1, sig[i], y[i])[start:] for i in range(n)]
        hbar = _reverse_pass(absolute, strict, size, consts)[:count]
        em_remainder = em_remainder + hbar * tails[-2] * tails[-1]
    if real:
        em_remainder = em_remainder + _tails_rounding(a, strict, sig, y, start, big, values, em_value)
    return values + em_value, em_remainder


def _tails_rounding(
    a: list[np.ndarray], strict: Sequence[bool], sig: list[float], y: Sequence[float],
    start: int, big: int, values: np.ndarray, em_value: np.ndarray,
) -> np.ndarray:
    """The rounding term of ``chain_tails`` on all-real data, per m.

    A term's operations are ``_path_ops``' over each k = lo(m)..K, with r
    additions for the levels' first and the final one, or, as the reverse
    pass adds the small terms first, fewer: S_i(k) adds a term of index j
    in j - k + 1 additions, so a term of last index start + J passes at most
    J + r of them over the r levels.  The sum over the terms of J times the
    term is one more reverse pass, its last level weighted by J; each m takes
    the smaller bound.  The EM value's path runs ``_path_ops``' count."""
    r, count, size = len(a), len(values), len(a[0])
    tables, sums, exact, em_ops = _path_ops(sig, y, np.arange(start, start + count), big)
    weighted = _reverse_pass([*a[:-1], a[-1] * np.arange(size)], strict, size)[:count]
    # sum_t gamma_(J_t + c) x_t <= (sum_t J_t x_t + c F) gamma_K / K, K the largest J + c.
    k_max = tables + size + r + 1
    dp = np.minimum(_gamma_times(k_max, weighted + (tables + r + 1) * values) / k_max,
                    _gamma_times(tables + sums + r + 1, values))
    dp = np.where(exact & (em_value == 0), 0.0, dp)
    return dp + _gamma_times(np.where(exact, 0.0, tables + sums) + r + 1 + em_ops, em_value)


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
    _check_finite(x, "shift")  # -inf is malformed, not a DomainError
    if x <= 0:
        raise DomainError("Hurwitz shift must be positive")
    return ez_zeta_star_star((s,), (x,), cfg)
