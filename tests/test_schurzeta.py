"""Tableau-sum evaluation via the chain decomposition.

The frozen decimal for the (2,1) value was computed out of band from
Hurwitz-zeta partial sums with integral tails, independently of this
package's code.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shzeta.errors import DomainError, UsageError
from shzeta.ezzeta import EvalConfig, ez_zeta, hurwitz
from shzeta.lgv import truncated_schur_via_paths, verify_cancellation
from shzeta.schurzeta import (
    SchurInstance,
    chain_decomposition,
    chain_truncated_exact,
    instance_from_spec,
    linear_extensions,
    schur_eval,
    schur_truncated_exact,
    shift_exponent,
)
from shzeta.shapes import Partition, parse_shape
from shzeta.tableaux import (
    ContentSpec,
    Tableau,
    as_skew,
    constant_tableau,
    int_exponent,
    ssyt_fillings,
)

# sum over SSYT of (2,1) with exponents 3 @ (1,1), 2 @ (1,2), 2 @ (2,1)
# and shift 0.3 on the main diagonal.
HOOK_21_ORACLE = 0.5082217398123493
ORACLE_TOL = 1e-9

SPEC_21 = ContentSpec({-1: 2, 0: 3, 1: 2}, {0: 0.3})


class TestLinearExtensions:
    @pytest.mark.parametrize("parts,count", [
        ((2, 1), 2),
        ((2, 2), 2),
        ((3, 2), 5),
        ((3, 2, 1), 16),
        ((3, 3, 1), 21),
    ])
    def test_counts(self, parts, count):
        assert len(linear_extensions(as_skew(Partition(parts)))) == count

    def test_skew_count(self):
        assert len(linear_extensions(parse_shape("3,3/1"))) == 5

    def test_extensions_respect_the_order(self):
        for cells in linear_extensions(as_skew(Partition((3, 2)))):
            pos = {c: k for k, c in enumerate(cells)}
            for (i, j) in cells:
                if (i, j - 1) in pos:
                    assert pos[(i, j - 1)] < pos[(i, j)]
                if (i - 1, j) in pos:
                    assert pos[(i - 1, j)] < pos[(i, j)]


class TestChainDecomposition:
    def test_hook_strictness(self):
        chains = dict(chain_decomposition(Partition((2, 1))))
        assert chains[((1, 1), (1, 2), (2, 1))] == (False, True)
        assert chains[((1, 1), (2, 1), (1, 2))] == (True, False)

    @pytest.mark.parametrize("parts", [(2, 2), (3, 2), (2, 2, 1)])
    def test_chain_sum_equals_tableau_sum_exactly(self, parts):
        shape = Partition(parts)
        s = Tableau(shape, {c: 2 + (c[1] % 2) for c in shape.cells()})
        x = Tableau(shape, {c: Fraction(1, 2) if c[0] == c[1] else 0 for c in shape.cells()})
        for m in (3, 5):
            assert chain_truncated_exact(shape, s, x, m) == schur_truncated_exact(
                shape, s, x, m
            )

    def test_chain_sum_equals_tableau_sum_skew(self):
        shape = parse_shape("3,3/1")
        s = constant_tableau(shape, 2)
        x = constant_tableau(shape, 0)
        assert chain_truncated_exact(shape, s, x, 4) == schur_truncated_exact(
            shape, s, x, 4
        )


class TestSchurEval:
    def test_single_cell_is_a_plain_zeta(self):
        inst = instance_from_spec(ContentSpec({0: 2}, {}), Partition((1,)))
        a = schur_eval(inst)
        b = ez_zeta([2])
        assert abs(a.value - b.value) <= a.err_bound + b.err_bound + 1e-15

    def test_single_cell_shifted(self):
        inst = instance_from_spec(ContentSpec({0: 2}, {0: 0.3}), Partition((1,)))
        a = schur_eval(inst)
        h = hurwitz(2, 0.3)
        # hurwitz starts at m=0; the tableau entry starts at 1.
        assert abs(a.value - (h.value - 0.3**-2)) <= a.err_bound + h.err_bound + 1e-12

    def test_hook_oracle(self):
        a = schur_eval(instance_from_spec(SPEC_21, Partition((2, 1))))
        assert abs(a.value - HOOK_21_ORACLE) <= a.err_bound + ORACLE_TOL
        assert a.err_bound < 1e-5

    @pytest.mark.parametrize("cutoff", [10, 25, 40])
    def test_value_brackets_exact_truncation(self, cutoff):
        shape = Partition((2, 2))
        spec = ContentSpec({-1: 2, 0: 3, 1: 2}, {})
        inst = instance_from_spec(spec, shape)
        a = schur_eval(inst, EvalConfig(cutoff=cutoff))
        exact = float(
            schur_truncated_exact(shape, inst.exponents, inst.shifts, cutoff)
        )
        # All terms are positive, so the exact truncation is a lower bound
        # for the true value, which the certified interval must contain.
        assert exact <= a.value.real + a.err_bound + 1e-12
        ref = schur_eval(inst, EvalConfig(cutoff=4000))
        assert abs(a.value - ref.value) <= a.err_bound + ref.err_bound + 1e-12

    def test_domain_enforced(self):
        with pytest.raises(DomainError):
            schur_eval(instance_from_spec(ContentSpec({0: 1}, {}), Partition((1,))))

    @pytest.mark.parametrize("z,y", [
        ({-1: 2, 0: 2, 1: 2}, {0: math.nan}),
        ({-1: 2, 0: math.inf, 1: 2}, {}),
        ({-1: 2, 0: complex(2, math.nan), 1: 2}, {}),
    ], ids=["nan-shift", "inf-exponent", "nan-imag"])
    def test_non_finite_data_is_refused(self, z, y):
        # A NaN shift used to reach the kernel and read as an overflow.
        with pytest.raises(UsageError, match="must be a finite number"):
            instance_from_spec(ContentSpec(z, y), Partition((2, 1)))

    def test_missing_content_raises(self):
        with pytest.raises(UsageError):
            instance_from_spec(ContentSpec({0: 2}, {}), Partition((2, 1)))


class TestShiftExponent:
    def test_single_shift(self):
        inst = instance_from_spec(SPEC_21, Partition((2, 1)))
        out = shift_exponent(inst, [(1, 2)], 1)
        assert out.exponents[(1, 2)] == inst.exponents[(1, 2)] + 1
        assert out.exponents[(1, 1)] == inst.exponents[(1, 1)]
        assert out.shifts == inst.shifts

    def test_repeats_compound(self):
        inst = instance_from_spec(SPEC_21, Partition((2, 1)))
        out = shift_exponent(inst, [(1, 1), (1, 1)], 1)
        assert out.exponents[(1, 1)] == inst.exponents[(1, 1)] + 2

    def test_unknown_cell(self):
        inst = instance_from_spec(SPEC_21, Partition((2, 1)))
        with pytest.raises(UsageError):
            shift_exponent(inst, [(5, 5)], 1)


@settings(max_examples=25, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=4),
    e=st.integers(min_value=2, max_value=4),
)
def test_truncation_agreement_randomized(m, e):
    shape = Partition((2, 1))
    s = constant_tableau(shape, e)
    x = constant_tableau(shape, 0)
    assert chain_truncated_exact(shape, s, x, m) == schur_truncated_exact(shape, s, x, m)


# The reference for both truncations: the same enumerations with one
# Fraction product per term and one running sum.
def fraction_table(s, x, max_entry):
    table = {}
    for c, y in x.entries.items():
        e, y = int_exponent(s[c]), Fraction(y)
        table[c] = [0] + [(m + y) ** -e for m in range(1, max_entry + 1)]
    return table


def fraction_fillings_sum(shape, s, x, max_entry):
    table = fraction_table(s, x, max_entry)
    total = Fraction(0)
    for filling in ssyt_fillings(shape, max_entry):
        term = Fraction(1)
        for c, m in filling.items():
            term *= table[c][m]
        total += term
    return total


def fraction_chains_sum(shape, s, x, max_entry):
    table = fraction_table(s, x, max_entry)
    total = Fraction(0)
    for cells, strict in chain_decomposition(shape):
        stack = [(0, 0, Fraction(1))]
        while stack:
            k, prev, w = stack.pop()
            if k == len(cells):
                total += w
                continue
            lo = prev + 1 if (k > 0 and strict[k - 1]) else max(prev, 1)
            row = table[cells[k]]
            for m in range(lo, max_entry + 1):
                stack.append((k + 1, m, w * row[m]))
    return total


EXACT_SHAPES = (
    "1", "2,1", "2,2", "3,1", "2,1,1", "3,2", "3,2,1",
    "2,2/1", "3,1/1", "3,2/1", "3,3/1", "2,2,1/1", "4,2/2,1", "3,3,2/2,1",
)


class TestExactTruncations:
    @pytest.mark.parametrize("seed", range(16))
    def test_match_the_fraction_loops(self, seed):
        # Per-cell exponents -1..3 in turn, so 0 too, and shifts p/q, some
        # negative.
        rng = random.Random(seed)
        shape = parse_shape(EXACT_SHAPES[seed % len(EXACT_SHAPES)])
        cells = shape.cells()
        s = Tableau(shape, {c: (seed + k) % 5 - 1 for k, c in enumerate(cells)})
        x = {}
        for c in cells:
            y = Fraction(rng.randrange(-6, 10), rng.randrange(1, 8))
            x[c] = -y if y < 0 and y.denominator == 1 else y  # no zero base
        x = Tableau(shape, x)
        n = rng.randint(1, 4)
        want = fraction_fillings_sum(shape, s, x, n)
        assert fraction_chains_sum(shape, s, x, n) == want
        assert schur_truncated_exact(shape, s, x, n) == want
        assert chain_truncated_exact(shape, s, x, n) == want
        if not shape.inner.size:
            straight = shape.outer
            s, x = Tableau(straight, s.entries), Tableau(straight, x.entries)
            assert truncated_schur_via_paths(straight, n, s, x, "H") == want


class TestExactBadInput:
    # All three truncations agree on what they refuse.
    def truncations(self, shape, s, x, n):
        return (
            lambda: schur_truncated_exact(shape, s, x, n),
            lambda: chain_truncated_exact(shape, s, x, n),
            lambda: truncated_schur_via_paths(shape, n, s, x, "H"),
        )

    @pytest.mark.parametrize("n", [0, -2])
    def test_max_entry_below_one(self, n):
        # An empty range is an error, not a sum of no terms (0).
        shape = Partition((2, 1))
        s, x = constant_tableau(shape, 2), constant_tableau(shape, 0)
        for run in self.truncations(shape, s, x, n):
            with pytest.raises(UsageError, match="max_entry must be >= 1"):
                run()

    def test_zero_base_is_a_domain_error(self):
        # Shift -1 makes the base m + x zero at m = 1: every exact route,
        # the cancellation too, names the cell and m.
        shape = Partition((2, 1))
        s, x = constant_tableau(shape, 2), constant_tableau(shape, -1)
        runs = self.truncations(shape, s, x, 3) + (
            lambda: verify_cancellation(shape, 3, s, x, "H"),
        )
        for run in runs:
            with pytest.raises(DomainError, match=r"cell \(\d, \d\): .* at m = 1"):
                run()

    def test_zero_base_that_no_filling_reaches(self):
        # x_(2,1) = -1 zeroes the base at m = 1, which no filling puts in
        # row 2 and no nonintersecting pattern reads: the full tables
        # refuse it on every route all the same.
        shape = Partition((2, 1))
        s = constant_tableau(shape, 2)
        x = constant_tableau(shape, 0).with_entries({(2, 1): -1})
        runs = self.truncations(shape, s, x, 3) + (
            lambda: verify_cancellation(shape, 3, s, x, "H"),
        )
        for run in runs:
            with pytest.raises(DomainError, match=r"cell \(2, 1\): the base m \+ x is 0 at m = 1"):
                run()

    # One row per refused input, on 2,1 unless the tableaux say otherwise:
    # (max entry, exponent and shift tableaux, exception, message).
    SHAPE_21 = Partition((2, 1))
    REFUSED = {
        "max-entry-0": (0, constant_tableau(SHAPE_21, 2), constant_tableau(SHAPE_21, 0),
                        UsageError, "max_entry must be >= 1"),
        "larger-shape": (3, *(constant_tableau(Partition((2, 2)), v) for v in (2, 0)),
                         UsageError, "exponent/shift tableaux must match the shape"),
        "smaller-shape": (3, *(constant_tableau(Partition((2,)), v) for v in (2, 0)),
                          UsageError, "exponent/shift tableaux must match the shape"),
        "same-size-shape": (3, *(constant_tableau(Partition((3,)), v) for v in (2, 0)),
                            UsageError, "exponent/shift tableaux must match the shape"),
        # N = 1 is below the row count: no pattern is nonintersecting.
        "larger-shape-short-grid": (1, *(constant_tableau(Partition((2, 2)), v) for v in (2, 0)),
                                    UsageError, "exponent/shift tableaux must match the shape"),
        "non-integer-exponent": (3, constant_tableau(SHAPE_21, 2.5),
                                 constant_tableau(SHAPE_21, 0), UsageError,
                                 "exact arithmetic needs integer exponents, got 2.5"),
        "over-the-cap": (3, constant_tableau(SHAPE_21, 2).with_entries({(1, 1): 30000}),
                         constant_tableau(SHAPE_21, 0), UsageError,
                         "exact weights could need 120016 bits, beyond the cap (10^5)"),
        "zero-base": (3, constant_tableau(SHAPE_21, 2), constant_tableau(SHAPE_21, -1),
                      DomainError, "cell (1, 1): the base m + x is 0 at m = 1"),
    }

    @pytest.mark.parametrize("row", REFUSED)
    def test_every_exact_entry_point_refuses_alike(self, row):
        # The three truncations and the cancellation raise the same error.
        n, s, x, error, message = self.REFUSED[row]
        shape = self.SHAPE_21
        runs = self.truncations(shape, s, x, n) + (
            lambda: verify_cancellation(shape, n, s, x, "H"),
        )
        for run in runs:
            with pytest.raises(Exception) as caught:
                run()
            assert (type(caught.value), str(caught.value)) == (error, message)
