"""Tableau-sum evaluation via the chain decomposition.

The frozen decimal for the (2,1) value was computed out of band from
Hurwitz-zeta partial sums with integral tails, independently of this
package's code.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shzeta.errors import DomainError, UsageError
from shzeta.ezzeta import EvalConfig, ez_zeta, hurwitz
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
from shzeta.tableaux import ContentSpec, Tableau, as_skew, constant_tableau

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
