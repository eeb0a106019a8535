"""Determinantal and series identities for the tableau zeta values.

Every check here is dual-route: the left side always goes through the
definition-level evaluator (``schur_eval`` or a literal multiple sum),
the right side through an independent construction (determinants of chain
zetas, alternating expansions, factorized Dirichlet sums).  A check that
passes therefore validates both routes at once.
"""

import itertools
import random

import pytest

from shzeta.errors import DomainError, UsageError
from shzeta.ezzeta import APPROX_ONE, APPROX_ZERO, Approx, EvalConfig, ez_zeta
from shzeta.identities import (
    _strip_determinant,
    derivative_fd_check,
    derivative_identity,
    determinant,
    IdentityReport,
    dirichlet_series_expr,
    extended_jacobi_trudi,
    frobenius_expansion,
    giambelli,
    hook_expansion_star,
    hook_expansion_zeta,
    jacobi_trudi_E,
    jacobi_trudi_H,
    jacobi_trudi_H_general,
    skew_giambelli_entries,
    skew_giambelli_hash,
)
from shzeta.shapes import Partition, content, hook, perm_sign
from shzeta.tableaux import ContentSpec, Tableau, constant_tableau, expand_content

CFG = EvalConfig(cutoff=800)

SPEC = ContentSpec({-2: 2, -1: 2, 0: 3, 1: 2, 2: 2.5}, {0: 0.3})
SPEC_Y = ContentSpec({-2: 2, -1: 2, 0: 3, 1: 2, 2: 2.5},
                     {-2: 0.3, -1: 0.3, 0: 0.3, 1: 0.3, 2: 0.3})


def assert_passes(report, max_budget=1e-4):
    assert report.passes, (
        report.identity_id, report.discrepancy, report.budget
    )
    assert report.budget < max_budget


class TestDeterminant:
    def test_two_by_two(self):
        a = Approx(2.0, 0.0)
        b = Approx(3.0, 0.0)
        c = Approx(5.0, 0.0)
        d = Approx(7.0, 0.0)
        out = determinant([[a, b], [c, d]])
        assert out.value == 2 * 7 - 3 * 5

    def test_error_propagates(self):
        a = Approx(1.0, 0.1)
        out = determinant([[a, a], [a, a]])
        assert out.value == 0.0 and out.err_bound > 0

    @staticmethod
    def permutation_sum(entries):
        """The oracle: the signed expansion over all n! permutations, and the
        sum of |term| over them."""
        total, scale = APPROX_ZERO, 0.0
        for perm in itertools.permutations(range(len(entries))):
            term = APPROX_ONE
            for i, j in enumerate(perm):
                term = term * entries[i][j]
            scale += abs(term.value)
            total = total - term if perm_sign(perm) < 0 else total + term
        return total, scale

    @pytest.mark.parametrize("n", range(9))
    def test_matches_permutation_sum(self, n):
        # Random complex entries with error bounds, a fifth of them exact
        # zeros as in the Jacobi-Trudi matrices.
        rng = random.Random(10 * n + 1)
        entries = [
            [
                Approx(complex(rng.gauss(0, 1), rng.gauss(0, 1)), rng.uniform(0, 1e-3))
                if rng.random() > 0.2 else APPROX_ZERO
                for _ in range(n)
            ]
            for _ in range(n)
        ]
        want, scale = self.permutation_sum(entries)
        got = determinant(entries)
        assert abs(got.value - want.value) <= 1e-12 * scale
        assert got.err_bound <= want.err_bound * (1 + 1e-12)


class TestJacobiTrudi:
    @pytest.mark.parametrize("parts", [(1, 1), (2,), (2, 1), (2, 2)])
    def test_H(self, parts):
        assert_passes(jacobi_trudi_H(SPEC, Partition(parts), CFG))

    @pytest.mark.parametrize("parts", [(1, 1), (2,), (2, 1), (2, 2)])
    def test_E(self, parts):
        assert_passes(jacobi_trudi_E(SPEC, Partition(parts), CFG))

    def test_general_reduces_to_content_form(self):
        shape = Partition((2, 1))
        s, x = expand_content(SPEC, shape)
        assert_passes(jacobi_trudi_H_general(s, x, shape, CFG))

    def test_negative_control_breaks_without_diagonal_constancy(self):
        # Same shape, but the two content-0 cells get different exponents:
        # the determinant formula visibly fails, far beyond the budget.
        shape = Partition((2, 2))
        s = Tableau(shape, {(1, 1): 3, (1, 2): 2, (2, 1): 2, (2, 2): 2})
        x = constant_tableau(shape, 0.0)
        rep = jacobi_trudi_H_general(s, x, shape, CFG)
        assert not rep.passes
        assert rep.discrepancy > 1e3 * rep.budget


class TestExtendedJacobiTrudi:
    def test_symmetrized_identity(self):
        shape = Partition((2, 1))
        s, x = expand_content(SPEC, shape)
        assert_passes(extended_jacobi_trudi(s, x, shape, CFG))

    def test_holds_with_asymmetric_diagonal(self):
        # s_11 != s_22 on (3,2): the plain determinant fails, but the
        # diagonal-symmetrized version still holds.
        shape = Partition((3, 2))
        s = Tableau(shape, {
            (1, 1): 3, (1, 2): 2, (1, 3): 2.5, (2, 1): 2, (2, 2): 2,
        })
        x = constant_tableau(shape, 0.0)
        plain = jacobi_trudi_H_general(s, x, shape, CFG)
        assert not plain.passes
        assert_passes(extended_jacobi_trudi(s, x, shape, CFG))

    def test_shape_restriction(self):
        shape = Partition((3, 2, 2))
        s = constant_tableau(shape, 2.0)
        with pytest.raises(UsageError):
            extended_jacobi_trudi(s, constant_tableau(shape, 0.0), shape, CFG)

    def test_domain_enforced(self):
        shape = Partition((2, 1))
        s = constant_tableau(shape, 1.0)  # on the boundary everywhere
        with pytest.raises(DomainError):
            extended_jacobi_trudi(s, constant_tableau(shape, 0.0), shape, CFG)


class TestGiambelli:
    @pytest.mark.parametrize("parts", [(2, 2), (3, 2)])
    def test_straight_shapes(self, parts):
        assert_passes(giambelli(SPEC, Partition(parts), CFG))


class TestSkewGiambelli:
    def gamma_x(self, shape):
        g = Tableau(shape, {c: 3 if c[0] == c[1] else 2 for c in shape.cells()})
        x = constant_tableau(shape, 0.0)
        return g, x

    def test_2_2(self):
        g, x = self.gamma_x(Partition((2, 2)))
        assert_passes(skew_giambelli_hash(g, x, CFG))

    def test_from_content_spec(self):
        # expand_content yields complex exponents; the corner condition must
        # read their real parts.
        spec = ContentSpec({-1: 2, 0: 3, 1: 2}, {})
        report = skew_giambelli_hash(*expand_content(spec, Partition((2, 2))), CFG)
        assert_passes(report)
        g, x = self.gamma_x(Partition((2, 2)))
        assert report.as_dict() == skew_giambelli_hash(g, x, CFG).as_dict()

    def test_entry_shapes_4332(self):
        shape = Partition((4, 3, 3, 2))
        g, x = self.gamma_x(shape)
        ents = skew_giambelli_entries(shape, g, x)
        assert [[str(e[0]) for e in row] for row in ents] == [
            ["4,4,4,4/3,3,3", "3,3,3,3/2,2,2", "1,1,1,1"],
            ["4,4/3", "3,3/2", "1,1"],
            ["4", "3", "1"],
        ]

    def test_corner_condition_enforced(self):
        shape = Partition((2, 2))
        g = constant_tableau(shape, 1)  # corners of the reflection at 1
        with pytest.raises(DomainError):
            skew_giambelli_hash(g, constant_tableau(shape, 0.0), CFG)


class TestHookExpansions:
    @pytest.mark.parametrize("p,q", [(0, 1), (1, 1), (2, 1), (1, 2)])
    def test_star_form(self, p, q):
        assert_passes(hook_expansion_star(SPEC, p, q, CFG))

    @pytest.mark.parametrize("p,q", [(1, 1), (2, 1)])
    def test_zeta_form(self, p, q):
        assert_passes(hook_expansion_zeta(SPEC, p, q, CFG))

    def test_both_forms_agree(self):
        a = hook_expansion_star(SPEC, 1, 1, CFG)
        b = hook_expansion_zeta(SPEC, 1, 1, CFG)
        assert abs(a.lhs.value - b.lhs.value) <= a.lhs.err_bound + b.lhs.err_bound + 1e-12


class TestFrobeniusExpansion:
    @pytest.mark.parametrize("parts", [(2, 2), (3, 2)])
    def test_straight_shapes(self, parts):
        assert_passes(frobenius_expansion(SPEC, Partition(parts), CFG))

    def test_reduces_to_hook_expansion_on_hooks(self):
        shape = hook(1, 1)
        a = frobenius_expansion(SPEC, shape, CFG)
        b = hook_expansion_star(SPEC, 1, 1, CFG)
        assert abs(a.rhs.value - b.rhs.value) <= a.rhs.err_bound + b.rhs.err_bound + 1e-10


class TestStripDeterminant:
    @staticmethod
    def entry(calls):
        def z(a, b):
            calls.append((a, b))
            return Approx(100 + 10 * a + b, 0.0)
        return z

    def test_rows_go_by_strip_end(self):
        calls = []
        det = _strip_determinant([(0, 2), (1, 3)], self.entry(calls))
        assert calls == [(0, 2), (1, 2), (0, 3), (1, 3)]
        assert det.value == 102 * 113 - 112 * 103

    def test_empty_and_negative_segments(self):
        # The second strip is empty: a segment that starts one past its end
        # is 1, one that starts later 0, and neither calls the entry.
        calls = []
        det = _strip_determinant([(0, 1), (3, 2)], self.entry(calls))
        assert calls == [(0, 1), (0, 2)]
        assert det == Approx(101, 0.0)  # entry(0, 1) times 1


class TestLargeShapes:
    # z = 2 on even contents and 2.5 on odd ones, y_0 = 0.3, cutoff 2000.
    # ``before``: the budgets of the full permutation expansions, frozen;
    # expanding by minors may tighten them, never loosen them.  ``pinned``:
    # the budgets of the expansion by minors, so that the bounds the entries
    # carry into the determinant cannot loosen unnoticed either.  The bound
    # of an expansion by minors depends on the matrix's orientation: every
    # strip determinant has rows by strip end, and transposing the
    # Giambelli matrix would raise its budget by 5% and 29% here.
    BUDGETS_BEFORE = [
        ((4, 4, 4, 4), frobenius_expansion, 1.1081738100108418e-05,
         6.215566135993224e-09),
        ((4, 4, 4, 4), jacobi_trudi_H, 4.4722369112325134e-07, 2.146270508882358e-07),
        ((4, 4, 4, 4), jacobi_trudi_E, 1.1374126182039706e-14, 5.194103898673346e-15),
        ((4, 4, 4, 4), giambelli, 1.7970959777422496e-09, 1.3730367617903697e-09),
        ((4, 4, 4, 4), dirichlet_series_expr, 2.5245361709694676e-06,
         3.0609854048147766e-10),
        ((5, 4, 3, 2, 1), frobenius_expansion, 1.649943203830973e-06,
         1.24411494517996e-08),
        ((5, 4, 3, 2, 1), jacobi_trudi_H, 1.2809116459980973e-06, 8.561465466888644e-07),
        ((5, 4, 3, 2, 1), jacobi_trudi_E, 7.22105671822803e-12, 7.080633355762444e-12),
        ((5, 4, 3, 2, 1), giambelli, 1.3655469622299842e-09, 1.2961346519293977e-09),
        ((5, 4, 3, 2, 1), dirichlet_series_expr, 4.5307451843544937e-07,
         1.2981881479216556e-09),
        ((5, 5, 5, 5, 5), frobenius_expansion, 0.00031161853845255945,
         1.5528602399843127e-10),
    ]

    @pytest.mark.parametrize(
        "parts,check,before,pinned", BUDGETS_BEFORE,
        ids=[f"{','.join(map(str, p))}-{f.__name__}" for p, f, _, _ in BUDGETS_BEFORE],
    )
    def test_budget_no_larger_than_before(self, parts, check, before, pinned):
        shape = Partition(parts)
        ks = {content(c) for c in shape.cells()}
        spec = ContentSpec({k: 2.0 if k % 2 == 0 else 2.5 for k in ks}, {0: 0.3})
        rep = check(spec, shape, EvalConfig(cutoff=2000))
        assert rep.passes, (rep.discrepancy, rep.budget)
        assert rep.budget <= before * (1 + 1e-12)
        assert rep.budget == pytest.approx(pinned, rel=1e-9)


class TestDirichletSeriesExpression:
    @pytest.mark.parametrize("parts", [(2, 1), (2, 2)])
    def test_matches_direct_value(self, parts):
        rep = dirichlet_series_expr(SPEC_Y, Partition(parts), CFG, outer_cutoff=200)
        assert rep.passes, (rep.discrepancy, rep.budget)
        assert rep.budget < 1e-3

    # ``before``: budgets when each factor took one per-m chain call per
    # diagonal entry m <= outer cutoff, frozen: the reverse pass may tighten
    # them, never loosen them.  ``pinned``: the budgets of the reverse pass,
    # frozen, so they also pin its error propagation.
    # (shape, spec, outer cutoff, before, pinned); cutoff 2000 throughout
    FROZEN_BUDGETS = [
        # ``check --builtin dirichlet``
        ((2, 1), "builtin", 300, 2.99725201093299e-07, 2.9971698731471235e-07),
        ((3, 1, 1), "builtin", 300, 5.307456471792773e-09, 4.536049181846269e-09),
        ((2, 2), "builtin", 300, 2.839326882329839e-06, 2.8393170477460126e-06),
        # acceptance criterion 06
        ((2, 1), "criterion", 400, 2.995811490034308e-07, 2.995735999140653e-07),
        ((3, 1, 1), "criterion", 400, 2.369800351233917e-11, 1.8722732843036897e-11),
        ((2, 2), "criterion", 400, 9.415905154373759e-07, 9.415814745868148e-07),
    ]

    @pytest.mark.parametrize("parts,spec,outer,before,pinned", FROZEN_BUDGETS)
    def test_budget_no_larger_than_before(self, parts, spec, outer, before, pinned):
        shape = Partition(parts)
        if spec == "builtin":  # the ``check`` palette
            spec = ContentSpec({-3: 3, -2: 2.5, -1: 2, 0: 3, 1: 2, 2: 2.5, 3: 3},
                               {0: 0.3})
        else:  # z = 3 on even contents, 2 on odd ones, y = 0.3 everywhere
            ks = {content(c) for c in shape.cells()}
            spec = ContentSpec({k: 3.0 if k % 2 == 0 else 2.0 for k in ks},
                               {k: 0.3 for k in ks})
        rep = dirichlet_series_expr(spec, shape, EvalConfig(cutoff=2000), outer)
        assert rep.passes, (rep.discrepancy, rep.budget)
        assert rep.budget <= before
        assert rep.budget == pytest.approx(pinned, rel=1e-9)


class TestSlack:
    def test_slack_is_relative(self):
        # 1e-9 absolute would exceed both sides here.
        rep = IdentityReport("x", Approx(1e-12, 1e-20), Approx(0, 1e-20))
        assert not rep.passes
        big = IdentityReport("x", Approx(1e3, 0.0), Approx(1e3 + 1e-7, 0.0))
        assert big.passes


class TestDerivativeIdentities:
    @pytest.mark.parametrize("ell", [0, 1, 2])
    @pytest.mark.parametrize("order", [1, 2])
    def test_hook_2_1(self, ell, order):
        # shape (3,1) = hook(2,1); valid slots are 0..2.
        assert_passes(derivative_identity(SPEC_Y, hook(2, 1), ell, order, CFG))

    def test_slot_out_of_range(self):
        with pytest.raises(UsageError):
            derivative_identity(SPEC_Y, hook(1, 1), 2, 1, CFG)
        with pytest.raises(UsageError):
            derivative_fd_check(SPEC_Y, hook(1, 1), 2, CFG)
        with pytest.raises(UsageError):  # content 5 is not on the shape
            derivative_fd_check(ContentSpec({0: 2}, {0: 0.5}), Partition((1,)), 5, CFG)

    def test_order_out_of_range(self):
        with pytest.raises(UsageError):
            derivative_identity(SPEC_Y, hook(1, 1), 0, 3, CFG)

    def test_non_hook_rejected(self):
        with pytest.raises(UsageError):
            derivative_identity(SPEC_Y, Partition((2, 2)), 0, 1, CFG)

    def test_finite_difference_cross_check(self):
        rep = derivative_fd_check(SPEC_Y, hook(1, 1), 1, CFG)
        assert rep.passes
        assert rep.discrepancy < 1e-3

    def test_fd_needs_room_for_the_step(self):
        with pytest.raises(DomainError):
            derivative_fd_check(SPEC, hook(1, 1), 1, CFG)  # y_1 = 0 there

    def test_fd_rejects_step_past_zero(self):
        # y - h < 0 on the single cell
        with pytest.raises(DomainError):
            derivative_fd_check(ContentSpec({0: 2}, {0: 0.0}), Partition((1,)), 0)

    def test_fd_matches_analytic_single_cell(self):
        # d/dy sum (m+y)^(-s) = -s sum (m+y)^(-s-1)
        rep = derivative_fd_check(ContentSpec({0: 3}, {0: 0.5}), Partition((1,)), 0, CFG)
        ref = ez_zeta([4], [0.5], CFG).scale(-3.0)
        assert abs(rep.lhs.value - ref.value) <= rep.lhs.err_bound + ref.err_bound

    @pytest.mark.parametrize("s", [2, 2.5, 3 + 1j, 1.5 - 0.7j, 4])
    def test_fd_bound_holds_at_depth_one(self, s):
        # On the shape 1 the series is the Hurwitz zeta(s, 1 + y), whose
        # shift derivative is -s zeta(s + 1, 1 + y).  At h = 1e-4 and the
        # largest cutoff the error is almost all the O(h^2) Taylor term and
        # nearly fills the bound, so that term cannot be dropped.
        mpmath = pytest.importorskip("mpmath")
        for y, h, cutoff in itertools.product((0.2, 0.5, 1, 3), (1e-4, 1e-2, 0.1, 0.19),
                                              (20, 200, 2000)):
            rep = derivative_fd_check(ContentSpec({0: s}, {0: y}), Partition((1,)), 0,
                                      EvalConfig(cutoff), h)
            with mpmath.workdps(30):
                ref = complex(-s * mpmath.zeta(s + 1, 1 + mpmath.mpf(y)))
            assert abs(rep.lhs.value - ref) <= rep.lhs.err_bound, (y, h, cutoff)
            assert rep.passes, (y, h, cutoff)


class TestReportShape:
    def test_as_dict_keys(self):
        rep = jacobi_trudi_H(SPEC, Partition((1, 1)), CFG)
        d = rep.as_dict()
        assert set(d) == {"identity_id", "lhs", "rhs", "discrepancy", "budget", "pass"}
        assert d["pass"] is True
