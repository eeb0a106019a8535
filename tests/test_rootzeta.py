"""Root-system zeta values of type A and their shifted reductions.

The evaluator here sums the defining nested series directly; in the
reduction checks its shifted variants are compared against the chain
evaluator from ``ezzeta``, which uses a different algorithm, so agreement
is a genuine cross-check rather than a tautology.
"""

import cmath
import math

import numpy as np
import pytest

from shzeta.errors import DomainError, UsageError
from shzeta.ezzeta import (
    Approx,
    EvalConfig,
    ez_zeta,
    ez_zeta_star,
    hurwitz,
    neg_power,
    power_table_scope,
)
from shzeta.identities import IdentityReport
from shzeta.rootzeta import (
    MAX_DEPTH,
    ReductionReport,
    RootExponents,
    check_reductions,
    zeta_Ar,
    zeta_bullet,
    zeta_bullet_H,
    zeta_H,
)

ZETA2 = math.pi**2 / 6
TORNHEIM_2_2_2 = math.pi**6 / 2835  # sum_{m,n>=1} m^-2 n^-2 (m+n)^-2


class TestIndexing:
    def test_from_flat_ordering(self):
        e = RootExponents.from_flat(2, [10, 20, 30])
        assert e.s[(1, 2)] == 10 and e.s[(2, 3)] == 20 and e.s[(1, 3)] == 30

    def test_from_flat_length_check(self):
        with pytest.raises(UsageError):
            RootExponents.from_flat(2, [2, 2])

    def test_pair_cover_check(self):
        with pytest.raises(UsageError):
            RootExponents(1, {(1, 3): 2})

    def test_chain_layout(self):
        e = RootExponents.chain([5, 7])
        assert e.s[(1, 2)] == 5 and e.s[(1, 3)] == 7
        assert e.s[(2, 3)] == 0

    def test_depth_cap_on_evaluation(self):
        e = RootExponents.from_flat(MAX_DEPTH + 1, [2] * 15)
        with pytest.raises(UsageError):
            zeta_Ar(e)


class TestValues:
    def test_depth_zero_is_one(self):
        a = zeta_Ar(RootExponents(0, {}))
        assert a.value == 1.0 and a.err_bound == 0.0

    def test_depth_one_is_zeta(self):
        a = zeta_Ar(RootExponents.from_flat(1, [2]))
        assert abs(a.value - ZETA2) <= a.err_bound + 1e-10

    def test_tornheim(self):
        a = zeta_Ar(RootExponents.from_flat(2, [2, 2, 2]), EvalConfig(cutoff=600))
        assert abs(a.value - TORNHEIM_2_2_2) <= a.err_bound
        # The bound here is loose (no closed tail for the coupled factor)
        # but the value itself is much closer:
        assert abs(a.value - TORNHEIM_2_2_2) < 1e-7

    def test_shifted_depth_one_vs_hurwitz(self):
        e = RootExponents.from_flat(1, [2])
        a = zeta_H(e, 0.3)
        h = hurwitz(2, 0.3)
        # zeta_H starts its variable at 1; hurwitz at 0.
        assert abs(a.value - (h.value - 0.3**-2)) <= a.err_bound + h.err_bound + 1e-12
        b = zeta_bullet_H(e, 1, 0.3)
        assert abs(b.value - h.value) <= b.err_bound + h.err_bound + 1e-12


# Bounds of _truncation_bound's one-variable majorants, pinned at rel 1e-12
# (depth 2 at cutoff 200, depth 3 at cutoff 60, depth 4 at cutoff 20).
DEPTH2 = RootExponents.from_flat(2, [2.5, 2, 3])
DEPTH3 = RootExponents.from_flat(3, [2, 2.5, 3, 2, 2, 3])
# A last variable in four factors, so it is summed under three loop levels.
DEPTH4 = RootExponents.from_flat(4, [2.5, 2, 3, 2, 2, 3, 2, 2.5, 3, 2])
COMPLEX_CHAIN = RootExponents.chain([2 + 0.5j, 3 - 1j, 2.5])
PINNED_ROOT_BOUNDS = [
    ("Ar-2", lambda c: zeta_Ar(DEPTH2, c), 200, 0.14602734659913627, 1.6772389813204347e-05),
    ("Ar-3", lambda c: zeta_Ar(DEPTH3, c), 60, 0.0025467415582302137, 0.00037971640814728484),
    ("bullet-2", lambda c: zeta_bullet(DEPTH2, 1, c), 200, 1.1829551015878137, 2.927238981320435e-05),
    ("bullet-3", lambda c: zeta_bullet(DEPTH3, 2, c), 60, 1.167445952662392, 0.0009778846074551654),
    ("H-2", lambda c: zeta_H(DEPTH2, 0.5, c), 200, 0.01393711652893707, 7.344383216091268e-06),
    ("H-3", lambda c: zeta_H(DEPTH3, 0.5, c), 60, 3.485681040448898e-05, 0.00012106931684445245),
    ("bullet_H-2", lambda c: zeta_bullet_H(DEPTH2, 1, 0.5, c), 200, 0.8328256529867253,
     7.770616724105707e-05),
    ("bullet_H-3", lambda c: zeta_bullet_H(DEPTH3, 2, 0.5, c), 60, 3.6079438746694636,
     0.018924717171773683),
    # Every variable zero-started: the primed rule omits the zero-base factors.
    ("bullet-2-all", lambda c: zeta_bullet(DEPTH2, 2, c), 200, 3.208159681532789,
     2.927238981320435e-05),
    ("bullet_H-3-all", lambda c: zeta_bullet_H(DEPTH3, 3, 0.5, c), 60, 23185.700622636785,
     0.6055909494967578),
    ("Ar-4", lambda c: zeta_Ar(DEPTH4, c), 20, 1.2393576850876606e-06, 0.14919924528077994),
    ("H-4", lambda c: zeta_H(DEPTH4, 0.5, c), 20, 2.012724393597508e-09, 0.01612239939188147),
    ("H-3-complex", lambda c: zeta_H(COMPLEX_CHAIN, 0.7, c), 200,
     0.0020403172089389124 + 0.0025314970850703698j, 2.4956518604458683e-09),
]


@pytest.mark.parametrize(
    "fn,cutoff,value,bound", [pytest.param(*row[1:], id=row[0]) for row in PINNED_ROOT_BOUNDS]
)
def test_pinned_bounds(fn, cutoff, value, bound):
    a = fn(EvalConfig(cutoff=cutoff))
    assert a.value == pytest.approx(value, rel=1e-12)
    assert a.err_bound == pytest.approx(bound, rel=1e-12)


@pytest.mark.parametrize("x", [1e-3, 1e-50, 1e-110])
def test_each_factor_bounded_at_its_own_least_base(x):
    # The factor (2, 3) has the one-started variable 2 in its block, so its
    # base is at least 1 + x; bounding it by x^-3 gave 2e8, 2e196 and inf.
    e = RootExponents.from_flat(2, [2, 2, 3])
    a = zeta_bullet_H(e, 1, x, EvalConfig(50))
    ref = zeta_bullet_H(e, 1, x, EvalConfig(3000))
    assert abs(a.value - ref.value) + ref.err_bound <= a.err_bound <= 1e-3 * abs(a.value)


class TestPrimedVariant:
    def test_degree_zero_prime_is_the_plain_value(self):
        e = RootExponents.from_flat(1, [2])
        assert zeta_bullet(e, 0).value == zeta_Ar(e).value
        assert zeta_bullet(e, 0).err_bound == zeta_Ar(e).err_bound

    def test_full_prime_adds_the_empty_term(self):
        # Omitting the only factor for m = 0 leaves an empty product, so
        # the primed depth-1 value is 1 + zeta(s).
        e = RootExponents.from_flat(1, [2])
        a = zeta_bullet(e, 1)
        assert abs(a.value - (1.0 + ZETA2)) <= a.err_bound + 1e-10

    @pytest.mark.parametrize("z", [[2, 3], [3, 2, 2], [2 + 0.5j, 3], [2.5, 2, 3]])
    def test_full_prime_chain_splits_at_its_zero_prefix(self, z):
        # The partial sums m_1 + ... + m_l form a weak chain from 0, and each
        # zero base drops its factor: a chain zero on its first k places
        # leaves zeta*(z[k:]), and the all-zero one the empty product 1.
        cfg = EvalConfig(cutoff=300)
        a = zeta_bullet(RootExponents.chain(z), len(z), cfg)
        parts = [ez_zeta_star(z[k:], cfg=cfg) for k in range(len(z))]
        value = 1.0 + sum(p.value for p in parts)
        assert abs(a.value - value) <= a.err_bound + sum(p.err_bound for p in parts)

    def test_prime_degree_bounds(self):
        e = RootExponents.from_flat(1, [2])
        with pytest.raises(UsageError):
            zeta_bullet(e, 2)
        with pytest.raises(UsageError):
            zeta_bullet(e, -1)


class TestDomain:
    def test_rejects_boundary_exponent(self):
        with pytest.raises(DomainError):
            zeta_Ar(RootExponents.from_flat(1, [1]))

    def test_rejects_negative_inner_exponent(self):
        e = RootExponents.from_flat(2, [2, -1, 2])
        with pytest.raises(DomainError):
            zeta_Ar(e)

    def test_tiny_shift_on_one_started_variables(self):
        # Every base is at least 1 + 1e-200, which rounds to 1, so the value
        # is zeta_Ar's; a never-read (1e-200)^-s table entry once made it NaN.
        e, cfg = RootExponents.chain([2, 3]), EvalConfig(cutoff=200)
        assert zeta_H(e, 1e-200, cfg) == zeta_Ar(e, cfg)

    def test_tiny_shift_on_a_zero_started_variable_overflows(self):
        # The m = 0 term (1e-200)^-2 is beyond the double range; at depth 1
        # it is the whole sum, read from the tail's index 0.
        with pytest.raises(DomainError, match="overflows"):
            zeta_bullet_H(RootExponents.chain([2]), 1, 1e-200)

    def test_shift_must_be_positive_for_zero_start(self):
        e = RootExponents.from_flat(1, [2])
        with pytest.raises(DomainError):
            zeta_bullet_H(e, 1, 0.0)


class TestReductions:
    CFG = EvalConfig(cutoff=2000)

    @pytest.mark.parametrize("z", [[2], [3], [2, 3], [3, 2]])
    @pytest.mark.parametrize("m", [1, 2])
    def test_both_reductions_pass(self, z, m):
        for rep in check_reductions(z, z, float(m), self.CFG):
            assert rep.passes(), (rep.kind, rep.discrepancy, rep.budget)
            assert rep.budget < 1e-6

    def test_strict_reduction_against_chain_evaluator(self):
        # Same series by two routes: nested direct summation vs. the
        # prefix-sum chain DP.
        lhs = zeta_H(RootExponents.chain([2, 3]), 2.0, self.CFG)
        rhs = ez_zeta([2, 3], [2.0, 2.0], self.CFG)
        assert abs(lhs.value - rhs.value) <= lhs.err_bound + rhs.err_bound + 1e-9

    def test_report_accounting(self):
        rep = check_reductions([2], [], 1.0, self.CFG)[0]
        assert rep.kind == "star_star"
        assert rep.discrepancy == abs(rep.lhs.value - rep.rhs.value)
        assert rep.budget == rep.lhs.err_bound + rep.rhs.err_bound

    def test_slack_is_relative(self):
        # One pass rule for both report types: the identity suite's pairs,
        # where 1e-9 absolute would exceed both tiny sides, and a big pair
        # the relative slack covers.
        pairs = [(Approx(1e-12, 1e-20), Approx(0, 1e-20)),
                 (Approx(1e3, 0.0), Approx(1e3 + 1e-7, 0.0))]
        for (lhs, rhs), verdict in zip(pairs, (False, True)):
            assert ReductionReport("strict", lhs, rhs).passes() is verdict
            assert IdentityReport("x", lhs, rhs).passes is verdict


class TestSharedTables:
    """The factor tables come from the kernel's store, and no call writes
    into one: the primed rule takes a copy, and a tiny shift's overflow at
    index 0 is zeroed in the level's own vector."""

    def test_tables_stay_as_built(self):
        e = RootExponents.from_flat(2, [2.5, complex(2.0, 0.5), 3.0])
        cfg = EvalConfig(50)
        with power_table_scope() as store:
            for d in (1, 2):
                zeta_bullet(e, d, cfg)
            assert cmath.isfinite(zeta_H(e, 1e-200, cfg).value)
        assert store
        for (length, s, y, absolute), table in store.items():
            with np.errstate(over="ignore"):
                fresh = neg_power(np.arange(length, dtype=np.float64) + y, s)
            assert table.tobytes() == fresh.tobytes()
            assert not table.flags.writeable
