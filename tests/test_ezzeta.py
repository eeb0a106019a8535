"""Certified chain evaluation against independently computed references.

The frozen decimals below were produced by an out-of-band computation
(Hurwitz-zeta partial sums plus integral tails, via scipy) that shares no
code with this package.  Convention: in ``ez_zeta(s, y)`` the exponent
``s[0]`` sits on the *smallest* summation index.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shzeta.errors import DomainError
from shzeta.ezzeta import (
    APPROX_ONE,
    APPROX_ZERO,
    Approx,
    EvalConfig,
    eval_chain,
    ez_zeta,
    ez_zeta_star,
    ez_zeta_star_star,
    hurwitz,
)

ZETA2 = math.pi**2 / 6
ZETA4 = math.pi**4 / 90
ZETA6 = math.pi**6 / 945

# Independent references (see module docstring); the first block is from a
# high-precision evaluation (30 significant digits, truncated here), the
# mixed-chain value from partial sums plus integral tails (~1e-10).
ORACLE_TOL = 1e-9
STRICT_3_2 = 0.7115661975505724  # sum_{m1<m2} m1^-3 m2^-2
STRICT_2_3 = 0.2288103976033538  # sum_{m1<m2} m1^-2 m2^-3
STAR_2_2 = 1.8940656589944918  # sum_{m1<=m2} m1^-2 m2^-2
STRICT_2_2 = 0.8117424252833536  # = 3 zeta(4) / 4
STRICT_2_2_3 = 0.0291256222898262  # sum_{m1<m2<m3} m1^-2 m2^-2 m3^-3
STRICT_SHIFTED = 0.0789617678118182  # (2 @ y=0.5, 3 @ y=0.3), strict
STARSTAR_SHIFTED = 418.5718117093918  # (2 @ 0.3, 3 @ 0.3), weak from 0
HURWITZ_2_03 = 12.24536454610773  # sum_{m>=0} (m+0.3)^-2
MIXED_CHAIN = 0.23906194961019103  # m1<=m2<m3: m1^-2 (m2+.5)^-3 m3^-2


def check(a: Approx, reference: float) -> None:
    assert abs(a.value - reference) <= a.err_bound + ORACLE_TOL
    assert a.err_bound < 1e-4


class TestFrozenOracles:
    def test_depth_one(self):
        check(ez_zeta([2]), ZETA2)
        check(ez_zeta([4]), ZETA4)

    def test_strict_depth_two(self):
        check(ez_zeta([3, 2]), STRICT_3_2)
        check(ez_zeta([2, 3]), STRICT_2_3)
        check(ez_zeta([2, 2]), STRICT_2_2)

    def test_weak_depth_two(self):
        check(ez_zeta_star([2, 2]), STAR_2_2)

    def test_strict_depth_three(self):
        check(ez_zeta([2, 2, 3]), STRICT_2_2_3)

    def test_shifted_strict(self):
        check(ez_zeta([2, 3], [0.5, 0.3]), STRICT_SHIFTED)

    def test_weak_from_zero(self):
        # The (0,0) filling contributes (0.3)^-2 (0.3)^-3 ~ 411, so the
        # large value is expected, not a bug.
        check(ez_zeta_star_star([2, 3], [0.3, 0.3]), STARSTAR_SHIFTED)

    def test_hurwitz(self):
        check(hurwitz(2, 0.3), HURWITZ_2_03)

    def test_mixed_chain(self):
        check(eval_chain([2, 3, 2], [0.0, 0.5, 0.0], [False, True]), MIXED_CHAIN)


class TestClosedForms:
    def test_stuffle(self):
        # zeta*(2,2) = zeta(2,2) + zeta(4)
        lhs = ez_zeta_star([2, 2])
        rhs = ez_zeta([2, 2]) + ez_zeta([4])
        assert abs(lhs.value - rhs.value) <= lhs.err_bound + rhs.err_bound + 1e-12

    def test_strict_2_2_closed_form(self):
        a = ez_zeta([2, 2])
        assert abs(a.value - 3 * ZETA4 / 4) <= a.err_bound

    def test_star_2_2_closed_form(self):
        a = ez_zeta_star([2, 2])
        assert abs(a.value - 7 * ZETA4 / 4) <= a.err_bound

    def test_hurwitz_half_shift(self):
        a = hurwitz(2, 0.5)
        assert abs(a.value - 3 * ZETA2) <= a.err_bound
        b = hurwitz(3, 0.5)
        assert abs(b.value - 7 * ez_zeta([3]).value) <= b.err_bound + 1e-9


class TestConventions:
    def test_depth_zero_is_exactly_one(self):
        for f in (ez_zeta, ez_zeta_star):
            a = f([])
            assert a.value == 1.0 and a.err_bound == 0.0
        a = ez_zeta_star_star([], [])
        assert a.value == 1.0 and a.err_bound == 0.0

    def test_negative_depth_is_exactly_zero(self):
        assert ez_zeta([2], depth=-1).value == 0.0
        assert ez_zeta([2], depth=-1).err_bound == 0.0
        assert ez_zeta_star([2], depth=-2) == APPROX_ZERO
        assert ez_zeta_star_star([2], [0.3], depth=-1) == APPROX_ZERO

    def test_star_star_requires_positive_shifts(self):
        with pytest.raises(DomainError):
            ez_zeta_star_star([2, 3], [0.0, 0.3])

    def test_domain_rejects_boundary(self):
        with pytest.raises(DomainError):
            ez_zeta([1])  # needs Re > 1 at the last slot
        with pytest.raises(DomainError):
            ez_zeta([0.5, 2])  # needs Re >= 1 before
        # Re = 1 before the last slot is allowed.
        ez_zeta([1, 2])

    @pytest.mark.parametrize(
        "call",
        [
            lambda: ez_zeta([2], [-1.0]),  # the m = 1 term is 0^-2
            lambda: ez_zeta([2, 3], [0.0, -2.0]),  # m_2 = 2 gives base 0
            lambda: eval_chain([2, 3], [0.3, 0.0], [False], first_min=0),
            lambda: eval_chain([2, 3], [0.3, -1.0], [True], first_min=0),
            lambda: ez_zeta_star([2, 2], [0.5, -1.5]),
        ],
        ids=["strict-1", "strict-2", "weak-from-0", "strict-from-0", "weak-2"],
    )
    def test_zero_or_negative_base_is_rejected(self, call):
        # Cell i's least base, first_min + strict steps before it + y_i,
        # must be positive: a base <= 0 has no power to sum.
        with pytest.raises(DomainError):
            call()

    def test_negative_shift_with_positive_bases(self):
        # sum_{m >= 1} (m - 1/2)^-2 = 4 sum (2m - 1)^-2 = pi^2 / 2
        a = ez_zeta([2], [-0.5])
        assert abs(a.value - math.pi**2 / 2) <= a.err_bound
        assert a.err_bound < 1e-6


class TestErrorAccounting:
    @pytest.mark.parametrize("cutoff", [200, 500, 2000])
    def test_bound_honest_depth_one(self, cutoff):
        a = ez_zeta([2], cfg=EvalConfig(cutoff=cutoff))
        assert abs(a.value - ZETA2) <= a.err_bound

    @pytest.mark.parametrize("cutoff", [200, 500, 2000])
    def test_bound_honest_depth_two(self, cutoff):
        a = ez_zeta([3, 2], cfg=EvalConfig(cutoff=cutoff))
        assert abs(a.value - STRICT_3_2) <= a.err_bound + ORACLE_TOL

    def test_bound_shrinks_with_cutoff(self):
        coarse = ez_zeta([2, 2], cfg=EvalConfig(cutoff=200))
        fine = ez_zeta([2, 2], cfg=EvalConfig(cutoff=4000))
        assert fine.err_bound < coarse.err_bound / 10


class TestApproxArithmetic:
    def test_ring_ops(self):
        a = Approx(2.0 + 0j, 0.1)
        b = Approx(3.0 + 0j, 0.01)
        assert (a + b).value == 5.0
        assert (a + b).err_bound == pytest.approx(0.11)
        assert (a - b).err_bound == pytest.approx(0.11)
        p = a * b
        assert p.value == 6.0
        # |a| eb + |b| ea + ea eb
        assert p.err_bound == pytest.approx(2 * 0.01 + 3 * 0.1 + 0.001)
        assert (-a).value == -2.0 and (-a).err_bound == 0.1
        assert a.scale(2.0).value == 4.0
        assert a.scale(2.0).err_bound == pytest.approx(0.2)

    def test_units(self):
        assert APPROX_ONE.value == 1.0 and APPROX_ONE.err_bound == 0.0
        assert APPROX_ZERO.value == 0.0 and APPROX_ZERO.err_bound == 0.0


@settings(max_examples=30, deadline=None)
@given(
    s1=st.floats(min_value=1.5, max_value=4.0),
    s2=st.floats(min_value=1.5, max_value=4.0),
    y=st.floats(min_value=0.0, max_value=1.0),
)
def test_star_splits_into_strict_plus_merge(s1, s2, y):
    """zeta*(s1,s2 | y,y) = zeta(s1,s2 | y,y) + one-variable merge term."""
    cfg = EvalConfig(cutoff=800)
    star = ez_zeta_star([s1, s2], [y, y], cfg)
    strict = ez_zeta([s1, s2], [y, y], cfg)
    diag = ez_zeta([s1 + s2], [y], cfg)  # the m1 = m2 diagonal
    budget = star.err_bound + strict.err_bound + diag.err_bound + 1e-12
    assert abs(star.value - strict.value - diag.value) <= budget


@settings(max_examples=20, deadline=None)
@given(s=st.floats(min_value=1.2, max_value=5.0), cutoff=st.integers(300, 1500))
def test_depth_one_bound_honest_random(s, cutoff):
    import math as _m

    a = ez_zeta([s], cfg=EvalConfig(cutoff=cutoff))
    # Reference via a much larger cutoff.
    ref = ez_zeta([s], cfg=EvalConfig(cutoff=50_000))
    # 1e-15 slack absorbs float rounding the real-number bound cannot see.
    assert abs(a.value - ref.value) <= a.err_bound + ref.err_bound + 1e-15
    assert _m.isfinite(a.err_bound)


def test_argument_validation():
    with pytest.raises(ValueError):
        ez_zeta([2, 3], [0.1])  # mismatched shift length
    with pytest.raises(ValueError):
        EvalConfig(cutoff=0)


# eval_chain values and bounds at depths 3-6, frozen from the kernel as it
# was when it ran the |.| DP (the Hbar majorants) on every layer; the frozen
# residual reads Hbar on the layers up to r - 3.  Strict steps alternate
# weak/strict: (depth, first_min, complex s, cutoff, value, err_bound).
FROZEN_CHAINS = [
    (3, 0, False, 50, 1168.839832068479 + 0j, 0.0005595575673816925),
    (3, 1, True, 2000, 0.1239268701478939 + 0.052644834221066784j, 5.059261515533215e-10),
    (4, 0, False, 50, 1372.6917809360377 + 0j, 0.07541566836040484),
    (4, 1, True, 2000, 0.04024249444554676 - 0.022758681205058886j, 3.180333720882226e-09),
    (5, 0, False, 50, 331.90592130433294 + 0j, 0.1399658558415236),
    (5, 1, True, 2000, 0.0048407540890442954 + 0.002139995177295195j, 4.125946404034183e-09),
    (6, 0, False, 50, 45.180990801709555 + 0j, 0.015401439936333352),
    (6, 1, True, 2000, 0.0002077415111626142 - 0.00017086994096582883j, 2.352135934488825e-11),
]


@pytest.mark.parametrize("depth,first_min,imag,cutoff,value,bound", FROZEN_CHAINS)
def test_frozen_deep_chains(depth, first_min, imag, cutoff, value, bound):
    s = [complex(2 + 0.25 * (i % 3), (0.5 if i % 2 else -0.3) if imag else 0) for i in range(depth)]
    y = [0.3 * ((i + 1) % 2) + 0.1 * (i % 3) for i in range(depth)]
    strict = [i % 2 == 1 for i in range(depth - 1)]
    a = eval_chain(s, y, strict, EvalConfig(cutoff=cutoff), first_min)
    assert a.value == pytest.approx(value, rel=1e-12, abs=0)
    assert a.err_bound == pytest.approx(bound, rel=1e-12)
