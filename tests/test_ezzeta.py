"""Certified chain evaluation against independently computed references.

The frozen decimals below were produced by an out-of-band computation
(Hurwitz-zeta partial sums plus integral tails, via scipy) that shares no
code with this package.  Convention: in ``ez_zeta(s, y)`` the exponent
``s[0]`` sits on the *smallest* summation index.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shzeta import ezzeta
from shzeta.errors import DomainError
from shzeta.ezzeta import (
    APPROX_ONE,
    APPROX_ZERO,
    Approx,
    EvalConfig,
    chain_tails,
    eval_chain,
    ez_zeta,
    ez_zeta_star,
    ez_zeta_star_star,
    hurwitz,
)
from shzeta.schurzeta import instance_from_spec, schur_eval
from shzeta.shapes import parse_shape
from shzeta.tableaux import ContentSpec

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


@pytest.mark.parametrize("call", [
    lambda: hurwitz(2, 1e-160),
    lambda: ez_zeta_star_star([2, 3], [1e-200, 0.5]),
], ids=["hurwitz", "star-star"])
def test_tiny_zero_started_shift_is_a_domain_error(call):
    # The m = 0 term (1e-160)^-2 or (1e-200)^-2 exceeds the double range;
    # the sums once came back as inf and inf+nanj.
    with pytest.raises(DomainError, match="overflows"):
        call()


@pytest.mark.parametrize("s,y2,first_min", [
    ((2, 3), 1e-200, 0),
    ((2, 30), -(1 - 1e-15), 1),
], ids=["tiny", "negative"])
def test_tiny_base_after_a_strict_step_is_finite(s, y2, first_min):
    # The second cell follows a strict step, so it never takes the value
    # first_min, where its base is tiny; that power (1e-200^-3, 1e-15^-30)
    # once overflowed, and the sum raised DomainError.
    mpmath = pytest.importorskip("mpmath")
    a = eval_chain(s, [0.5, y2], [True], EvalConfig(2000), first_min)
    with mpmath.workdps(30):
        ref = mpmath.nsum(lambda m: (m + 0.5) ** -s[0] * mpmath.zeta(s[1], m + 1 + mpmath.mpf(y2)),
                          [first_min, mpmath.inf])
    # The bound does not count rounding (ROADMAP item 1): the base
    # 2 - (1 - 1e-15) is rounded before its 30th power.
    assert abs(a.value - complex(ref)) <= a.err_bound + 1e-14 * abs(ref)


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


# The bits of value and bound, as float.hex, recorded before cells with one
# (exponent, shift) pair shared a power table: sharing must not move a bit.
# Constant chains, shift 0.3 in every slot: (kind, s, depth, cutoff, bits).
# At depth >= 3 the |.| pass runs; with a real s its table's key would equal
# the value pass's (2.25 == 2.25+0j) but for the pass in the key.
_KINDS = {"strict": ez_zeta, "weak": ez_zeta_star, "zero": ez_zeta_star_star}
_CONSTANT_S = {"real": 2.25, "complex": complex(1.75, 0.5)}
CONSTANT_CHAIN_BITS = [
    ("strict", "real", 1, 2000, ("0x1.d9cafc6ddab22p-1", "0x0.0p+0", "0x1.ec34997ef7d9ep-39")),
    ("strict", "real", 1, 20000, ("0x1.d9cafc6de261dp-1", "0x0.0p+0", "0x1.1bf835758b49dp-49")),
    ("strict", "real", 3, 2000, ("0x1.14fcba8dc64e6p-5", "0x0.0p+0", "0x1.c6fa21f8fe942p-29")),
    ("strict", "real", 3, 20000, ("0x1.14fcbb7067489p-5", "0x0.0p+0", "0x1.705d6d021cc0ep-37")),
    ("strict", "real", 6, 2000, ("0x1.ff69df2c0ddd4p-19", "0x0.0p+0", "0x1.3ac5e66bb8d95p-37")),
    ("strict", "real", 6, 20000, ("0x1.ff6a06576e7b2p-19", "0x0.0p+0", "0x1.fdcc165e16c82p-46")),
    ("strict", "complex", 1, 2000, ("0x1.10f9da74fe254p+0", "-0x1.4430b5dc118e2p-1", "0x1.1add9f299ffe6p-33")),
    ("strict", "complex", 1, 20000, ("0x1.10f9da747cf9cp+0", "-0x1.4430b5dbaa981p-1", "0x1.01f5333b9ca01p-42")),
    ("strict", "complex", 3, 2000, ("-0x1.b1b57886a0ceep-4", "-0x1.0823aa5c40432p-3", "0x1.ec3e1c2e49ee3p-16")),
    ("strict", "complex", 3, 20000, ("-0x1.b1be88f2f7e00p-4", "-0x1.082445dfc23d8p-3", "0x1.f236bdc849b4dp-21")),
    ("strict", "complex", 6, 2000, ("0x1.3afa4ef5c7741p-12", "0x1.6983558d5b9e8p-13", "0x1.26135226fafcap-20")),
    ("strict", "complex", 6, 20000, ("0x1.3b2c66eb2c4bfp-12", "0x1.69b76782a2279p-13", "0x1.29991b2fb6e29p-25")),
    ("weak", "real", 1, 2000, ("0x1.d9cafc6ddab22p-1", "0x0.0p+0", "0x1.ec34997ef7d9ep-39")),
    ("weak", "real", 1, 20000, ("0x1.d9cafc6de261dp-1", "0x0.0p+0", "0x1.1bf835758b49dp-49")),
    ("weak", "real", 3, 2000, ("0x1.62c29221c64d2p-2", "0x0.0p+0", "0x1.c723b47651529p-29")),
    ("weak", "real", 3, 20000, ("0x1.62c2923e22dcbp-2", "0x0.0p+0", "0x1.70636c0250ddfp-37")),
    ("weak", "real", 6, 2000, ("0x1.ebf37460caf13p-5", "0x0.0p+0", "0x1.7ecd6495f0cdep-31")),
    ("weak", "real", 6, 20000, ("0x1.ebf374907ec12p-5", "0x0.0p+0", "0x1.35dc6d3eb3f4cp-39")),
    ("weak", "complex", 1, 2000, ("0x1.10f9da74fe254p+0", "-0x1.4430b5dc118e2p-1", "0x1.1add9f299ffe6p-33")),
    ("weak", "complex", 1, 20000, ("0x1.10f9da747cf9cp+0", "-0x1.4430b5dbaa981p-1", "0x1.01f5333b9ca01p-42")),
    ("weak", "complex", 3, 2000, ("0x1.eb3faab54e475p-3", "-0x1.2926fa399527ap-1", "0x1.ec3e4d189c865p-16")),
    ("weak", "complex", 3, 20000, ("0x1.eb3b22474c84bp-3", "-0x1.2927212b96e8dp-1", "0x1.f236c093ad4dbp-21")),
    ("weak", "complex", 6, 2000, ("-0x1.8f1d31d9be027p-7", "-0x1.3cb3437f3ba85p-3", "0x1.b9b3d44c91da1p-17")),
    ("weak", "complex", 6, 20000, ("-0x1.8f2f0ea9140c0p-7", "-0x1.3cb25479ba798p-3", "0x1.bf0d3ea5c2327p-22")),
    ("zero", "real", 1, 2000, ("0x1.fe09ed692709bp+3", "0x0.0p+0", "0x1.ec34997ef7d9ep-39")),
    ("zero", "real", 1, 20000, ("0x1.fe09ed692784cp+3", "0x0.0p+0", "0x1.1bf835758b49dp-49")),
    ("zero", "real", 3, 2000, ("0x1.c23ccc7ec90a0p+11", "0x0.0p+0", "0x1.f0db2977e87c1p-25")),
    ("zero", "real", 3, 20000, ("0x1.c23ccc7ed8bc9p+11", "0x0.0p+0", "0x1.8d90c5b790caap-33")),
    ("zero", "real", 6, 2000, ("0x1.73f9d8114a928p+23", "0x0.0p+0", "0x1.9b8a449bd8bd9p-13")),
    ("zero", "real", 6, 20000, ("0x1.73f9d8115792cp+23", "0x0.0p+0", "0x1.494f01dfb0a7ep-21")),
    ("zero", "complex", 1, 2000, ("0x1.f602eb1c9aae3p+2", "0x1.017fc551b79d4p+2", "0x1.1add9f299ffe6p-33")),
    ("zero", "complex", 1, 20000, ("0x1.f602eb1c7a634p+2", "0x1.017fc551c47c0p+2", "0x1.01f5333b9ca01p-42")),
    ("zero", "complex", 3, 2000, ("-0x1.c01e1a7adc8d5p+5", "0x1.26d545c9fffc6p+9", "0x1.943d8d838ea65p-13")),
    ("zero", "complex", 3, 20000, ("-0x1.c01e27e9ba4cap+5", "0x1.26d543f112ec5p+9", "0x1.9920755bf178bp-18")),
    ("zero", "complex", 6, 2000, ("-0x1.30458b408cfbbp+18", "-0x1.a0c4fdaf94d37p+16", "0x1.bf0ea4d972a9ap-4")),
    ("zero", "complex", 6, 20000, ("-0x1.3045891ba1e2dp+18", "-0x1.a0c4ff754fcfap+16", "0x1.c4762055583d8p-9")),
]


def _bits(a: Approx) -> tuple[str, str, str]:
    return a.value.real.hex(), a.value.imag.hex(), a.err_bound.hex()


@pytest.mark.parametrize("kind,s,depth,cutoff,bits", CONSTANT_CHAIN_BITS)
def test_constant_chain_bits(kind, s, depth, cutoff, bits):
    a = _KINDS[kind]([_CONSTANT_S[s]] * depth, [0.3] * depth, EvalConfig(cutoff))
    assert _bits(a) == bits


def test_operand_order_bits():
    # numpy evaluates ``table * temporary`` in place as ``temporary *= table``,
    # which swaps the operands of the complex product and, with fused
    # multiply-adds, moved this value from ...293613j to ...293648j.
    s, y = complex(1.68499223565118, -0.7511125559359804), 0.18852062230064282
    a = ez_zeta([s] * 3, [y] * 3, EvalConfig(20000))
    assert _bits(a) == ("-0x1.558227df0b6e4p-3", "0x1.a19666e4dadcap-7", "0x1.40f677c92533cp-18")


@pytest.mark.parametrize("s,y2,first_min,bits", [
    (3, 1e-200, 0, ("0x1.35d842efe0e78p+3", "0x0.0p+0", "0x1.4aa177acaad4cp-43")),
    (30, -(1 - 1e-15), 1, ("0x1.5dfaa69d6451ep-18", "0x0.0p+0", "0x1.c844d7d073bf2p-357")),
], ids=["tiny", "negative"])
def test_tiny_base_after_a_strict_step_bits(s, y2, first_min, bits):
    # test_tiny_base_after_a_strict_step_is_finite's chains with one exponent
    # in both slots; the second cell's powers below its least entry overflow.
    a = eval_chain((s, s), [0.5, y2], [True], EvalConfig(2000), first_min)
    assert _bits(a) == bits


# Content specs: 4,3,2,1 has seven contents, each with its own (z, y) pair.
SPECS = {
    "3,2": ({-1: 2, 0: 2.5 + 0.5j, 1: 2, 2: 3}, {0: 0.25, 1: 0.5}),
    "4,3,2,1": ({k: 2 + 0.125 * (k + 3) for k in range(-3, 4)}, {-1: 0.5, 2: 0.75}),
}


def _instance(shape):
    z, y = SPECS[shape]
    return instance_from_spec(ContentSpec(z, y), parse_shape(shape))


@pytest.mark.parametrize("shape,bits", [
    ("3,2", ("0x1.3c89a265c5644p-6", "-0x1.6421927a92455p-6", "0x1.58b8d6c2edc72p-30")),
    ("4,3,2,1", ("0x1.c49b654e9ae15p-16", "0x0.0p+0", "0x1.3cfe968f8f848p-34")),
])
def test_schur_eval_bits(shape, bits):
    assert _bits(schur_eval(_instance(shape))) == bits


class TestOneTablePerPair:
    def test_constant_chain(self, built):
        ez_zeta([2.25] * 6, [0.3] * 6, EvalConfig(200))
        assert built == {"value": 1, "abs": 1}

    def test_distinct_exponents_with_one_real_part(self, built):
        ez_zeta([complex(2.5, 0.1 * k) for k in range(6)], [0.3] * 6, EvalConfig(200))
        assert built == {"value": 6, "abs": 1}

    def test_diagonal_cells(self, built):
        with ezzeta.power_table_scope() as store:
            schur_eval(_instance("4,3,2,1"), EvalConfig(200))
        assert built == {"value": 7, "abs": 7}
        assert sum(not absolute for *_, absolute in store) == 7

    def test_chain_tails(self, built):
        chain_tails([2.5] * 4, [0.3] * 4, [True] * 3, EvalConfig(100), 5, 1)
        assert built == {"value": 1, "abs": 1}

    def test_tables_are_read_only(self):
        a = ezzeta._power_tables(np.arange(10.0))(2.5 + 0j, 0.3, False)
        with pytest.raises(ValueError):
            a[3] = 0.0

    def test_scope_shares_tables_between_calls(self, built):
        args = [2.25] * 3, [0.3] * 3
        with ezzeta.power_table_scope() as store:
            ez_zeta(*args, EvalConfig(200))
            ez_zeta(*args, EvalConfig(200))
            assert built == {"value": 1, "abs": 1} and len(store) == 2
            # Another least first index reads the same tables; another
            # length is another table.
            ez_zeta_star_star(*args, EvalConfig(200))
            assert built == {"value": 1, "abs": 1} and len(store) == 2
            ez_zeta(*args, EvalConfig(100))
            assert built == {"value": 2, "abs": 2} and len(store) == 4
        assert ezzeta._SCOPE_TABLES.get() is None
        ez_zeta(*args, EvalConfig(200))  # no scope: built per call
        assert built == {"value": 3, "abs": 3}

    def test_shared_tables_keep_each_value(self):
        # Each call zeroes the entries below its own least index in its own
        # arrays, so reading one table from 1, 0 and 1 again changes no bit.
        args = [2.25] * 3, [0.3] * 3
        calls = (ez_zeta, ez_zeta_star_star, ez_zeta)
        alone = [f(*args, EvalConfig(200)) for f in calls]
        with ezzeta.power_table_scope():
            assert [f(*args, EvalConfig(200)) for f in calls] == alone
