"""Semistandard tableaux, content parametrization, and sigma-tableaux.

The brute-force enumerations here (all fillings of a shape, filtered) are
deliberately independent of ``ssyt_iter``'s recursive construction, so they
serve as oracles for it.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import partitions
from shzeta.errors import DomainError, UsageError
from shzeta.shapes import Partition, hook, parse_shape
from shzeta.tableaux import (
    ContentSpec,
    Tableau,
    apply_orbit,
    constant_tableau,
    content_spec_from_json,
    contents_of,
    decompose_sigma_tableau,
    diagonal_orbit,
    diagonal_sets,
    expand_content,
    in_I_theta,
    in_W_lambda,
    in_W_lambda_H,
    is_diagonal_constant,
    is_sigma_tableau,
    is_ssyt,
    ssyt_iter,
    tableau_from_rows,
    tableau_to_rows,
)


def all_fillings(shape, max_entry):
    cells = shape.cells()
    for vals in itertools.product(range(1, max_entry + 1), repeat=len(cells)):
        yield Tableau(shape, dict(zip(cells, vals)))


def brute_force_ssyt(shape, max_entry):
    return [t for t in all_fillings(shape, max_entry) if is_ssyt(t)]


SMALL_SHAPES = [
    Partition((1,)),
    Partition((3,)),
    Partition((1, 1, 1)),
    Partition((2, 1)),
    Partition((2, 2)),
    Partition((3, 2)),
    Partition((2, 2, 1)),
]


class TestSSYTEnumeration:
    @pytest.mark.parametrize("shape", SMALL_SHAPES, ids=str)
    @pytest.mark.parametrize("max_entry", [1, 2, 3, 4])
    def test_matches_brute_force(self, shape, max_entry):
        got = sorted(ssyt_iter(shape, max_entry), key=lambda t: tableau_to_rows(t))
        want = sorted(brute_force_ssyt(shape, max_entry), key=lambda t: tableau_to_rows(t))
        assert got == want

    def test_skew_shape(self):
        shape = parse_shape("2,2/1")
        got = set(ssyt_iter(shape, 2))
        want = set(brute_force_ssyt(shape, 2))
        assert got == want and len(got) == 2

    def test_known_counts(self):
        # Numbers of semistandard tableaux with entries bounded by n equal
        # the Schur polynomial at (1, ..., 1); spot checks:
        assert len(list(ssyt_iter(Partition((2, 1)), 3))) == 8
        assert len(list(ssyt_iter(Partition((2, 2)), 3))) == 6
        assert len(list(ssyt_iter(Partition((1, 1, 1)), 3))) == 1
        assert len(list(ssyt_iter(Partition((3,)), 2))) == 4

    def test_rows_weak_columns_strict(self):
        for t in ssyt_iter(Partition((2, 2)), 3):
            assert t[(1, 1)] <= t[(1, 2)] and t[(2, 1)] <= t[(2, 2)]
            assert t[(1, 1)] < t[(2, 1)] and t[(1, 2)] < t[(2, 2)]


class TestDomainPredicates:
    def test_in_W_lambda(self):
        shape = Partition((2, 2))
        ok = constant_tableau(shape, 1.0).with_entries({(2, 2): 2.0})
        assert in_W_lambda(ok)  # only corner (2,2) needs > 1
        assert not in_W_lambda(constant_tableau(shape, 1.0))
        assert not in_W_lambda(ok.with_entries({(1, 1): 0.5}))

    def test_in_W_lambda_H_stricter(self):
        shape = Partition((3, 2))
        # Arm offsets are 2 and 0, so contents {2, 0} need > 1; the corners
        # (1,3) and (2,2) sit on those diagonals.
        t = constant_tableau(shape, 1.0).with_entries({(1, 3): 2.0, (2, 2): 2.0})
        assert in_W_lambda(t)
        assert not in_W_lambda_H(t)  # content-0 cell (1,1) still at 1
        t2 = t.with_entries({(1, 1): 1.5})
        assert in_W_lambda_H(t2)

    def test_H_predicate_rejects_skew(self):
        t = constant_tableau(parse_shape("2,2/1"), 2.0)
        with pytest.raises(UsageError):
            in_W_lambda_H(t)

    def test_in_I_theta(self):
        shape = Partition((2, 1))
        good = constant_tableau(shape, 1).with_entries({(1, 2): 2, (2, 1): 2})
        assert in_I_theta(good)
        assert not in_I_theta(constant_tableau(shape, 1))  # corners at 1
        assert not in_I_theta(good.with_entries({(1, 1): 0}))

    def test_in_I_theta_reads_real_parts(self):
        shape = Partition((2, 1))
        s, _ = expand_content(ContentSpec({-1: 2, 0: 1, 1: 2}, {}), shape)
        assert in_I_theta(s)
        assert not in_I_theta(s.with_entries({(2, 1): 1 + 5j}))


class TestContentSpec:
    def test_missing_exponent_raises(self):
        spec = ContentSpec({0: 2}, {})
        with pytest.raises(UsageError):
            spec.z_at(1)

    def test_missing_shift_defaults_to_zero(self):
        assert ContentSpec({0: 2}, {}).y_at(5) == 0.0

    def test_negative_shift_rejected(self):
        with pytest.raises(DomainError):
            ContentSpec({0: 2}, {0: -0.1})

    def test_expand_content_is_diagonal_constant(self):
        spec = ContentSpec({-1: 2, 0: 3, 1: 2.5}, {0: 0.3})
        s, x = expand_content(spec, Partition((2, 2)))
        assert is_diagonal_constant(s) and is_diagonal_constant(x)
        assert s[(1, 2)] == 2.5 and s[(2, 1)] == 2 and s[(1, 1)] == s[(2, 2)] == 3
        assert x[(1, 1)] == 0.3 and x[(1, 2)] == 0.0

    def test_contents_of(self):
        assert contents_of(Partition((3, 2))) == (-1, 0, 1, 2)

    def test_json_round_trip(self):
        spec = content_spec_from_json('{"z": {"-1": 2, "0": 3}, "y": {"0": 0.3}}')
        assert spec.z_at(-1) == 2 and spec.z_at(0) == 3
        assert spec.y_at(0) == 0.3
        with pytest.raises(UsageError):
            content_spec_from_json('{"y": {}}')


class TestDiagonalOrbits:
    def test_orbit_count(self):
        # (2,2) has one two-cell diagonal: 2! joint permutations.
        assert len(list(diagonal_orbit(Partition((2, 2))))) == 2
        # (3,2): only diagonal 0 has two cells -> 2 permutations.
        assert len(list(diagonal_orbit(Partition((3, 2))))) == 2
        # (3,3): diagonals 0 and 1 have two cells each -> 4.
        assert len(list(diagonal_orbit(Partition((3, 3))))) == 4

    def test_apply_orbit_permutes_within_diagonals(self):
        shape = Partition((2, 2))
        t = Tableau(shape, {(1, 1): "a", (1, 2): "b", (2, 1): "c", (2, 2): "d"})
        images = {tuple(sorted(apply_orbit(o, t).entries.items()))
                  for o in diagonal_orbit(shape)}
        assert len(images) == 2
        for img in images:
            d = dict(img)
            assert {d[(1, 1)], d[(2, 2)]} == {"a", "d"}  # diagonal 0 shuffled
            assert d[(1, 2)] == "b" and d[(2, 1)] == "c"  # singletons fixed

    def test_diagonal_sets(self):
        sets = diagonal_sets(Partition((2, 2)))
        assert sets[0] == ((1, 1), (2, 2))
        assert sets[1] == ((1, 2),) and sets[-1] == ((2, 1),)


class TestSigmaTableaux:
    """The signed sum over sigma-tableaux telescopes to the tableau sum.

    This is exact filling-for-filling, so it holds for every truncation;
    we verify it exhaustively with rational arithmetic.
    """

    def exponents(self, shape):
        return {c: 2 + ((c[0] + c[1]) % 2) for c in shape.cells()}

    def weight(self, t, s):
        r = Fraction(1)
        for c, m in t.entries.items():
            r /= Fraction(m) ** s[c]
        return r

    @pytest.mark.parametrize("shape,max_entry", [
        (Partition((2, 2)), 4),
        (Partition((2, 2)), 5),
        (Partition((3, 2)), 3),
    ], ids=["22-4", "22-5", "32-3"])
    def test_signed_cancellation_exhaustive(self, shape, max_entry):
        s = self.exponents(shape)
        depth = shape.frobenius().depth
        signed = Fraction(0)
        for sigma in itertools.permutations(range(1, depth + 1)):
            sgn = perm_sign(sigma)
            for t in all_fillings(shape, max_entry):
                if is_sigma_tableau(t, sigma):
                    signed += sgn * self.weight(t, s)
        direct = sum(
            (self.weight(t, s) for t in ssyt_iter(shape, max_entry)), Fraction(0)
        )
        assert signed == direct

    def test_ssyt_are_identity_tableaux(self):
        shape = Partition((2, 2))
        ident = (1, 2)
        for t in ssyt_iter(shape, 4):
            assert is_sigma_tableau(t, ident)

    def test_nonidentity_disjoint_from_ssyt(self):
        shape = Partition((2, 2))
        for t in all_fillings(shape, 4):
            if is_sigma_tableau(t, (2, 1)):
                assert not is_ssyt(t)

    def test_decomposition_yields_ssyt_hooks(self):
        shape = Partition((2, 2))
        fr = shape.frobenius()
        for sigma in itertools.permutations(range(1, fr.depth + 1)):
            for t in all_fillings(shape, 4):
                if not is_sigma_tableau(t, sigma):
                    continue
                hooks = decompose_sigma_tableau(t, sigma)
                assert len(hooks) == fr.depth
                for k, h in enumerate(hooks):
                    assert h.shape == hook(fr.p[k], fr.q[sigma[k] - 1])
                    assert is_ssyt(h)

    def test_decomposition_rejects_wrong_sigma(self):
        t = next(ssyt_iter(Partition((2, 2)), 2))
        with pytest.raises(UsageError):
            decompose_sigma_tableau(t, (2, 1))


def perm_sign(sigma):
    sgn = 1
    for i in range(len(sigma)):
        for j in range(i + 1, len(sigma)):
            if sigma[i] > sigma[j]:
                sgn = -sgn
    return sgn


class TestRowsFormat:
    def test_round_trip_straight(self):
        t = next(ssyt_iter(Partition((3, 2)), 3))
        assert tableau_from_rows(tableau_to_rows(t)) == t

    def test_round_trip_skew(self):
        shape = parse_shape("3,3/1")
        t = constant_tableau(shape, 7)
        rows = tableau_to_rows(t)
        assert rows[0][0] is None  # inner cells render as missing
        assert tableau_from_rows(rows) == t

    def test_round_trip_skew_with_an_empty_row(self):
        t = constant_tableau(parse_shape("2,2/2"), 7)
        assert tableau_to_rows(t)[0] == [None, None]
        assert tableau_from_rows(tableau_to_rows(t)) == t

    def test_straight_rows_give_a_partition(self):
        assert tableau_from_rows([[1, 2], [3]]).shape == Partition((2, 1))

    def test_rows_that_form_no_skew_shape(self):
        with pytest.raises(ValueError):
            tableau_from_rows([[1, None, 2]])


@settings(max_examples=40, deadline=None)
@given(p=partitions(max_size=8, max_rows=3, max_cols=3), n=st.integers(1, 3))
def test_ssyt_iter_always_valid_and_complete(p, n):
    got = set(ssyt_iter(p, n))
    assert all(is_ssyt(t) for t in got)
    assert got == set(brute_force_ssyt(p, n))
