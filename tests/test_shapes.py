"""Partitions, Frobenius coordinates, reflections, and rim decompositions."""

import pytest
from hypothesis import given, settings

from shzeta.errors import UsageError
from shzeta.shapes import (
    FrobeniusCoords,
    Partition,
    SkewShape,
    content,
    e_rim_decompositions,
    h_rim_decompositions,
    hash_transpose,
    hook,
    is_ribbon,
    parse_frobenius,
    parse_partition,
    parse_shape,
)

from conftest import partitions


class TestPartitionBasics:
    def test_cells_and_membership(self):
        p = Partition((3, 1))
        assert p.cells() == ((1, 1), (1, 2), (1, 3), (2, 1))
        assert (2, 1) in p and (2, 2) not in p
        assert p.size == 4 and p.rows == 2
        assert p.part(5) == 0  # rows past the end are empty

    def test_conjugate_known(self):
        assert Partition((4, 3, 3, 2)).conjugate() == Partition((4, 4, 3, 1))

    def test_corners_known(self):
        assert sorted(Partition((4, 3, 3, 2)).corners()) == [(1, 4), (3, 3), (4, 2)]

    def test_frobenius_known(self):
        fr = Partition((4, 3, 3, 2)).frobenius()
        assert fr.p == (3, 1, 0) and fr.q == (3, 2, 0)

    def test_rejects_non_decreasing(self):
        with pytest.raises((ValueError, UsageError)):
            Partition((2, 3))

    def test_zero_parts_are_normalized_away(self):
        assert Partition((2, 0)) == Partition((2,))
        assert parse_partition("") == Partition(())

    def test_hook_shape(self):
        assert hook(2, 3) == Partition((3, 1, 1, 1))
        assert hook(0, 0) == Partition((1,))

    def test_content(self):
        assert content((1, 1)) == 0
        assert content((2, 5)) == 3
        assert content((4, 1)) == -3


@settings(max_examples=80, deadline=None)
@given(p=partitions(max_size=12))
def test_conjugate_is_an_involution(p):
    assert p.conjugate().conjugate() == p
    assert p.conjugate().size == p.size


@settings(max_examples=80, deadline=None)
@given(p=partitions(max_size=12))
def test_frobenius_round_trip(p):
    fr = p.frobenius()
    assert fr.to_partition() == p
    # Arm/leg lengths are strictly decreasing.
    assert all(a > b for a, b in zip(fr.p, fr.p[1:]))
    assert all(a > b for a, b in zip(fr.q, fr.q[1:]))


@settings(max_examples=80, deadline=None)
@given(p=partitions(max_size=12))
def test_conjugate_swaps_frobenius_coordinates(p):
    fr = p.frobenius()
    fc = p.conjugate().frobenius()
    assert fr.p == fc.q and fr.q == fc.p


class TestSkewShape:
    def test_cells_exclude_inner(self):
        s = parse_shape("3,3/1")
        assert set(s.cells()) == {(1, 2), (1, 3), (2, 1), (2, 2), (2, 3)}
        assert s.size == 5

    def test_inner_must_fit(self):
        with pytest.raises((ValueError, UsageError)):
            SkewShape(Partition((2,)), Partition((3,)))

    def test_ribbon_detection(self):
        assert parse_shape("3,3/2").is_ribbon()
        assert not is_ribbon(Partition((2, 2)))
        assert is_ribbon(Partition((3, 1)))  # hooks are ribbons
        assert not is_ribbon(parse_shape("3,3/1"))  # contains a 2x2 block


class TestHashTranspose:
    def test_known_shape(self):
        ht = hash_transpose(Partition((4, 3, 3, 2)))
        assert str(ht.shape) == "4,4,4,4/3,1"
        assert len(ht.shape.cells()) == 12

    def test_known_skew(self):
        ht = hash_transpose(parse_shape("3,3/1"))
        assert str(ht.shape) == "2,2,1"

    @settings(max_examples=60, deadline=None)
    @given(p=partitions(max_size=10))
    def test_cell_map_bijection_and_content_shift(self, p):
        ht = hash_transpose(p)
        assert sorted(ht.cell_map.keys()) == sorted(p.cells())
        assert sorted(ht.cell_map.values()) == sorted(ht.shape.cells())
        # The reflection shifts every content by the same constant.
        shifts = {content(v) - content(c) for c, v in ht.cell_map.items()}
        assert len(shifts) == 1

    @settings(max_examples=60, deadline=None)
    @given(p=partitions(max_size=10))
    def test_double_reflection_restores_cells(self, p):
        ht = hash_transpose(p)
        ht2 = hash_transpose(ht.shape)
        composed = {c: ht2.cell_map[v] for c, v in ht.cell_map.items()}
        cells = set(composed.values())
        # Double reflection is a rigid translation of the original diagram.
        di = {a[0] - b[0] for a, b in zip(sorted(cells), sorted(p.cells()))}
        dj = {a[1] - b[1] for a, b in zip(sorted(cells), sorted(p.cells()))}
        assert len(di) == 1 and len(dj) == 1


class TestRimDecompositions:
    def test_counts(self):
        p = Partition((4, 3, 3, 2))
        hs = h_rim_decompositions(p)
        es = e_rim_decompositions(p)
        assert len(hs) == 18 and len(es) == 12

    def test_small_counts(self):
        q = Partition((3, 2))
        assert len(h_rim_decompositions(q)) == 2
        assert len(e_rim_decompositions(q)) == 4

    def test_ribbons_partition_the_shape(self):
        p = Partition((3, 2))
        for d in h_rim_decompositions(p) + e_rim_decompositions(p):
            seen = [c for r in d.ribbons() for c in r]
            assert sorted(seen) == sorted(p.cells())

    def test_single_cell(self):
        p = Partition((1,))
        assert len(h_rim_decompositions(p)) == 1
        assert len(e_rim_decompositions(p)) == 1


def _all_partitions(n, largest=None):
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _all_partitions(n - first, first):
            yield (first,) + rest


def _partition_of(cells):
    rows = {}
    for i, _ in cells:
        rows[i] = rows.get(i, 0) + 1
    p = Partition(tuple(rows[i] for i in sorted(rows)))
    assert set(p.cells()) == set(cells), "cells do not form a partition"
    return p


@pytest.mark.parametrize("n", range(1, 9))
def test_rim_decomposition_properties(n):
    from shzeta.lgv import rim_for_type

    for parts in _all_partitions(n):
        shape = Partition(parts)
        for kind, decomps in (
            ("H", h_rim_decompositions(shape)),
            ("E", e_rim_decompositions(shape)),
        ):
            # Ribbon k of type sigma has ref_sigma(k) - sigma(k) + k cells and
            # is walked from its anchor, (k, 1) up/right for H and (1, k)
            # down/left for E.
            ref = shape if kind == "H" else shape.conjugate()
            steps = {(-1, 0), (0, 1)} if kind == "H" else {(1, 0), (0, -1)}
            types = [d.type for d in decomps]
            assert len(set(types)) == len(types) >= 1
            for d in decomps:
                assert rim_for_type(shape, d.type, kind) == d
                assert d.slots == len(d.type) == ref.rows
                assert sorted(d.type) == list(range(1, ref.rows + 1))
                done = set()
                for k, (r, walk) in enumerate(zip(d.type, d.walks), start=1):
                    assert len(walk) == ref.part(r) - r + k
                    if not walk:
                        continue
                    assert walk[0] == ((k, 1) if kind == "H" else (1, k))
                    assert {
                        (b[0] - a[0], b[1] - a[1]) for a, b in zip(walk, walk[1:])
                    } <= steps
                    assert done.isdisjoint(walk)
                    before = _partition_of(done)
                    done |= set(walk)
                    after = _partition_of(done)
                    assert SkewShape(after, before).is_ribbon()
                assert done == set(shape.cells())


class TestParsers:
    def test_partition(self):
        assert parse_partition("4,3,3,2") == Partition((4, 3, 3, 2))
        assert parse_partition(" 2 , 1 ") == Partition((2, 1))

    def test_shape(self):
        s = parse_shape("3,3/1")
        assert s.outer == Partition((3, 3)) and s.inner == Partition((1,))
        assert parse_shape("2,2").inner.size == 0

    def test_frobenius(self):
        fr = parse_frobenius("(3,1,0|3,2,0)")
        assert fr == FrobeniusCoords((3, 1, 0), (3, 2, 0))
        assert fr.to_partition() == Partition((4, 3, 3, 2))

    def test_bad_input(self):
        for bad in ("a,b", "1,2", "-1"):
            with pytest.raises((ValueError, UsageError)):
                parse_partition(bad)
