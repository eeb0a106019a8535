"""Lattice-path model: signed patterns, the cancellation involution, and
agreement with the tableau truncation (all in exact rational arithmetic).
The references live in ``oracles``, which shares no code with ``lgv``."""

from fractions import Fraction

import pytest

import oracles
from shzeta.errors import UsageError
from shzeta import lgv
from shzeta.lgv import (
    CancellationReport,
    enumerate_patterns,
    pattern_weight,
    patterns_by_type,
    render_pattern,
    rim_for_type,
    shared_vertices,
    tail_swap,
    truncated_schur_via_paths,
    verify_cancellation,
)
from shzeta.schurzeta import chain_truncated_exact, schur_truncated_exact
from shzeta.shapes import (
    Partition,
    e_rim_decompositions,
    h_rim_decompositions,
    perm_sign,
)
from shzeta.tableaux import Tableau, constant_tableau, exact_tables


def diag_tableaux(shape, z_by_content, y_by_content):
    s = Tableau(shape, {c: z_by_content[c[1] - c[0]] for c in shape.cells()})
    x = Tableau(shape, {c: y_by_content[c[1] - c[0]] for c in shape.cells()})
    return s, x


def diag_data(shape):
    """Exponents 1-3 and shifts k/5, constant along the diagonals."""
    contents = {j - i for i, j in shape.cells()}
    return diag_tableaux(
        shape,
        {k: 1 + k % 3 for k in contents},
        {k: Fraction(k % 4 + 1, 5) for k in contents},
    )


def reference_report(shape, n, s, x, kind):
    return CancellationReport(shape, n, kind, *oracles.cancellation_report(shape, n, s, x, kind))


def reference_patterns(shape, n, kind):
    """The reference's patterns as (type, paths, masks)."""
    top = oracles.grid(shape, n, kind)[2]
    return [(sigma, chosen, oracles.masks(chosen, top)) for sigma, chosen in oracles.patterns(shape, n, kind)]


def intersecting(shape, n, kind):
    return [p for p in reference_patterns(shape, n, kind) if oracles.crossing(p[1])]


def listed_weights(shape, n, s, x, kind):
    """Every pattern's weight as ``lgv`` lists it, by (type, masks)."""
    tables, den = exact_tables(shape, s, x, n)
    return {
        (sigma, masks): Fraction(w, den)
        for sigma, choices in lgv._grid(shape, n, kind)[0]
        for masks, _, w in lgv._product(pattern_weight(shape, kind, sigma, choices, tables), free=False)
    }


def small_partitions(cells):
    """Every partition of at most ``cells`` cells, as tuples of parts."""
    def of(k, largest):
        if k == 0:
            yield ()
        for part in range(min(k, largest), 0, -1):
            for rest in of(k - part, part):
                yield (part, *rest)

    return [parts for k in range(1, cells + 1) for parts in of(k, k)]


class TestPatternCounts:
    @pytest.mark.parametrize("parts,n,kind,total,free", [
        ((2, 1), 2, "H", 10, 2),
        ((2, 1), 3, "H", 28, 8),
        ((2, 2), 3, "H", 66, 6),
        ((2, 1), 2, "E", 2, 2),
        ((2, 2), 3, "E", 12, 6),
        ((3, 1), 3, "H", 45, 15),
    ])
    def test_counts(self, parts, n, kind, total, free):
        shape = Partition(parts)
        assert sum(patterns_by_type(shape, n, kind).values()) == total
        assert len(list(enumerate_patterns(shape, n, kind))) == total
        assert len(list(enumerate_patterns(shape, n, kind, free=True))) == free

    def test_bad_kind(self):
        with pytest.raises(UsageError):
            patterns_by_type(Partition((2, 1)), 2, "X")


class TestPathTableauAgreement:
    @pytest.mark.parametrize("parts", [(2, 1), (2, 2), (3, 1)])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_nonintersecting_sum_is_the_tableau_truncation(self, parts, n):
        shape = Partition(parts)
        s = constant_tableau(shape, 2)
        x = constant_tableau(shape, Fraction(1, 2))
        assert truncated_schur_via_paths(shape, n, s, x, "H") == (
            schur_truncated_exact(shape, s, x, n)
        )

    def test_with_content_dependent_data(self):
        shape = Partition((2, 2))
        s, x = diag_tableaux(
            shape, {-1: 2, 0: 3, 1: 2}, {-1: 0, 0: Fraction(1, 2), 1: 0}
        )
        for n in (2, 3):
            assert truncated_schur_via_paths(shape, n, s, x, "H") == (
                schur_truncated_exact(shape, s, x, n)
            )


class TestCancellation:
    @pytest.mark.parametrize("parts,kind", [
        ((2, 1), "H"),
        ((2, 2), "H"),
        ((2, 2), "E"),
        ((3, 1), "H"),
    ])
    def test_signed_sum_collapses(self, parts, kind):
        shape = Partition(parts)
        s = constant_tableau(shape, 2)
        x = constant_tableau(shape, Fraction(1, 2))
        rep = verify_cancellation(shape, 3, s, x, kind)
        assert rep.passes
        assert rep.intersecting_signed_total == 0
        assert rep.signed_total == rep.nonintersecting_total

    def test_weight_check_catches_weights_that_depend_on_the_type(self, monkeypatch):
        # Mates differ in type, so scaling path 1's weights by sigma(1)
        # breaks only the weight check: the swaps and signs are those of
        # the real involution.
        real = lgv.pattern_weight

        def by_type(shape, kind, sigma, choices, tables):
            lists = real(shape, kind, sigma, choices, tables)
            return [[(m, w * sigma[0]) for m, w in lists[0]], *lists[1:]]

        monkeypatch.setattr(lgv, "pattern_weight", by_type)
        shape = Partition((2, 2))
        rep = verify_cancellation(shape, 3, *diag_data(shape), "H")
        assert not rep.involution_verified and not rep.passes

    def test_requires_diagonal_constant_data(self):
        shape = Partition((2, 2))
        s = constant_tableau(shape, 2).with_entries({(1, 1): 3})
        x = constant_tableau(shape, 0)
        with pytest.raises(UsageError):
            verify_cancellation(shape, 2, s, x, "H")

    def test_cancellation_actually_fails_off_diagonal(self):
        # With s_11 != s_22 the involution no longer preserves weights:
        # the signed total over all patterns differs from the tableau sum.
        shape = Partition((2, 2))
        s = Tableau(shape, {(1, 1): 3, (1, 2): 2, (2, 1): 2, (2, 2): 2})
        x = constant_tableau(shape, 0)
        _, _, signed, free, _, involution = oracles.cancellation_report(shape, 3, s, x, "H")
        direct = schur_truncated_exact(shape, s, x, 3)
        assert free == direct != signed and not involution


class TestEnumeration:
    @pytest.mark.parametrize("parts,n,kind", [
        ((2, 1), 3, "H"),
        ((2, 2, 2), 4, "H"),
        ((3, 2, 1), 4, "H"),
        ((3, 2), 5, "E"),
        ((3, 2, 1), 5, "E"),
    ])
    def test_pruned_enumeration_is_the_filter(self, parts, n, kind):
        shape = Partition(parts)
        filtered = [
            (sigma, masks) for sigma, chosen, masks in reference_patterns(shape, n, kind)
            if not oracles.crossing(chosen)
        ]
        assert filtered
        assert list(enumerate_patterns(shape, n, kind, free=True)) == filtered

    def test_cancellation_draws_patterns_through_the_module(self, monkeypatch):
        # A tracer counts patterns by replacing lgv._product, the one place
        # the cancellation draws its mask tuples from.
        drawn = []
        real = lgv._product

        def counting(*args, **kwargs):
            for choice in real(*args, **kwargs):
                drawn.append(choice)
                yield choice

        monkeypatch.setattr(lgv, "_product", counting)
        shape = Partition((3, 2))
        rep = verify_cancellation(shape, 4, *diag_data(shape), "E")
        assert rep.passes
        assert len(drawn) == rep.total_patterns > rep.nonintersecting

    def test_huge_exponent_is_refused_before_any_power(self):
        shape = Partition((2, 1))
        s, x = diag_tableaux(shape, {-1: 2, 0: 10**7, 1: 2}, {-1: 0, 0: 0, 1: 0})
        with pytest.raises(UsageError, match="bits"):
            verify_cancellation(shape, 3, s, x, "H")
        with pytest.raises(UsageError, match="bits"):
            truncated_schur_via_paths(shape, 3, s, x, "H")

    def test_lcm_denominators_count_toward_the_bit_cap(self):
        # One base's power of 12 has 4 bits per unit of exponent, so 8000
        # stays under the cap; the lcm of the bases 1..12 (27720) has 15.
        shape = Partition((2, 1))
        s, x = diag_tableaux(shape, {-1: 2, 0: 8000, 1: 2}, {-1: 0, 0: 0, 1: 0})
        with pytest.raises(UsageError, match="128064 bits"):
            truncated_schur_via_paths(shape, 12, s, x, "H")
        with pytest.raises(UsageError, match="bits"):
            verify_cancellation(shape, 12, s, x, "H")


class TestMaskRoute:
    @pytest.mark.parametrize("kind", ["H", "E"])
    @pytest.mark.parametrize("parts", small_partitions(5))
    def test_oracles_match_the_pattern_level_reference(self, parts, kind):
        # Every grid of at most 5 cells at heights 1-4, diagonal-constant
        # data: the mask route's report, field for field, and its path
        # truncation, against the reference built pattern by pattern.
        shape = Partition(parts)
        s, x = diag_data(shape)
        for n in range(1, 5):
            ref = reference_report(shape, n, s, x, kind)
            assert verify_cancellation(shape, n, s, x, kind) == ref
            assert truncated_schur_via_paths(shape, n, s, x, kind) == ref.nonintersecting_total

    def test_reference_catches_a_walk_read_backwards(self, monkeypatch):
        # Reading each ribbon walk backwards keeps every count, swap and
        # sign; only a reference that weighs paths on its own sees it.
        real = lgv._path_weight
        monkeypatch.setattr(lgv, "_path_weight", lambda i, rows, walk, tables: real(i, rows, walk[::-1], tables))
        shape = Partition((3, 2))
        s, x = diag_data(shape)
        for kind in ("H", "E"):
            ref = reference_report(shape, 3, s, x, kind)
            rep = verify_cancellation(shape, 3, s, x, kind)
            assert (rep.total_patterns, rep.nonintersecting) == (ref.total_patterns, ref.nonintersecting)
            assert rep != ref
            assert truncated_schur_via_paths(shape, 3, s, x, kind) != ref.nonintersecting_total

    @pytest.mark.parametrize("parts,n,kind", [((2, 2, 2), 4, "H"), ((3, 2, 1), 5, "E")])
    def test_oracles_build_no_pattern_and_walk_each_path_once(self, parts, n, kind, monkeypatch):
        # Counts, not timings: the oracles draw mask tuples, not patterns
        # from ``enumerate_patterns``, and each (start, end) pair's paths
        # are walked once, when the grid is built.
        walked = []
        paths_between = lgv._paths_between
        monkeypatch.setattr(lgv, "_paths_between", lambda a, b, kind: walked.append((a, b)) or paths_between(a, b, kind))
        monkeypatch.setattr(lgv, "enumerate_patterns", None)
        lgv._grid.cache_clear()
        shape = Partition(parts)
        s, x = diag_data(shape)
        for _ in range(2):
            assert verify_cancellation(shape, n, s, x, kind).passes
            assert truncated_schur_via_paths(shape, n, s, x, kind) == schur_truncated_exact(shape, s, x, n)
        t = len(oracles.grid(shape, n, kind)[0])
        assert len(walked) == len(set(walked)) == t * t

    @pytest.mark.parametrize("parts,n,kind", [((2, 2, 2), 3, "H"), ((3, 2, 1), 4, "H"), ((3, 2), 5, "E")])
    def test_truncation_weighs_only_types_with_free_patterns(self, parts, n, kind, monkeypatch):
        weighed = []
        real = lgv.pattern_weight
        monkeypatch.setattr(lgv, "pattern_weight", lambda *args: weighed.append(args[2]) or real(*args))
        shape = Partition(parts)
        s, x = diag_data(shape)
        assert truncated_schur_via_paths(shape, n, s, x, kind) == schur_truncated_exact(shape, s, x, n)
        free = [sigma for sigma, chosen, _ in reference_patterns(shape, n, kind) if not oracles.crossing(chosen)]
        assert weighed == list(dict.fromkeys(free))
        assert len(weighed) < len(lgv._grid(shape, n, kind)[0])


class TestTailSwap:
    @pytest.mark.parametrize("parts,kind", [((2, 1), "H"), ((2, 2), "E")])
    def test_involution_without_fixed_points(self, parts, kind):
        shape = Partition(parts)
        s = constant_tableau(shape, 2)
        x = constant_tableau(shape, Fraction(1, 3))
        weight = {masks: w for (_, masks), w in listed_weights(shape, 3, s, x, kind).items()}
        _, end_of = lgv._grid(shape, 3, kind)
        for sigma, _, p in intersecting(shape, 3, kind):
            q = tail_swap(p)
            assert tail_swap(q) == p
            assert q != p
            assert perm_sign(lgv._type_of(q, end_of)) == -perm_sign(sigma)
            assert weight[q] == weight[p]

    @pytest.mark.parametrize("parts,n,kind", [
        ((3, 2, 1), 3, "H"),
        ((2, 2, 2), 3, "H"),
        ((3, 2), 4, "E"),
    ])
    def test_matches_its_definition(self, parts, n, kind):
        # Involution and sign are not enough: swapping at the largest
        # shared vertex has both.  (Its last two owners are its first two
        # here; ``test_swaps_the_first_two_owners`` tells them apart.)
        shape = Partition(parts)
        _, end_of = lgv._grid(shape, n, kind)
        top = oracles.grid(shape, n, kind)[2]
        pats = intersecting(shape, n, kind)
        assert pats
        for sigma, chosen, masks in pats:
            mate_type, mate = oracles.tail_swap_oracle(sigma, chosen)
            assert tail_swap(masks) == oracles.masks(mate, top)
            assert lgv._type_of(tail_swap(masks), end_of) == mate_type

    def test_swaps_the_first_two_owners(self):
        # Three paths through the least shared point: the first two trade
        # tails.  No grid the other tests walk has such a point.
        chosen = (((1, 2), (2, 2), (3, 2)), ((2, 1), (2, 2), (2, 3)), ((2, 2), (3, 3)))
        _, mate = oracles.tail_swap_oracle((1, 2, 3), chosen)
        assert mate[2] == chosen[2] and mate != chosen
        assert tail_swap(oracles.masks(chosen, 3)) == oracles.masks(mate, 3)

    def test_swaps_once_per_intersecting_pattern(self, monkeypatch):
        # Each pair is checked from one member: two swaps per pair.
        calls = []
        real = lgv.tail_swap

        def counting(masks):
            calls.append(masks)
            return real(masks)

        monkeypatch.setattr(lgv, "tail_swap", counting)
        shape = Partition((2, 2, 2))
        rep = verify_cancellation(shape, 3, *diag_data(shape), "H")
        assert rep.passes
        assert len(calls) == rep.total_patterns - rep.nonintersecting

    def test_mutant_keeping_the_type_fails_the_sign_check(self, monkeypatch):
        # The real mates, with each mate's type read as its partner's: the
        # swaps, the grid lookups, the weights and the pairing are those of
        # the real involution, so only the sign check can catch it.
        real_swap, real_type_of = lgv.tail_swap, lgv._type_of

        def same_type(masks, end_of):
            real_type_of(masks, end_of)
            return real_type_of(real_swap(masks), end_of)

        monkeypatch.setattr(lgv, "_type_of", same_type)
        shape = Partition((2, 2))
        rep = verify_cancellation(shape, 3, *diag_data(shape), "H")
        assert not rep.involution_verified and not rep.passes
        # The totals are right: only the involution check catches it.
        assert rep.signed_total == rep.nonintersecting_total

    def test_mutant_swapping_heads_fails(self, monkeypatch):
        # Swapping heads instead of tails is an involution whose new paths
        # are paths of the grid, but each keeps its end, so the mate's type
        # (read from the ends) is the pattern's own; and path i of the mate
        # leaves start j, so no mate is enumerated.
        real = lgv.tail_swap

        def heads(masks):
            mate = real(masks)
            i, j = [k for k, (a, b) in enumerate(zip(masks, mate)) if a != b]
            swapped = list(masks)
            swapped[i], swapped[j] = mate[j], mate[i]
            return tuple(swapped)

        shape = Partition((2, 2))
        _, end_of = lgv._grid(shape, 3, "H")
        for sigma, _, masks in intersecting(shape, 3, "H"):
            mate = heads(masks)
            assert heads(mate) == masks != mate
            assert lgv._type_of(mate, end_of) == sigma
        monkeypatch.setattr(lgv, "tail_swap", heads)
        rep = verify_cancellation(shape, 3, *diag_data(shape), "H")
        assert not rep.involution_verified and not rep.passes
        assert rep.signed_total == rep.nonintersecting_total

    def test_mutant_whose_mates_are_not_patterns_fails(self, monkeypatch):
        # Swapping whole paths is an involution that reverses the type's
        # sign, but path i of the mate leaves start j: no pattern does.
        real = lgv.tail_swap

        def whole_paths(masks):
            mate = real(masks)
            i, j = [k for k, (a, b) in enumerate(zip(masks, mate)) if a != b]
            swapped = list(masks)
            swapped[i], swapped[j] = masks[j], masks[i]
            return tuple(swapped)

        shape = Partition((2, 2))
        _, end_of = lgv._grid(shape, 3, "H")
        # Its masks are paths of the grid and it passes the swap-twice and
        # sign checks, so only the check that every mate is enumerated can
        # catch it.
        for sigma, _, masks in intersecting(shape, 3, "H"):
            mate = whole_paths(masks)
            assert whole_paths(mate) == masks
            assert perm_sign(lgv._type_of(mate, end_of)) == -perm_sign(sigma)
        monkeypatch.setattr(lgv, "tail_swap", whole_paths)
        rep = verify_cancellation(shape, 3, *diag_data(shape), "H")
        assert not rep.involution_verified and not rep.passes

    def test_rejects_nonintersecting(self):
        shape = Partition((2, 1))
        _, free = next(enumerate_patterns(shape, 2, "H", free=True))
        with pytest.raises(UsageError):
            tail_swap(free)

    @pytest.mark.parametrize("kind", ["H", "E"])
    @pytest.mark.parametrize("parts", small_partitions(5))
    def test_masks_match_the_vertex_sets(self, parts, kind):
        # Every grid of at most 5 cells at heights 1-4, against the
        # reference's point sets: enumeration order, intersection, tail
        # swap and pruning.
        shape = Partition(parts)
        for n in range(1, 5):
            top = oracles.grid(shape, n, kind)[2]
            ref = reference_patterns(shape, n, kind)
            assert list(enumerate_patterns(shape, n, kind)) == [(sigma, masks) for sigma, _, masks in ref]
            free = []
            for sigma, chosen, masks in ref:
                crossing = oracles.crossing(chosen)
                assert bool(shared_vertices(masks)) is crossing
                if not crossing:
                    free.append((sigma, masks))
                    continue
                assert tail_swap(masks) == oracles.masks(oracles.tail_swap_oracle(sigma, chosen)[1], top)
            assert list(enumerate_patterns(shape, n, kind, free=True)) == free

    def test_mate_off_the_grid_is_a_usage_error(self):
        # Path 1 runs past every end of the 2,1 grid of height 2; the swap
        # gives its tail to path 2, and no path of the grid has that tail.
        shape = Partition((2, 1))
        off = ((2, 1), (3, 1), (4, 1), (5, 1), (6, 1), (6, 2))
        masks = oracles.masks((off, ((1, 1), (2, 1), (2, 2))), 2)
        assert shared_vertices(masks)
        _, end_of = lgv._grid(shape, 2, "H")
        with pytest.raises(UsageError, match="swapped path 2 is not a path of the grid"):
            lgv._type_of(tail_swap(masks), end_of)

    @pytest.mark.parametrize("parts,n,kind", [((3, 2, 1), 3, "H"), ((3, 2), 4, "E")])
    def test_joined_paths_carry_their_walked_points(self, parts, n, kind):
        # Each joined mask is the mask of a path the reference walks from
        # the same start to some end of the grid: the next swap and the
        # grid lookup read it as a path.
        shape = Partition(parts)
        starts, ends, top = oracles.grid(shape, n, kind)
        walked = [
            {oracles.masks([p], top)[0] for b in ends for p in oracles.paths(a, b, kind)} for a in starts
        ]
        for _, _, masks in intersecting(shape, n, kind):
            for start_paths, joined in zip(walked, tail_swap(masks), strict=True):
                assert joined in start_paths


class TestWeights:
    @pytest.mark.parametrize("parts,n,kind", [
        ((2, 2), 3, "H"),
        ((3, 2), 3, "E"),
        ((3, 2, 1), 3, "H"),
    ])
    def test_pattern_weight_matches_edge_by_edge(self, parts, n, kind):
        # Cell-wise (not diagonal-constant) exponents 1-3 and shifts, on
        # every pattern of every type.  With such data a path's weight
        # depends on its ribbon walk, so the (mask, weight) lists of one
        # call (``pattern_weight``, once per type) must tell the walks apart.
        shape = Partition(parts)
        cells = shape.cells()
        s = Tableau(shape, {(i, j): 1 + (i + 2 * j) % 3 for i, j in cells})
        x = Tableau(shape, {(i, j): Fraction((3 * i + j) % 5, 7) for i, j in cells})
        listed = listed_weights(shape, n, s, x, kind)
        top = oracles.grid(shape, n, kind)[2]
        free = Fraction(0)
        types = set()
        for (sigma, chosen), w in oracles.weights(shape, n, s, x, kind).items():
            assert listed.pop((sigma, oracles.masks(chosen, top))) == w
            types.add(sigma)
            if not oracles.crossing(chosen):
                free += w
        assert not listed and len(types) > 1
        assert truncated_schur_via_paths(shape, n, s, x, kind) == free

    @pytest.mark.parametrize("parts,n,kind", [((2, 2), 3, "H"), ((3, 2), 3, "E")])
    def test_exponents_minus_one_to_three(self, parts, n, kind):
        # Exponent 0 gives the numerator 1 and -1 puts the base on top.
        shape = Partition(parts)
        cells = shape.cells()
        s = Tableau(shape, {(i, j): (i + 2 * j) % 5 - 1 for i, j in cells})
        x = Tableau(shape, {(i, j): Fraction(3 * i + j, 4) for i, j in cells})
        assert {-1, 0} <= set(s.entries.values())
        top = oracles.grid(shape, n, kind)[2]
        ref = {
            (sigma, oracles.masks(chosen, top)): w
            for (sigma, chosen), w in oracles.weights(shape, n, s, x, kind).items()
        }
        assert listed_weights(shape, n, s, x, kind) == ref

    def test_one_rim_lookup_per_type(self, monkeypatch):
        looked_up = []

        def counting(shape, sigma, kind):
            looked_up.append(sigma)
            return rim_for_type(shape, sigma, kind)

        monkeypatch.setattr(lgv, "rim_for_type", counting)
        shape = Partition((3, 2, 1))
        rep = verify_cancellation(shape, 3, *diag_data(shape), "H")
        assert rep.passes
        assert len(looked_up) == len(set(looked_up)) > 1


class TestPinnedValues:
    # Recorded before path weights were shared within a call; exact.
    @pytest.mark.parametrize("parts,n,kind,total,free,value", [
        ((2, 2, 2), 3, "H", 901, 1, "244140625/19721045526336"),
        ((3, 2, 1), 4, "E", 128, 64,
         "84256985143157708520488037109375/90965412146300443191554793700589568"),
    ])
    def test_cancellation_report(self, parts, n, kind, total, free, value):
        shape = Partition(parts)
        rep = verify_cancellation(shape, n, *diag_data(shape), kind)
        assert (rep.total_patterns, rep.nonintersecting) == (total, free)
        assert rep.signed_total == rep.nonintersecting_total == Fraction(value)
        assert rep.passes

    # Recorded before the cancellation checked each pair once with integer
    # weights: every field of the report, exactly.
    @pytest.mark.parametrize("parts,n,kind,fields", [
        ((2, 2, 2), 4, "H", (3910, 10, "1320203857421875/40019049523559006208")),
        ((3, 2, 1), 4, "H", (1984, 64,
         "84256985143157708520488037109375/90965412146300443191554793700589568")),
        ((3, 2, 1), 5, "E", (730, 280,
         "464542206210801711382077046181156005859375/"
         "307825918425105529105572583690585260995641344")),
    ])
    def test_cancellation_report_fields(self, parts, n, kind, fields):
        shape = Partition(parts)
        total, free, value = fields
        rep = verify_cancellation(shape, n, *diag_data(shape), kind)
        assert rep == CancellationReport(
            shape, n, kind, total, free, Fraction(value), Fraction(value),
            Fraction(0), True,
        )

    @pytest.mark.parametrize("parts,n,value", [
        ((3, 2, 1), 4,
         "84256985143157708520488037109375/90965412146300443191554793700589568"),
        ((2, 2, 2), 4, "1320203857421875/40019049523559006208"),
    ])
    def test_exact_truncations(self, parts, n, value):
        shape = Partition(parts)
        s, x = diag_data(shape)
        assert (
            schur_truncated_exact(shape, s, x, n),
            chain_truncated_exact(shape, s, x, n),
            truncated_schur_via_paths(shape, n, s, x, "H"),
        ) == (Fraction(value),) * 3


class TestRimTypes:
    def test_h_types_distinct_for_4332(self):
        decomps = h_rim_decompositions(Partition((4, 3, 3, 2)))
        types = [d.type for d in decomps]
        assert len(types) == len(set(types)) == 18

    def test_round_trip_through_type(self):
        shape = Partition((3, 2))
        for kind, decomps in (
            ("H", h_rim_decompositions(shape)),
            ("E", e_rim_decompositions(shape)),
        ):
            for d in decomps:
                assert rim_for_type(shape, d.type, kind) == d

    def test_unknown_type_is_a_usage_error(self):
        # 3,2 has conjugate 2,2,1: sigma(1) = 3 would give ribbon 1 of
        # 1 - 3 + 1 < 0 cells.
        with pytest.raises(UsageError):
            rim_for_type(Partition((3, 2)), (3, 2, 1), "E")

    def test_ribbon_walk_visits_every_cell_once(self):
        shape = Partition((3, 2))
        for d in h_rim_decompositions(shape) + e_rim_decompositions(shape):
            cells = [c for walk in d.walks for c in walk]
            assert sorted(cells) == sorted(shape.cells())


class TestRendering:
    def test_deterministic_and_indexed(self):
        shape = Partition((2, 1))
        pats = list(enumerate_patterns(shape, 3, "H"))
        _, masks = pats[0]
        out = render_pattern(masks, 3)
        assert out == render_pattern(masks, 3)
        # Every path index appears in the drawing.
        for i in range(1, len(masks) + 1):
            assert str(i) in out

    def test_drawn_points_are_the_paths(self):
        # Rows top down, columns from the least x; a shared point is "*".
        # Both drawings were recorded from the point-walking renderer.
        pats = list(enumerate_patterns(Partition((2, 1)), 3, "H"))
        (_, first), (_, last) = pats[0], pats[-1]
        assert render_pattern(first, 3) == " 3 | . 2 . 1\n 2 | . 2 . 1\n 1 | 2 * 1 1"
        assert render_pattern(last, 3) == " 3 | 2 * 2 2\n 2 | 2 1 . .\n 1 | 2 1 . ."
        assert render_pattern((), 2) == ""
