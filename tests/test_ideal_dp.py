"""The order-ideal DP behind ``schur_eval`` against the per-extension sum.

``chain_decomposition`` (one chain per linear extension, Stanley's
fundamental lemma of P-partitions) evaluated by ``eval_chain`` is the sum
the DP replaces; it stays as the oracle here.
"""

from fractions import Fraction

import pytest

from shzeta.ezzeta import EvalConfig, eval_chain
from shzeta.identities import jacobi_trudi_H
from shzeta.schurzeta import (
    SchurInstance,
    chain_decomposition,
    dp_states,
    ideal_layers,
    instance_from_spec,
    schur_eval,
    schur_truncated_exact,
)
from shzeta.shapes import Partition, content, parse_partition, parse_shape
from shzeta.tableaux import ContentSpec, Tableau, as_skew


def _partitions(n, largest=None):
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


DP_SHAPES = [
    ",".join(map(str, parts)) for n in range(1, 7) for parts in _partitions(n)
] + ["3,3/1", "4,3,2/2,1"]


def _chain_sum(inst, cfg):
    """Stanley's fundamental lemma: one chain per linear extension."""
    total, err = 0j, 0.0
    for cells, strict in chain_decomposition(inst.shape):
        a = eval_chain(
            [inst.exponents[c] for c in cells],
            [float(inst.shifts[c]) for c in cells],
            strict,
            cfg,
        )
        total += a.value
        err += a.err_bound
    return total, err


def _content_spec(shape, imag):
    ks = sorted({content(c) for c in as_skew(shape).cells()})
    z = {k: complex(2 + 0.25 * (k % 3), 0.5 * (-1) ** k if imag else 0) for k in ks}
    return ContentSpec(z, {k: 0.3 * (k % 2) for k in ks})


class TestIdealDP:
    @pytest.mark.parametrize("text", DP_SHAPES)
    def test_matches_the_chain_sum(self, text):
        shape = parse_shape(text)
        for imag in (False, True):
            inst = instance_from_spec(_content_spec(shape, imag), shape)
            for mode in ("bound_only", "integral_correction"):
                for cutoff in (50, 2000):
                    cfg = EvalConfig(cutoff=cutoff, tail_mode=mode)
                    new = schur_eval(inst, cfg)
                    old_value, old_err = _chain_sum(inst, cfg)
                    assert abs(new.value - old_value) <= old_err
                    assert new.err_bound <= old_err * (1 + 1e-12)
                    if not imag:
                        # Positive terms: summing the inner prefixes before
                        # the EM bound gains nothing, so the bounds agree.
                        assert new.err_bound == pytest.approx(old_err, rel=1e-12)

    def test_state_counts(self):
        # One state per (order ideal, last cell); the staircase 4,3,2,1 has
        # 768 linear extensions but 84 states.
        cells, layers = ideal_layers(as_skew(Partition((4, 3, 2, 1))))
        assert len(cells) == 10 and len(layers) == 10
        assert sum(map(len, layers)) == dp_states(Partition((4, 3, 2, 1))) == 84
        # The last layer has one state per corner.
        corners = sorted(cells[d] for d, _ in layers[-1])
        assert corners == [(1, 4), (2, 3), (3, 2), (4, 1)]

    def test_empty_shape_is_one(self):
        inst = instance_from_spec(ContentSpec({}, {}), parse_shape("2,1/2,1"))
        a = schur_eval(inst)
        assert a.value == 1 and a.err_bound == 0


def _boundary_instance(shape):
    """Re s = 1 on every inner cell, 2 or 3 on the corners."""
    corners = as_skew(shape).corners()
    cells = shape.cells()
    s = Tableau(shape, {c: 2 + c[0] % 2 if c in corners else 1 for c in cells})
    x = Tableau(shape, {c: Fraction(1, 2) if c[0] == c[1] else 0 for c in cells})
    return SchurInstance(shape, s, x)


class TestBoundaryCells:
    """Inner cells with Re s = 1 take the logarithmic fallback bound."""

    # (shape, largest entry of the exact truncation, bound at cutoff 2000
    # from one ``eval_chain`` per linear extension, frozen: see PINNED_BOUNDS)
    @pytest.mark.parametrize("parts,max_entry,pinned", [
        ((2, 1), 20, 0.17637781608632738),
        ((3, 2, 1), 8, 2.3538605511199475),
        ((4, 3, 2), 5, 68564.55013665854),
    ])
    def test_fallback_bound_and_value(self, parts, max_entry, pinned):
        shape = Partition(parts)
        inst = _boundary_instance(shape)
        s, x = inst.exponents, inst.shifts
        for cutoff in (max_entry, 2000):
            cfg = EvalConfig(cutoff=cutoff)
            a = schur_eval(inst, cfg)
            _, old_err = _chain_sum(inst, cfg)
            assert a.err_bound == pytest.approx(old_err, rel=1e-12)
        assert a.err_bound == pytest.approx(pinned, rel=1e-12)
        a = schur_eval(inst, EvalConfig(cutoff=max_entry))
        exact = float(schur_truncated_exact(shape, s, x, max_entry))
        # All terms are positive: the truncation is a lower bound, and the
        # fallback adds no tail correction to the value.
        assert a.value.real == pytest.approx(exact, rel=1e-12)
        assert exact <= a.value.real + a.err_bound


@pytest.mark.parametrize("text", ["5,4,3,2,1", "5,5,5", "6,4,3,2"])
def test_jacobi_trudi_on_large_shapes(text):
    # Out of reach of the per-extension sum (292,864 chains for 5,4,3,2,1).
    shape = parse_partition(text)
    ks = range(-shape.rows + 1, shape.part(1))
    spec = ContentSpec({k: 2 + 0.5 * (k % 2) for k in ks}, {0: 0.3})
    rep = jacobi_trudi_H(spec, shape)
    assert rep.passes
    # The budget and slack exceed these small values, so also ask for
    # agreement to three digits (both sides agree to about five).
    assert rep.discrepancy <= 1e-3 * abs(rep.lhs.value)


# Bounds computed by summing one ``eval_chain`` per linear extension, with
# the chain kernel's own per-chain bound formulas.  The chain-sum oracle
# above runs the same kernel, so these frozen numbers also pin the formulas.
PINNED_BOUNDS = [
    ("2,1", "bound_only", 0.003888843633068741),
    ("2,1", "integral_correction", 3.711194967514044e-05),
    ("3,2", "bound_only", 0.00453089247694692),
    ("3,2", "integral_correction", 5.117696079454375e-05),
    ("2,2,1", "bound_only", 0.0014353379954085159),
    ("2,2,1", "integral_correction", 6.898407858419189e-05),
    ("3,3/1", "bound_only", 0.0021161937816659396),
    ("3,3/1", "integral_correction", 8.005755828995918e-05),
]


@pytest.mark.parametrize("text,mode,bound", PINNED_BOUNDS)
def test_pinned_bounds(text, mode, bound):
    shape = parse_shape(text)
    inst = instance_from_spec(_content_spec(shape, False), shape)
    a = schur_eval(inst, EvalConfig(cutoff=50, tail_mode=mode))
    assert a.err_bound == pytest.approx(bound, rel=1e-12)
