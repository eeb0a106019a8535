"""The kernel against an mpmath replay of its own formula.

``oracles.replay_layers`` sums what ``eval_layers`` sums, the head DP
through the cutoff and the Euler-Maclaurin value of the outer tail on the
frozen prefix, at 40 digits.  Their difference is the kernel's rounding,
with no truncation error in it, so it must lie within the rounding term:
the part of ``err_bound`` that the unit roundoff scales.  The cases run
real, complex and mixed data, and the worst ratio of difference to term is
reported.  ``chain_tails``' tails are per-m chains, replayed the same way,
on real data.
"""

import mpmath
import pytest

import oracles
from shzeta import ezzeta
from shzeta.ezzeta import EvalConfig, chain_layers, chain_tails, eval_layers
from shzeta.schurzeta import ideal_layers
from shzeta.shapes import Partition
from shzeta.tableaux import as_skew


# Every partition of at most 4 cells.
PARTITIONS = ((1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1), (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))


def _chain(depth, strict, first_min, imag=0.0):
    """Depth-``depth`` chain, exponents 2, 2.25, ... with imaginary parts
    +-``imag`` alternating, and shifts 0.3, then 0 from 1 and 0.5 from 0."""
    s = [complex(2 + 0.25 * i, imag * (-1) ** i) if imag else 2 + 0.25 * i for i in range(depth)]
    y = [0.5 * (1 - first_min) if i % 2 else 0.3 for i in range(depth)]
    return chain_layers((strict,) * (depth - 1)), s, y, first_min


def _shape(parts, mixed=False):
    """Exponent 2 on even contents, 3 on odd ones, plus 0.5i on the
    contents 0 mod 3 if ``mixed``; shift 0.3 on content 0."""
    cells, layers = ideal_layers(as_skew(Partition(parts)))
    s = [2 + (j - i) % 2 + (0.5j if mixed and (j - i) % 3 == 0 else 0) for i, j in cells]
    y = [0.3 if i == j else 0.0 for i, j in cells]
    return layers, s, y, 1


CASES = [
    pytest.param(*_chain(depth, strict, first_min), 2000,
                 id=f"chain-{depth}-{'strict' if strict else 'weak'}-from{first_min}-M2000")
    for depth in range(1, 5) for strict, first_min in ((False, 0), (True, 1))
] + [
    pytest.param(*_shape(parts), 200, id=f"{','.join(map(str, parts))}-M200") for parts in PARTITIONS
] + [pytest.param(*_shape((2, 1)), 20000, id="2,1-M20000")] + [
    pytest.param(*_chain(depth, strict, first_min, 0.5), 2000,
                 id=f"complex-chain-{depth}-{'strict' if strict else 'weak'}-from{first_min}-M2000")
    for depth in range(1, 5) for strict, first_min in ((False, 0), (True, 1))
] + [
    pytest.param(*_shape(parts, True), 200, id=f"mixed-{','.join(map(str, parts))}-M200")
    for parts in PARTITIONS
] + [pytest.param(*_shape((2, 1), True), 20000, id="mixed-2,1-M20000")]


@pytest.fixture(scope="module")
def ratios(request):
    """|kernel - replay| / rounding term per case; the worst is reported."""
    found = {}
    yield found
    plugins = request.config.pluginmanager
    reporter, capture = plugins.get_plugin("terminalreporter"), plugins.get_plugin("capturemanager")
    if found and reporter is not None and capture is not None:
        worst = max(found, key=found.get)
        with capture.global_and_fixture_disabled():
            reporter.write_line(f"\nreplay: worst |kernel - replay| / rounding term "
                                f"{found[worst]:.3g} at {worst}, over {len(found)} cases")


@pytest.mark.parametrize("layers,s,y,first_min,cutoff", CASES)
def test_kernel_within_its_rounding_term(request, ratios, monkeypatch, layers, s, y, first_min, cutoff):
    cfg = EvalConfig(cutoff)
    a = eval_layers(layers, s, y, cfg, first_min)
    monkeypatch.setattr(ezzeta, "UNIT_ROUNDOFF", 0.0)
    term = a.err_bound - eval_layers(layers, s, y, cfg, first_min).err_bound
    replay = oracles.replay_layers(layers, ezzeta._strict_steps(layers), s, y, cutoff, first_min)
    difference = abs(a.value - replay)
    ratios[request.node.callspec.id] = difference / term
    assert 0 < term and difference <= term, (difference, term)


@pytest.mark.parametrize("depth", [1, 2, 3])
@pytest.mark.parametrize("first_min", [0, 1])
def test_chain_tails_within_its_rounding_term(monkeypatch, depth, first_min):
    # Tail m is the chain with shifts m + y at the cutoff K - m, K = M + count.
    layers, s, y, _ = _chain(depth, bool(first_min), first_min)
    strict, cfg, count = (bool(first_min),) * (depth - 1), EvalConfig(200), 4
    values, errs = chain_tails(s, y, strict, cfg, count, first_min)
    monkeypatch.setattr(ezzeta, "UNIT_ROUNDOFF", 0.0)
    terms = errs - chain_tails(s, y, strict, cfg, count, first_min)[1]
    steps = ezzeta._strict_steps(layers)
    for m in range(1, count + 1):
        shifts = [mpmath.mpf(m) + v for v in y]
        replay = oracles.replay_layers(layers, steps, s, shifts, cfg.cutoff + count - m, first_min)
        assert abs(values[m - 1] - replay) <= terms[m - 1]
