"""``schur_eval`` against an independent high-precision reference.

With one exponent s and one shift y on every cell, the series of a (skew)
shape is a skew Schur function of x_n = (n + y)^(-s), which
``oracles.constant_shape`` evaluates in mpmath from Hurwitz zeta values,
sharing no code with the kernel.  The sweep asserts that the whole error,
truncation and rounding, is within ``err_bound``.

The bound counts rounding only for all-real data (ROADMAP item 1), so
where a complex case's truncation error falls below its rounding error the
check fails: the cases in ``ROUNDING`` are strict xfails, listed with their
error / bound as measured.  One that starts to pass fails the run, so the
list cannot outlive its cause.  The one-row and one-column shapes of 1-6
cells, the constant weak and strict chains, also run at the cutoff 2*10^5
with real exponents, where rounding outweighs truncation.
"""

import functools
import itertools

import pytest

import oracles
from shzeta.ezzeta import EvalConfig
from shzeta.schurzeta import SchurInstance, schur_eval
from shzeta.shapes import parse_shape
from shzeta.tableaux import constant_tableau

SHAPES = (
    "1", "2", "1,1", "3", "2,1", "1,1,1", "4", "3,1", "2,2", "2,1,1", "1,1,1,1",
    "2,1/1", "3,2/1", "3,3,1/2",
)
EXPONENTS = (2, 3, 2.5 + 1j)
SHIFTS = (0, 0.3)
CUTOFFS = (200, 2000, 20000)
DPS = 30

# (shape, s, y, cutoff): error / bound as measured.
ROUNDING = {
    ("1", 2.5 + 1j, 0, 20000): 1.110,
}

CHAINS = tuple(dict.fromkeys(
    text for n in range(1, 7) for text in (str(n), ",".join("1" * n))
))
LONG_CASES = tuple(itertools.product(CHAINS, (2, 3), SHIFTS, (200000,)))


def _cases():
    for case in (*itertools.product(SHAPES, EXPONENTS, SHIFTS, CUTOFFS), *LONG_CASES):
        marks = ()
        if case in ROUNDING:
            marks = pytest.mark.xfail(strict=True, reason="uncounted rounding (ROADMAP item 1)")
        yield pytest.param(*case, marks=marks, id="{}-s{}-y{}-M{}".format(*case))


@functools.cache
def _reference(text, s, y):
    shape = parse_shape(text)
    return oracles.constant_shape(shape.outer, shape.inner, s, y, DPS)


@pytest.fixture(scope="module")
def ratios(request):
    """error / bound per case; the worst outside ``ROUNDING`` is reported."""
    found = {}
    yield found
    kept = {case: r for case, r in found.items() if case not in ROUNDING}
    plugins = request.config.pluginmanager
    reporter, capture = plugins.get_plugin("terminalreporter"), plugins.get_plugin("capturemanager")
    if kept and reporter is not None and capture is not None:
        worst = max(kept, key=kept.get)
        with capture.global_and_fixture_disabled():
            reporter.write_line(f"\nconstant-shape sweep: worst error / bound "
                                f"{kept[worst]:.6f} at {worst}, over {len(kept)} cases")


@pytest.mark.parametrize("text,s,y,cutoff", _cases())
def test_error_within_bound(ratios, text, s, y, cutoff):
    shape = parse_shape(text)
    inst = SchurInstance(shape, constant_tableau(shape, s), constant_tableau(shape, y))
    a = schur_eval(inst, EvalConfig(cutoff))
    error = abs(a.value - _reference(text, s, y))
    ratios[text, s, y, cutoff] = error / a.err_bound
    assert error <= a.err_bound, (error, a.err_bound)
