"""``chain_tails`` (every shifted tail of a chain in one reverse pass)
against one ``ez_zeta_star_star`` / ``ez_zeta`` call per shift m.

The per-m call at cutoff M reaches k_r <= M + m; the reverse pass runs every
k to M + count, so each of its tails is that call at a cutoff at least as
large: the value moves by less than the per-m bound and no bound is looser.
"""

import pytest

from shzeta.errors import DomainError
from shzeta.ezzeta import EvalConfig, chain_tails, ez_zeta, ez_zeta_star_star

# first_min -> (per-m oracle, strict steps)
ORACLES = {0: (ez_zeta_star_star, False), 1: (ez_zeta, True)}


def _chain(depth, imag):
    s = [complex(2 + 0.3 * i, 0.5 * (-1) ** i if imag else 0) for i in range(depth)]
    y = [0.3 * (i % 2) for i in range(depth)]
    return s, y


def _per_m(s, y, first_min, cfg, count):
    oracle, _ = ORACLES[first_min]
    return [oracle(s, [m + v for v in y], cfg, depth=len(s)) for m in range(1, count + 1)]


def _against_per_m_calls(s, y, strict, first_min, cfg, count, values, errs):
    old = None
    for m, old in enumerate(_per_m(s, y, first_min, cfg, count), start=1):
        assert abs(values[m - 1] - old.value) <= old.err_bound
        assert errs[m - 1] <= old.err_bound * (1 + 1e-12)
    if count > 1 and len(s):
        # At m = count both cover the same fillings.
        assert errs[-1] == pytest.approx(old.err_bound, rel=1e-12)


def _against_far_cutoff(s, y, strict, first_min, cfg, count, values, errs):
    # The bound alone: chain_tails at 40 times the cutoff certifies values
    # that differ from these by at most the sum of both bounds, with bounds
    # no looser than these.
    far, far_errs = chain_tails(s, y, strict, EvalConfig(cutoff=40 * cfg.cutoff), count, first_min)
    assert (abs(values - far) <= errs + far_errs).all()
    assert (far_errs <= errs).all()


# The ids name the check as the tail certificates were once named: the
# per-m calls pin the full certificate, the far cutoff its bound alone.
CHECKS = [
    pytest.param(_against_far_cutoff, id="bound_only"),
    pytest.param(_against_per_m_calls, id="integral_correction"),
]


@pytest.mark.parametrize("count", [1, 300])
@pytest.mark.parametrize("cutoff", [50, 2000])
@pytest.mark.parametrize("check", CHECKS)
@pytest.mark.parametrize("imag", [False, True])
@pytest.mark.parametrize("first_min", [0, 1])
@pytest.mark.parametrize("depth", [0, 1, 2, 3])
def test_matches_per_m_calls(depth, first_min, imag, check, cutoff, count):
    s, y = _chain(depth, imag)
    cfg = EvalConfig(cutoff=cutoff)
    strict = (ORACLES[first_min][1],) * max(depth - 1, 0)
    values, errs = chain_tails(s, y, strict, cfg, count, first_min)
    assert values.shape == errs.shape == (count,)
    check(s, y, strict, first_min, cfg, count, values, errs)


def test_depth_zero_is_one():
    values, errs = chain_tails([], [], [], EvalConfig(), 5, 0)
    assert list(values) == [1] * 5 and list(errs) == [0] * 5


@pytest.mark.parametrize(
    "s,y,first_min",
    [
        ([2.0, 1.0], [0.0, 0.0], 1),  # last exponent on the boundary
        ([0.5, 2.0], [0.0, 0.0], 1),  # inner exponent below 1
        ([2.0], [-1.0], 0),  # 1 + y = 0: the m = 1 chain hits a zero base
        ([2.0, 3.0], [0.0, -3.0], 1),  # strict: m = 1 puts k_2 >= 3, base 0
        # Re s = 1 on an inner slot: only eval_layers bounds such chains.
        ([1.0, 2.5], [0.3, 0.0], 0),
        ([2.0, 1.0, 3.0], [0.3, 0.0, 0.5], 1),
        ([1.0, 1.0, 2.5], [0.3, 0.0, 0.5], 0),
        ([1.0, 2.0, 2.5], [0.3, 0.0, 0.5], 1),
    ],
)
def test_domain_errors(s, y, first_min):
    with pytest.raises(DomainError):
        chain_tails(s, y, [False] * (len(s) - 1), EvalConfig(), 10, first_min)


def test_length_mismatch():
    with pytest.raises(ValueError):
        chain_tails([2.0, 2.0], [0.0], [False], EvalConfig(), 10, 1)
