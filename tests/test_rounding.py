"""The stated float64 error bounds that the kernels' rounding term uses.

``ezzeta`` takes numpy's ``log`` and ``exp`` to be within ``LOG_ULPS`` and
``EXP_ULPS`` ulps, and the C library's ``pow``, ``log`` and ``exp`` behind
Python's float powers and ``math`` within ``LIBM_ULPS``.  Each is checked
here against mpmath at 100 bits on seeded random inputs in the ranges a
power table reads: bases 1e-3 to 1e7 and exponents with |sigma log b| up
to 700.  The term also takes log 1 = +0 and exp(+-0) = 1 to be exact.

For complex and mixed data it also takes numpy's complex ``exp`` to be
within ``CEXP_ERR`` u of the modulus of its result, CPython's complex
``**`` on a positive base b within u (``CPOW_ERR`` + 3 |Im e| |log b|)
(``LIBM_ULPS`` = 1), its complex division within ``CDIV_ERR`` u and its
complex product within sqrt(2) gamma_2, all checked the same way on
imaginary parts up to 50.
"""

import math

import mpmath
import numpy as np
import pytest
from mpmath.libmp import from_float, mpf_exp, mpf_log, mpf_pow, mpf_sub, to_float

from shzeta import ezzeta

N = 100_000
N_COMPLEX = 10_000  # mpmath's complex functions are slower
PREC = 100  # bits of the mpmath references


def _ulps(got, refs):
    """|got - ref| in ulps of ref, each mpmath reference split into its
    nearest float and the remainder so that the difference is taken in
    floats."""
    hi = np.array([to_float(r) for r in refs])
    lo = np.array([to_float(mpf_sub(r, from_float(h), PREC)) for r, h in zip(refs, hi)])
    return np.abs((np.asarray(got) - hi) - lo) / np.spacing(np.abs(hi))


@pytest.fixture(scope="module")
def inputs():
    """Bases log-uniform on [1e-3, 1e7], and per base an exponent sigma >= 1
    with sigma |log b| uniform up to 700."""
    rng = np.random.default_rng(20261020)
    bases = 10.0 ** rng.uniform(-3.0, 7.0, N)
    logs = np.log(bases)
    sigma = np.maximum(rng.uniform(0.0, 700.0, N) / np.maximum(np.abs(logs), 1e-300), 1.0)
    return bases, -sigma * logs  # the arguments ``neg_power`` passes to exp


def test_numpy_log(inputs):
    bases, _ = inputs
    refs = [mpf_log(from_float(b), PREC) for b in bases.tolist()]
    assert _ulps(np.log(bases), refs).max() <= ezzeta.LOG_ULPS


def test_numpy_exp(inputs):
    _, args = inputs
    assert np.abs(args).max() <= 700.0 * (1 + 1e-12)
    refs = [mpf_exp(from_float(x), PREC) for x in args.tolist()]
    assert _ulps(np.exp(args), refs).max() <= ezzeta.EXP_ULPS


def test_libm(inputs):
    bases, args = (a[:10_000].tolist() for a in inputs)
    powers = [-x / math.log(b) for b, x in zip(bases, args)]
    checks = [
        ([math.log(b) for b in bases], [mpf_log(from_float(b), PREC) for b in bases]),
        ([math.exp(x) for x in args], [mpf_exp(from_float(x), PREC) for x in args]),
        ([b ** -e for b, e in zip(bases, powers)],
         [mpf_pow(from_float(b), from_float(-e), PREC) for b, e in zip(bases, powers)]),
    ]
    for got, refs in checks:
        assert _ulps(got, refs).max() <= ezzeta.LIBM_ULPS


def _relative(got, refs):
    """|got - ref| / |ref| in units of u, at ``PREC`` bits."""
    with mpmath.workprec(PREC):
        return np.array([float(abs(mpmath.mpc(g) - r) / abs(r)) for g, r in zip(got, refs)]) / ezzeta.UNIT_ROUNDOFF


@pytest.fixture(scope="module")
def complex_inputs(inputs):
    """The first ``N_COMPLEX`` bases and exponents, with imaginary parts
    uniform on [-50, 50]."""
    bases, args = (a[:N_COMPLEX] for a in inputs)
    sigma = -args / np.log(bases)
    return bases, sigma + 1j * np.random.default_rng(20261022).uniform(-50.0, 50.0, N_COMPLEX)


def test_numpy_complex_exp(complex_inputs):
    bases, s = complex_inputs
    z = np.multiply(-s, np.log(bases))  # the arguments ``neg_power`` passes to exp
    with mpmath.workprec(PREC):
        refs = [mpmath.exp(mpmath.mpc(v)) for v in z.tolist()]
    assert _relative(np.exp(z).tolist(), refs).max() <= ezzeta.CEXP_ERR


def test_cpython_complex_power(complex_inputs):
    bases, s = (a.tolist() for a in complex_inputs)
    for e in ([-v for v in s], [1.0 - v for v in s]):  # the two powers of ``em_tail``
        with mpmath.workprec(PREC):
            refs = [mpmath.power(mpmath.mpf(b), mpmath.mpc(v)) for b, v in zip(bases, e)]
        phase = np.abs(np.imag(e)) * np.abs(np.log(bases))
        bound = ezzeta.CPOW_ERR + (2.0 * ezzeta.LIBM_ULPS + 1.0) * phase
        assert (_relative([b**v for b, v in zip(bases, e)], refs) <= bound).all()


def test_cpython_complex_division_and_product():
    rng = np.random.default_rng(20261023)
    a, b = (list(rng.normal(size=N_COMPLEX) * 10.0 ** rng.uniform(-3, 3, N_COMPLEX)
                 + 1j * rng.normal(size=N_COMPLEX)) for _ in range(2))
    with mpmath.workprec(PREC):
        quotients = [mpmath.mpc(p) / mpmath.mpc(q) for p, q in zip(a, b)]
        products = [mpmath.mpc(p) * mpmath.mpc(q) for p, q in zip(a, b)]
    assert _relative([p / q for p, q in zip(a, b)], quotients).max() <= ezzeta.CDIV_ERR
    assert _relative([p * q for p, q in zip(a, b)], products).max() <= ezzeta.CMUL_OPS
    assert _relative((np.array(a) * np.array(b)).tolist(), products).max() <= ezzeta.CMUL_OPS


def test_exact_cases():
    # A table entry of base 1 is exp(-s log 1) = exp(-0) = 1: no rounding.
    ones = np.ones(1000)
    assert (np.log(ones) == 0).all() and not np.signbit(np.log(ones)).any()
    assert (np.exp(np.zeros(1000)) == 1).all() and (np.exp(-np.zeros(1000)) == 1).all()
    assert math.log(1.0) == 0.0 and math.exp(0.0) == math.exp(-0.0) == 1.0
    table = ezzeta.power_tables()(3, 2.5, 0.0)
    assert table[1] == 1.0
    assert ezzeta.power_tables()(3, 2.5 + 1j, 0.0)[1] == 1.0
    assert np.exp(np.multiply(-(2.5 + 1j), np.zeros(3))).tolist() == [1.0] * 3
