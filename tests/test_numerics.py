"""Special-function kernels against independently computed references.

The reference constants were produced by separate oracles (series /
continued-fraction evaluation for erfc and E1, a fine trapezoid grid for
the Rayleigh expectation) before the kernels were written, so agreement
here is evidence, not tautology. scipy, a test-only dependency, is the
oracle for the kernels over whole ranges.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import special

from harqopt import numerics
from harqopt.errors import ConvergenceError

# independently computed oracle values
ERFC_ONE = 0.15729920705028516
Q_AT_95TH = 0.04999521746834634
E1_HALF = 0.5597735947761608
E1_ONE = 0.2193839343955205
E1_TWO = 0.048900510708061125
# trapezoid of log2(1+1.9953 g) e^-g on [0, 80], 2^22+1 points
MEAN_MI_TRAPZ = 1.3296513652954784


def test_erfc_examples():
    assert numerics.erfc(0.0) == 1.0
    assert numerics.erfc(-0.7) == pytest.approx(2.0 - numerics.erfc(0.7), abs=1e-15)
    assert abs(numerics.erfc(1.0) - ERFC_ONE) <= 1e-12


def _ulps(a, b):
    return np.abs(a.view(np.int64) - b.view(np.int64))


def test_erfc_matches_scipy_oracle():
    rng = np.random.default_rng(2024)
    xs = np.concatenate([np.linspace(-6.0, 27.0, 330_001),
                         rng.uniform(-6.0, 27.0, 100_000),
                         rng.uniform(-1.0, 1.0, 20_000),
                         [-1.0, 1.0, -8.0, 8.0, 26.64, -26.64]])
    got = numerics.erfc(xs)
    ref = special.erfc(xs)
    ulps = _ulps(got, ref)
    core = np.abs(xs) < 1.0
    # same rational form and Horner order: exact where no exp is involved
    assert np.all(ulps[core] == 0)
    # elsewhere numpy's exp may differ from libm's by an ulp
    normal = ref >= np.finfo(float).tiny
    assert ulps[normal].max() <= 4
    # exp(-x^2) underflows past x^2 = log(DBL_MAX): exactly 0, or 2 below
    under = xs * xs > 709.782712893384
    assert np.any(under & (xs > 0.0))
    assert np.all(got[under & (xs > 0.0)] == 0.0)
    assert np.all(numerics.erfc(-xs[under]) == 2.0)


def test_erfc_same_bits_as_scalar_and_inside_any_block():
    block = numerics._BLOCK
    xs = np.random.default_rng(5).uniform(-6.0, 27.0, 3 * block)
    whole = numerics.erfc(xs)
    picks = np.r_[0:8, block - 8:block + 8, 2 * block - 8:2 * block + 8, 3 * block - 8:3 * block]
    for i in picks:
        v = float(xs[i])
        assert numerics.erfc(v) == whole[i]
        assert numerics.erfc(np.array(v)) == whole[i]
        assert numerics.erfc(np.array([v, 0.5]))[0] == whole[i]
    assert numerics.erfc(xs.reshape(3, block)).ravel().tobytes() == whole.tobytes()


def test_erfc_small_inputs_are_the_scalar_kernel_bit_for_bit():
    # up to _SCALAR_MAX elements, erfc calls _erfc_scalar on each element
    # and keeps the input's shape; a float or 0-d input gives a float
    xs = np.random.default_rng(6).uniform(-6.0, 27.0, 3 * numerics._SCALAR_MAX)
    for v in xs.tolist() + [0.0, -0.0, 1.0, -1.0, 8.0, -8.0, math.inf, -math.inf]:
        want = numerics._erfc_scalar(v)
        for x in (v, np.float64(v), np.array(v)):
            got = numerics.erfc(x)
            assert type(got) is float and got.hex() == want.hex()
    three = xs[:3]
    got = numerics.erfc(three)
    assert got.shape == (3,)
    assert got.tobytes() == np.array([numerics._erfc_scalar(v) for v in three.tolist()]).tobytes()
    grid = xs[:numerics._SCALAR_MAX].reshape(4, -1)
    assert numerics.erfc(grid).tobytes() == np.array(
        [numerics._erfc_scalar(v) for v in grid.ravel().tolist()]).reshape(4, -1).tobytes()


def two_pass_laguerre_nodes(n):
    """_laguerre_nodes as written with one recurrence pass per polynomial:
    L_n and L_{n-1} at the Jacobi eigenvalues each from their own pass."""
    def poly(n, x):
        d = -x
        p = d + 1.0
        for kk in range(n - 1):
            k = kk + 1.0
            d = -x / (k + 1.0) * p + (k / (k + 1.0)) * d
            p = d + p
        return p

    k = np.arange(n, dtype=float)
    jacobi = np.diag(2.0 * k + 1.0) - np.diag(k[1:], 1) - np.diag(k[1:], -1)
    x = np.linalg.eigvalsh(jacobi)
    y = poly(n, x)
    dy = (n * y - n * poly(n - 1, x)) / x
    x -= y / dy
    fm = poly(n - 1, x)
    log_fm = np.log(np.abs(fm))
    log_dy = np.log(np.abs(dy))
    fm /= np.exp((log_fm.max() + log_fm.min()) / 2.0)
    dy /= np.exp((log_dy.max() + log_dy.min()) / 2.0)
    w = 1.0 / (fm * dy)
    w *= 1.0 / w.sum()
    return x, w


@pytest.mark.parametrize("n", [2, 25, 100, 200])
def test_laguerre_nodes_equal_the_two_pass_form_byte_for_byte(n):
    # one recurrence pass gives L_{n-1} on the way to L_n
    for got, want in zip(numerics._laguerre_nodes(n), two_pass_laguerre_nodes(n)):
        assert got.tobytes() == want.tobytes()


def test_laguerre_nodes_match_scipy_oracle():
    for n in (25, 50, 100, 200):
        x, w = numerics._laguerre_nodes(n)
        x_ref, w_ref = special.roots_laguerre(n)
        assert _ulps(x, x_ref).max() <= 4
        assert _ulps(w, w_ref).max() <= 4


def test_exp_integral_matches_scipy_oracle():
    rng = np.random.default_rng(17)
    xs = np.concatenate([np.geomspace(1e-3, 700.0, 20_001),
                         rng.uniform(0.5, 2.0, 5_000)])
    got = np.array([numerics.exp_integral_e1(x) for x in xs])
    ref = special.exp1(xs)
    assert np.max(np.abs(got - ref) / ref) <= 2e-15
    scaled = np.array([numerics.exp_integral_e1(x, scaled=True) for x in xs])
    assert np.max(np.abs(scaled * np.exp(-xs) - ref) / ref) <= 2e-15


def test_erfc_rejects_nan():
    with pytest.raises(ValueError, match="NaN"):
        numerics.erfc(math.nan)
    with pytest.raises(ValueError, match="NaN"):
        numerics.erfc(np.r_[np.zeros(40), math.nan])
    with pytest.raises(ValueError, match="NaN"):
        numerics.erfc(np.r_[0.5, math.nan, 9.0])


@pytest.mark.parametrize("x, limit", [(math.inf, 0.0), (-math.inf, 2.0)])
def test_erfc_limits_at_infinity(x, limit):
    # element by element and in blocks alike
    assert numerics.erfc(x) == limit
    np.testing.assert_array_equal(numerics.erfc(np.full(40, x)), limit)


def test_erfc_reflection_and_range_bulk():
    xs = np.random.default_rng(101).uniform(-5.0, 5.0, size=1000)
    vals = np.array([numerics.erfc(x) for x in xs])
    refl = np.array([numerics.erfc(-x) for x in xs])
    assert np.all(vals > 0.0) and np.all(vals < 2.0)
    assert np.max(np.abs(vals + refl - 2.0)) <= 1e-12
    order = np.argsort(xs)
    assert np.all(np.diff(vals[order]) < 0.0)  # strictly decreasing


def test_q_function_examples():
    assert numerics.q_function(0.0) == 0.5
    assert numerics.q_function(1.3) + numerics.q_function(-1.3) == pytest.approx(1.0, abs=1e-15)
    assert numerics.q_function(1.6449) == pytest.approx(0.05, abs=1e-4)
    assert abs(numerics.q_function(1.6449) - Q_AT_95TH) <= 1e-12


@given(st.floats(-8.0, 8.0))
def test_q_function_is_half_erfc_composition(x):
    assert numerics.q_function(x) == 0.5 * numerics.erfc(x / math.sqrt(2.0))


def test_exp_integral_values():
    for x, ref in [(0.5, E1_HALF), (1.0, E1_ONE), (2.0, E1_TWO)]:
        assert abs(numerics.exp_integral_e1(x) - ref) <= 1e-10 * ref
    assert E1_HALF > E1_ONE > E1_TWO


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
def test_exp_integral_domain(bad):
    with pytest.raises(ValueError):
        numerics.exp_integral_e1(bad)


def test_expect_rayleigh_normalization_and_mean():
    assert numerics.expect_rayleigh(lambda g: np.ones_like(g), 1e-9) == pytest.approx(1.0, abs=1e-12)
    assert numerics.expect_rayleigh(lambda g: g, 1e-9) == pytest.approx(1.0, abs=1e-12)


def test_expect_rayleigh_needs_one_value_per_abscissa():
    for f in (lambda g: 1.0, lambda g: g[:-1]):
        with pytest.raises(ValueError, match="one value per abscissa"):
            numerics.expect_rayleigh(f, 1e-6)


def test_expect_rayleigh_exponential_moments():
    # E[g^n] = n! for the unit exponential
    for n in range(5):
        got = numerics.expect_rayleigh(lambda g, n=n: g**n, 1e-8)
        assert got == pytest.approx(math.factorial(n), rel=1e-8)


def test_expect_rayleigh_mean_mi_oracle():
    got = numerics.expect_rayleigh(lambda g: np.log2(1.0 + 1.9953 * g), 1e-6)
    assert got == pytest.approx(MEAN_MI_TRAPZ, abs=1e-9)


def test_expect_rayleigh_result_independent_of_tolerance():
    f = lambda g: np.log2(1.0 + 1.9953 * g)  # noqa: E731
    assert numerics.expect_rayleigh(f, 1e-4) == numerics.expect_rayleigh(f, 1e-7)


def test_expect_rayleigh_convergence_error_carries_estimate():
    f = lambda g: np.log2(1.0 + 2.0 * g)  # noqa: E731
    with pytest.raises(ConvergenceError) as exc:
        numerics.expect_rayleigh(f, 1e-16)
    est = exc.value.estimate
    assert math.isfinite(est)
    # the failed run still carries the 200-node estimate
    assert est == pytest.approx(numerics.expect_rayleigh(f, 1e-6), abs=1e-12)

