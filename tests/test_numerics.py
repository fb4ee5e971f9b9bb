"""Special-function kernels against independently computed references.

The reference constants were produced by separate oracles (series /
continued-fraction evaluation for erfc and E1, a fine trapezoid grid for
the Rayleigh expectation) before the kernels were written, so agreement
here is evidence, not tautology.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_erfc_rejects_non_finite(bad):
    with pytest.raises(ValueError):
        numerics.erfc(bad)


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
    # the failed run still carries the full-ladder estimate
    assert est == pytest.approx(numerics.expect_rayleigh(f, 1e-6), abs=1e-12)

