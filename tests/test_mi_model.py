"""Downlink MI statistics and the two failure-probability routes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from harqopt import mi_model
from harqopt.errors import ConvergenceError, GridError

import oracles

# adaptive-quadrature oracles at 3 dB (estimated error ~1.2e-10)
MEAN_MI_3DB = 1.329636703330416
VAR_MI_3DB = 0.6847890472285736
# measured gaussian-minus-convolution gap for the single-round case rho=1
K1_GAP_3DB = -0.04900031191368026


def test_downlink_spec_3db_oracles(dl3):
    assert dl3.snr_linear == pytest.approx(10**0.3, rel=1e-15)
    assert abs(dl3.mean_mi - MEAN_MI_3DB) <= 1e-9
    assert abs(dl3.var_mi - VAR_MI_3DB) <= 1e-9
    # closed form log2(e) e^{1/s} E1(1/s) must agree with the quadrature
    assert dl3.mean_mi == pytest.approx(
        mi_model.mean_mi_closed_form(dl3.snr_linear), abs=1e-9
    )


def test_mean_mi_closed_form_low_snr_asymptotic_series():
    # e^x E1(x) ~ sum_k (-1)^k k! / x^k; at x = 1/snr >= 700 twelve terms
    # leave a truncation error below 1e-25
    for x in (700.0, 1234.5, 1e4, 1e6):
        series = sum((-1) ** k * math.factorial(k) / x ** (k + 1) for k in range(12))
        got = mi_model.mean_mi_closed_form(1.0 / x)
        assert got == pytest.approx(mi_model.LOG2E * series, rel=4e-15)


def test_downlink_spec_jensen_bound(dl3):
    # concavity: E[log2(1+g snr)] <= log2(1 + snr E[g])
    assert 0.0 < dl3.mean_mi <= math.log2(1.0 + dl3.snr_linear)
    assert dl3.var_mi > 0.0


def test_downlink_spec_low_snr_limit():
    spec = mi_model.make_downlink_spec(-60.0)
    # capacity vanishes: ~ snr * log2(e) at snr = 1e-6
    assert 0.0 < spec.mean_mi < 2e-6
    assert spec.var_mi > 0.0


def test_downlink_spec_deterministic():
    a = mi_model.make_downlink_spec(3.0)
    b = mi_model.make_downlink_spec(3.0)
    assert a.mean_mi == b.mean_mi and a.var_mi == b.var_mi


def test_downlink_spec_propagates_convergence_failure():
    # the moment quadrature is only trusted through +10 dB and must fail
    # loudly, not silently degrade, above that
    with pytest.raises(ConvergenceError):
        mi_model.make_downlink_spec(12.0)


def test_make_downlink_spec_rejects_an_snr_beyond_float_range():
    with pytest.raises(ValueError, match="overflows"):
        mi_model.make_downlink_spec(4000.0)


def test_var_mi_against_monte_carlo(dl3):
    rng = np.random.default_rng(20260815)
    c = np.log2(1.0 + dl3.snr_linear * rng.exponential(size=10**7))
    m1 = c.mean()
    var_hat = (c * c).mean() - m1 * m1
    d = c - m1
    se = math.sqrt(((d**4).mean() - var_hat**2) / c.size)
    assert abs(dl3.var_mi - var_hat) <= 3.0 * se
    assert abs(dl3.mean_mi - m1) <= 3.0 * c.std(ddof=1) / math.sqrt(c.size)


def test_mi_of_gain_examples(dl3):
    assert oracles.mi_of_gain(0.0, 0.5, dl3) == 0.0
    unit = mi_model.make_downlink_spec(0.0)
    assert unit.snr_linear == 1.0
    assert oracles.mi_of_gain(1.0, 1.0, unit) == 1.0
    one = oracles.mi_of_gain(0.7, 0.3, dl3)
    two = oracles.mi_of_gain(0.7, 0.6, dl3)
    assert two == pytest.approx(2.0 * one, rel=1e-14)


def test_mi_of_gain_rejects_negative_gain(dl3):
    with pytest.raises(ValueError):
        oracles.mi_of_gain(-0.1, 1.0, dl3)


def test_p_fail_gaussian_median_point(dl3):
    # prefix mean exactly at the decoding threshold -> Q(0)
    p = mi_model.p_fail_gaussian([1.0 / dl3.mean_mi], dl3)
    assert p[0] == pytest.approx(0.5, abs=1e-9)


def test_p_fail_gaussian_deep_tail(dl3):
    rates = [100.0] * 25  # argument above 8 sigma
    arg = (2500.0 * dl3.mean_mi - 1.0) / (
        math.sqrt(25 * 100.0**2) * math.sqrt(dl3.var_mi)
    )
    assert arg > 8.0
    assert mi_model.p_fail_gaussian(rates, dl3)[-1] < 1e-15


def test_p_fail_single_round_gap_recorded(dl3):
    g = mi_model.p_fail_gaussian([1.0], dl3)[0]
    c = mi_model.p_fail_convolution([1.0], dl3)[0]
    # k=1 is exempt from the 0.05 accuracy bound; pin the measured gap so
    # silent regressions in either route show up
    assert g - c == pytest.approx(K1_GAP_3DB, abs=1e-6)


def _round_cdf(x, rho, snr):
    # exact CDF of one round's MI: P(rho log2(1 + snr g) < x)
    return -math.expm1(-(2.0 ** (x / rho) - 1.0) / snr)


@pytest.mark.parametrize("rho", [0.5, 1.0, 2.0])
def test_p_fail_convolution_single_round_closed_form(rho):
    for snr_db in (0.0, 3.0):
        dl = mi_model.make_downlink_spec(snr_db)
        p = mi_model.p_fail_convolution([rho], dl)[0]
        assert p == pytest.approx(_round_cdf(1.0, rho, dl.snr_linear), abs=1e-12)


@pytest.mark.parametrize("snr_db", [0.0, 3.0])
@pytest.mark.parametrize("rho1, rho2", [(2.0, 0.0625), (0.5, 0.5), (1.0, 0.25)])
def test_p_fail_convolution_two_round_quadrature(rho1, rho2, snr_db):
    # F_2 = integral over the first round's gain g below g*, where that round
    # alone decodes, of the second round's CDF at the remaining MI; the
    # larger rate goes first so that g* stays small enough for quad
    dl = mi_model.make_downlink_spec(snr_db)
    s = dl.snr_linear
    g_star = (2.0 ** (1.0 / rho1) - 1.0) / s
    ref, _ = integrate.quad(
        lambda g: math.exp(-g) * _round_cdf(1.0 - rho1 * math.log2(1.0 + s * g), rho2, s),
        0.0, g_star, epsabs=1e-13, epsrel=1e-12, limit=200,
    )
    p = mi_model.p_fail_convolution([rho1, rho2], dl)[1]
    assert abs(p - ref) <= 1e-7


def test_p_fail_convolution_huge_rate_vanishes(dl3):
    # single-round outage decays like ln2/(rho snr), so the 1e-6 level
    # needs rho of order 1e6, not just rho * mean_mi >= 20
    assert mi_model.p_fail_convolution([1e7], dl3)[0] < 1e-6


def test_p_fail_convolution_two_round_monte_carlo(dl3):
    rng = np.random.default_rng(42)
    n = 10**7
    g = rng.exponential(size=(n, 2))
    acc = 0.5 * np.log2(1.0 + dl3.snr_linear * g).sum(axis=1)
    emp = float((acc < 1.0).mean())
    se = math.sqrt(emp * (1.0 - emp) / n)
    p = mi_model.p_fail_convolution([0.5, 0.5], dl3)[1]
    assert abs(p - emp) <= 3.0 * se


def test_p_fail_convolution_bin_refinement(dl3):
    rates = [0.75, 0.25, 0.25, 0.25]
    p4 = mi_model.p_fail_convolution(rates, dl3, bins=4096)
    p8 = mi_model.p_fail_convolution(rates, dl3, bins=8192)
    assert np.abs(p4 - p8).max() < 1e-4


def test_p_fail_convolution_rejects_small_bins(dl3):
    with pytest.raises(GridError):
        mi_model.p_fail_convolution([1.0], dl3, bins=128)


rate_lists = st.lists(st.floats(0.1, 3.0), min_size=1, max_size=5)


@settings(max_examples=25)
@given(rate_lists)
def test_p_fail_convolution_monotone_in_prefix(rates):
    dl = mi_model.make_downlink_spec(3.0)
    p = mi_model.p_fail_convolution(rates, dl, bins=1024)
    assert np.all(np.diff(p) <= 1e-12)
    assert np.all((p >= 0.0) & (p <= 1.0))


@settings(max_examples=25)
@given(st.lists(st.floats(0.1, 3.0), min_size=2, max_size=5), st.randoms())
def test_p_fail_convolution_final_independent_of_round_order(rates, rnd):
    # the accumulated MI is a sum of independent rounds, so F_M must not
    # depend on the order in which they are sent
    dl = mi_model.make_downlink_spec(3.0)
    shuffled = list(rates)
    rnd.shuffle(shuffled)
    a = mi_model.p_fail_convolution(rates, dl, bins=1024)[-1]
    b = mi_model.p_fail_convolution(shuffled, dl, bins=1024)[-1]
    assert abs(a - b) <= 1e-12


@settings(max_examples=25)
@given(rate_lists)
def test_p_fail_gaussian_in_unit_interval(rates):
    dl = mi_model.make_downlink_spec(3.0)
    p = mi_model.p_fail_gaussian(rates, dl)
    assert np.all((p >= 0.0) & (p <= 1.0))


@pytest.mark.parametrize("bad", [(), (0.0,), (-1.0,), (math.inf,)])
def test_rate_vector_validation(bad, dl3):
    # both failure routes share one check: at least one round, every rate
    # positive and finite, for one vector or a stack of them
    with pytest.raises(ValueError):
        mi_model.p_fail_gaussian(bad, dl3)
    with pytest.raises(ValueError):
        mi_model.p_fail_convolution(bad, dl3)
    with pytest.raises(ValueError):
        mi_model.p_fail_gaussian(np.array([[1.0] * len(bad), bad]), dl3)
