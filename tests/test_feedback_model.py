"""Single-bit feedback detection geometry and error-rate formulas."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from harqopt import feedback_model, numerics

import oracles

# 0.5*erfc(sqrt(0.6)) and 0.5*erfc(2*sqrt(0.6)), high-precision oracle
NACK_A0_S01 = 0.13666083914614907
NACK_A1_S01 = 0.014229868458155282


class _ZeroNoise:
    """rng stand-in that silences the AWGN draw."""

    def standard_normal(self, size):
        return np.zeros(size)


def test_nack_error_rate_examples():
    assert feedback_model.nack_error_rate(0.0, 0.1) == pytest.approx(NACK_A0_S01, abs=1e-14)
    assert feedback_model.nack_error_rate(1.0, 0.1) == pytest.approx(NACK_A1_S01, abs=1e-14)
    assert feedback_model.nack_error_rate(1e6, 0.1) == 0.0
    # 6 snr overflows a float here, yet a threshold of -1 still reads 0.5
    assert feedback_model.nack_error_rate(-1.0, 1e308) == 0.5


def test_ack_error_rate_examples():
    assert feedback_model.ack_error_rate(1.0, 0.1) == 0.5
    assert feedback_model.ack_error_rate(1.0, 37.0) == 0.5
    assert feedback_model.ack_error_rate(1.0, 1e308) == 0.5
    assert feedback_model.ack_error_rate(0.0, 0.1) == pytest.approx(NACK_A0_S01, abs=1e-14)


def test_error_rate_reflection_identity():
    assert feedback_model.ack_error_rate(0.4, 0.1) == feedback_model.nack_error_rate(-0.4, 0.1)


@pytest.mark.parametrize("snr", [0.0, -0.5, math.nan])
def test_error_rates_reject_bad_snr(snr):
    with pytest.raises(ValueError):
        feedback_model.nack_error_rate(0.5, snr)
    with pytest.raises(ValueError):
        feedback_model.ack_error_rate(0.5, snr)


# monotonicity is strict mathematically; in floats the erfc tail saturates,
# so the properties are probed away from the saturated region with a
# macroscopic separation between the compared points
@given(st.floats(-1.0, 1.5), st.floats(-1.0, 1.5), st.floats(0.01, 1.0))
def test_nack_rate_monotone_decreasing_in_alpha(a1, a2, snr):
    lo, hi = min(a1, a2), max(a1, a2)
    if hi - lo < 1e-6:
        return
    assert feedback_model.nack_error_rate(hi, snr) < feedback_model.nack_error_rate(lo, snr)
    assert feedback_model.ack_error_rate(hi, snr) > feedback_model.ack_error_rate(lo, snr)


@given(st.floats(-0.5, 0.9), st.floats(0.01, 2.0), st.floats(0.01, 2.0))
def test_rates_decrease_with_snr_below_alpha_one(alpha, s1, s2):
    lo, hi = min(s1, s2), max(s1, s2)
    if hi - lo < 1e-6:
        return
    assert feedback_model.nack_error_rate(alpha, hi) < feedback_model.nack_error_rate(alpha, lo)
    assert feedback_model.ack_error_rate(alpha, hi) < feedback_model.ack_error_rate(alpha, lo)


def test_build_sequences_geometry():
    s_ack, s_nack = feedback_model.build_sequences()
    assert len(s_ack) == len(s_nack) == 12
    assert np.all(np.abs(s_ack) == 1.0) and np.all(np.abs(s_nack) == 1.0)
    differ = s_ack != s_nack
    assert differ.sum() == 6
    np.testing.assert_allclose(s_ack[differ], -s_nack[differ])
    assert np.sum(np.abs(s_ack - s_nack) ** 2) == pytest.approx(24.0)


def test_simulate_detection_noiseless():
    rng = _ZeroNoise()
    assert oracles.simulate_detection(True, 0.99, 0.1, rng) is True
    assert oracles.simulate_detection(False, -0.99, 0.1, rng) is False
    assert oracles.simulate_detection(False, 0.0, 5.0, rng) is False


def test_detection_statistic_noiseless_endpoints():
    s_ack, s_nack = feedback_model.build_sequences()
    snr = 0.37
    t_ack = oracles.detection_statistic(math.sqrt(snr) * s_ack, snr)
    t_nack = oracles.detection_statistic(math.sqrt(snr) * s_nack, snr)
    assert t_ack == pytest.approx(1.0, abs=1e-12)
    assert t_nack == pytest.approx(-1.0, abs=1e-12)


def test_simulate_detection_matches_analytic_rate():
    # validates the 1/(12 snr) statistic noise variance
    alpha, snr, n = 0.5, 0.1, 10**6
    rng = np.random.default_rng(7)
    det = feedback_model.detect_batch(False, alpha, snr, n, rng)
    emp = det.mean()  # NACK sent, ACK detected
    p = feedback_model.nack_error_rate(alpha, snr)
    se = math.sqrt(p * (1.0 - p) / n)
    assert abs(emp - p) <= 3.0 * se


def test_symmetric_detection_balances_errors():
    snr, n = 0.1, 10**6
    rng = np.random.default_rng(8)
    nack_err = feedback_model.detect_batch(False, 0.0, snr, n, rng).mean()
    ack_err = 1.0 - feedback_model.detect_batch(True, 0.0, snr, n, rng).mean()
    p = feedback_model.nack_error_rate(0.0, snr)
    se = math.sqrt(2.0 * p * (1.0 - p) / n)  # combined two-sample error
    assert abs(nack_err - ack_err) <= 4.0 * se


@pytest.mark.parametrize("alpha, snr", [(0.0, 0.1), (0.5, 0.03), (-0.3, 1.0),
                                        (1.2, 3.0)])
def test_detect_batch_matches_scalar_statistic_row_by_row(alpha, snr):
    # detect_batch draws one (n, 6) block: the real parts of the noise at
    # the positions where the sequences differ, in position order. Placed
    # there in a full 12-symbol y, with arbitrary noise in every other real
    # and imaginary part, they give the symbol-by-symbol statistic exactly,
    # for either sent bit
    n = 2000
    s_ack, s_nack = feedback_model.build_sequences()
    differ = np.flatnonzero(s_ack != s_nack)
    detected = 0
    for sent_ack in (False, True):
        rng = np.random.default_rng(21)
        got = feedback_model.detect_batch(sent_ack, alpha, snr, n, rng)
        ref = np.random.default_rng(21)
        other = np.random.default_rng(22)
        re = other.standard_normal((n, 12))
        im = other.standard_normal((n, 12))
        re[:, differ] = ref.standard_normal((n, differ.size))
        sent = math.sqrt(snr) * (s_ack if sent_ack else s_nack)
        want = [oracles.detection_statistic(sent + (r + 1j * i) * math.sqrt(0.5), snr) >= alpha
                for r, i in zip(re, im)]
        np.testing.assert_array_equal(got, want)
        assert rng.random() == ref.random()
        detected += sum(want)
    # at a high SNR one sent bit can give the same outcome in every trial,
    # so the outcomes are checked to differ over both
    assert 0 < detected < 2 * n


def test_spec_maps_symmetric_case():
    spec = feedback_model.make_feedback_spec(-10.0)
    p_nack, p_ack = oracles.error_pair(spec, (0.0, 0.0, 0.0))
    assert p_nack.shape == p_ack.shape == (3,)
    assert np.array_equal(p_nack, p_ack)
    assert all(0.0 <= p <= 1.0 for p in p_nack)


def test_spec_maps_ordering():
    spec = feedback_model.make_feedback_spec(-10.0)
    p_nack, p_ack = oracles.error_pair(spec, (0.2, 0.4, 0.6))
    assert p_nack[0] > p_nack[1] > p_nack[2]
    assert p_ack[0] < p_ack[1] < p_ack[2]
    for pn, pa in zip(p_nack, p_ack):
        assert pn < pa  # alpha > 0 protects NACK


def test_make_feedback_spec_validation():
    spec = feedback_model.make_feedback_spec(-10.0)
    assert spec.snr_linear == pytest.approx(0.1, rel=1e-12)
    with pytest.raises(ValueError):
        feedback_model.make_feedback_spec(math.nan)
    # 10^(4000/10) overflows a float: a ValueError, as for any bad input
    with pytest.raises(ValueError, match="overflows"):
        feedback_model.make_feedback_spec(4000.0)
    assert feedback_model.make_feedback_spec(3000.0).snr_linear == 1e300


@pytest.mark.parametrize("slots", [1, 2])
@pytest.mark.parametrize("snr_db", [-16.0, -10.0, -3.0, 5.0])
def test_spec_maps_are_monotone_in_alpha(slots, snr_db):
    # the contract every threshold search and bound rests on: raising alpha
    # never raises the NACK->ACK rate nor lowers the ACK->NACK one
    spec = feedback_model.make_feedback_spec(snr_db, slots=slots)
    alphas = np.linspace(-2.0, 6.0, 4001)
    pn, pa = spec.nack_rate(alphas), spec.ack_rate(alphas)
    assert np.all(np.diff(pn) <= 0.0) and np.all(np.diff(pa) >= 0.0)
    assert np.all((0.0 <= pn) & (pn <= 1.0)) and np.all((0.0 <= pa) & (pa <= 1.0))


@pytest.mark.parametrize("snr_db", [-16.0, -12.0, -8.0, -4.0, 0.0, 5.0])
def test_two_slot_rates_at_zero_threshold_square_the_flip(snr_db):
    # the duplicated ACK: a NACK is lost when both slots flip, an ACK when
    # either does; at alpha 0 both slots flip with the same p
    s = numerics.snr_db_to_linear(snr_db, "test")
    p = feedback_model.nack_error_rate(0.0, s)
    p_nack, p_ack = oracles.error_pair(feedback_model.FeedbackSpec(s, slots=2), (0.0,) * 3)
    assert np.array_equal(p_nack, [p * p] * 3)
    assert np.array_equal(p_ack, [1.0 - (1.0 - p) * (1.0 - p)] * 3)


def test_one_slot_maps_are_the_detector_rates():
    spec = feedback_model.make_feedback_spec(-10.0)
    alphas = np.linspace(-1.0, 3.0, 41)
    assert spec.slots == 1
    assert np.array_equal(spec.nack_rate(alphas),
                          feedback_model.nack_error_rate(alphas, spec.snr_linear))
    assert np.array_equal(spec.ack_rate(alphas),
                          feedback_model.ack_error_rate(alphas, spec.snr_linear))


@pytest.mark.parametrize("slots", [0, 3, -1])
def test_feedback_spec_takes_one_or_two_slots(slots):
    with pytest.raises(ValueError, match="slots must be 1 or 2"):
        feedback_model.FeedbackSpec(0.1, slots=slots)
