"""Protocol-level performance formulas.

The occurrence and stage-outage oracles below re-derive the quantities by
partitioning episodes over the decoder's success time, which is a
different decomposition than the production code uses, so agreement is a
real check rather than a restatement.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from harqopt import feedback_model, harq_analysis, mi_model

import oracles

UNIT = 1.0 / 16.0  # 64 units of a rate-4 mother code on 1024-bit blocks


def make_policy(rhos, alphas):
    return harq_analysis.HarqPolicy(rhos=tuple(rhos), alphas=tuple(alphas), n_b=1024)


def occurrence_by_success_time(F, pn, pa):
    """Independent oracle: condition on the round where decoding first wins."""
    m = len(F)
    Ffull = np.concatenate([[1.0], F])  # F_0 = 1
    out = [1.0]
    for i in range(2, m + 1):
        keep = Ffull[i - 1] * np.prod([1.0 - pn[j] for j in range(i - 1)])
        missed = 0.0
        for t in range(1, i):  # decoder succeeded at round t < i
            win = Ffull[t - 1] - Ffull[t]
            thread = np.prod([1.0 - pn[j] for j in range(t - 1)])
            acks = np.prod([pa[k] for k in range(t - 1, i - 1)])
            missed += win * thread * acks
        out.append(keep + missed)
    return np.asarray(out)


def outage_sequential_form(F, pn):
    """Direct transcription of the sequential outage expression."""
    m = len(F)
    inner = 1.0
    surv = 1.0
    for i in range(m - 1):
        inner -= pn[i] * F[i] * surv
        surv *= 1.0 - pn[i]
    return 1.0 - inner * (1.0 - F[m - 1])


@pytest.mark.parametrize("rhos, alphas, n_b, message", [
    ((), (), 1024, "at least one rate"),
    ((1.0, 1.0), (), 1024, "one threshold fewer"),
    ((1.0, 1.0), (0.5, 0.5), 1024, "one threshold fewer"),
    ((1.0,), (), 0, "n_b must be positive"),
    ((1.0, 0.0), (0.5,), 1024, "positive and finite"),
    ((1.0, -0.5), (0.5,), 1024, "positive and finite"),
    ((math.inf, 1.0), (0.5,), 1024, "positive and finite"),
    ((math.nan, 1.0), (0.5,), 1024, "positive and finite"),
    ((1.0, 1.0), (math.inf,), 1024, "thresholds must be finite"),
    ((1.0, 1.0), (math.nan,), 1024, "thresholds must be finite"),
])
def test_policy_rejects_malformed_fields(rhos, alphas, n_b, message):
    with pytest.raises(ValueError, match=message):
        harq_analysis.HarqPolicy(rhos=rhos, alphas=alphas, n_b=n_b)


def test_reliable_throughput_single_round(dl3):
    pol = make_policy([1.0], [])
    p1 = mi_model.p_fail_gaussian([1.0], dl3)[0]
    assert harq_analysis.reliable_throughput(pol, dl3) == pytest.approx(
        (1.0 - p1) / 1.0, rel=1e-12
    )


def test_reliable_throughput_composition(dl3):
    rhos = [0.5, 0.25, 0.25, 0.25]
    pol = make_policy(rhos, [0.0, 0.0, 0.0])
    F = mi_model.p_fail_gaussian(rhos, dl3)
    cost = rhos[0] + sum(r * F[i] for i, r in enumerate(rhos[1:]))
    assert harq_analysis.reliable_throughput(pol, dl3) == pytest.approx(
        (1.0 - F[-1]) / cost, rel=1e-12
    )


def test_reliable_throughput_vanishing_failure_limit(dl3):
    # huge first-round rate: failure ~ ln2/(rho snr), only round 1 costs
    pol = harq_analysis.HarqPolicy(rhos=(1e7,), alphas=(), n_b=1)
    eta = harq_analysis.reliable_throughput(pol, dl3, bins=mi_model.DEFAULT_CONV_BINS)
    assert eta == pytest.approx(1.0 / 1e7, rel=1e-6)


def test_unreliable_outage_collapses_without_nack_errors(dl3):
    rhos = [1.0, 0.5, 0.5, 0.5]
    pol = make_policy(rhos, [0.5, 0.5, 0.5])
    rates = feedback_model.FeedbackErrorRates(
        p_nack=(0.0, 0.0, 0.0), p_ack=(0.3, 0.2, 0.1)
    )
    F = mi_model.p_fail_gaussian(rhos, dl3)
    got = harq_analysis.outage_from_failures(
        mi_model.p_fail_gaussian(pol.rhos, dl3), rates.p_nack
    )
    assert got == pytest.approx(F[-1], rel=1e-12)


def test_unreliable_outage_certain_first_flip(dl3):
    rhos = [1.0, 1.0]
    pol = make_policy(rhos, [0.0])
    rates = feedback_model.FeedbackErrorRates(p_nack=(1.0,), p_ack=(0.0,))
    F = mi_model.p_fail_gaussian(rhos, dl3)
    expect = 1.0 - (1.0 - F[0]) * (1.0 - F[1])
    got = harq_analysis.outage_from_failures(
        mi_model.p_fail_gaussian(pol.rhos, dl3), rates.p_nack
    )
    assert got == pytest.approx(expect, rel=1e-12)


def test_unreliable_outage_matches_direct_transcription(dl3):
    rhos = [1.25, 0.5, 0.75, 0.25]
    alphas = (0.3, 0.7, 1.1)
    pol = make_policy(rhos, alphas)
    fb = feedback_model.make_feedback_spec(-10.0)
    rates = feedback_model.error_rates_for(fb, alphas)
    F = mi_model.p_fail_gaussian(rhos, dl3)
    want = outage_sequential_form(F, rates.p_nack)
    got = harq_analysis.outage_from_failures(
        mi_model.p_fail_gaussian(pol.rhos, dl3), rates.p_nack
    )
    assert got == pytest.approx(want, rel=1e-13)


def test_occurrence_perfect_feedback_reduces_to_failures(dl3):
    rhos = [1.0, 0.5, 0.5, 0.5]
    pol = make_policy(rhos, [0.0] * 3)
    zero = feedback_model.FeedbackErrorRates(p_nack=(0.0,) * 3, p_ack=(0.0,) * 3)
    F = mi_model.p_fail_gaussian(rhos, dl3)
    P = harq_analysis.occurrence_probabilities(
        mi_model.p_fail_gaussian(pol.rhos, dl3), zero.p_nack, zero.p_ack
    )
    np.testing.assert_allclose(P, np.concatenate([[1.0], F[:-1]]), rtol=1e-13)


def test_occurrence_pure_missed_ack():
    # decoding always succeeds; only a missed ACK can cause round 2
    P = harq_analysis.occurrence_probabilities(
        np.array([0.0, 0.0]), np.array([0.05]), np.array([0.23])
    )
    assert P[0] == 1.0
    assert P[1] == pytest.approx(0.23, rel=1e-15)


def test_occurrence_matches_success_time_partition(dl3):
    rhos = [1.25, 0.5, 0.75, 0.25]
    alphas = (0.3, 0.7, 1.1)
    fb = feedback_model.make_feedback_spec(-10.0)
    rates = feedback_model.error_rates_for(fb, alphas)
    F = mi_model.p_fail_gaussian(rhos, dl3)
    got = harq_analysis.occurrence_probabilities(F, rates.p_nack, rates.p_ack)
    want = occurrence_by_success_time(F, rates.p_nack, rates.p_ack)
    np.testing.assert_allclose(got, want, rtol=1e-13)


@pytest.mark.parametrize("m", range(1, 7))
def test_occurrence_matches_nested_reference_bit_for_bit(m):
    # the carried decoded-at-round-k terms multiply in the order of the
    # nested rebuild: a single vector, a table against one error pair per
    # feedback, and one vector against a batch of pairs
    rng = np.random.default_rng(600 + m)
    table = np.sort(rng.uniform(0.0, 1.0, size=(50, m)), axis=1)[:, ::-1]
    pn = rng.uniform(0.0, 0.3, size=(50, m - 1))
    pa = rng.uniform(0.0, 0.6, size=(50, m - 1))
    for F, p_nack, p_ack in ((table[0], pn[0], pa[0]), (table, pn[0], pa[0]),
                             (table[0], pn, pa)):
        got = harq_analysis.occurrence_probabilities(F, p_nack, p_ack)
        want = oracles.occurrence_nested(F, p_nack, p_ack)
        assert got.shape == want.shape
        assert np.ascontiguousarray(got).tobytes() == want.tobytes()


def test_formulas_broadcast_over_batched_error_rates(dl3):
    # one failure vector against a (B, M-1) batch of error pairs, as the
    # threshold search probes it: row b equals the call on pair b alone
    rng = np.random.default_rng(77)
    F = mi_model.p_fail_gaussian((0.75, 0.5, 1.0, 0.25), dl3)
    fb = feedback_model.make_feedback_spec(-10.0)
    alphas = rng.uniform(-0.5, 3.5, size=(64, 3))
    pn = feedback_model.nack_error_rate(alphas, fb.snr_linear)
    pa = feedback_model.ack_error_rate(alphas, fb.snr_linear)
    P = harq_analysis.occurrence_probabilities(F, pn, pa)
    out = harq_analysis.outage_from_failures(F, pn)
    assert P.shape == (64, 4) and out.shape == (64,)
    for b, row in enumerate(alphas):
        rates = feedback_model.error_rates_for(fb, tuple(row))
        assert rates.p_nack == tuple(feedback_model.nack_error_rate(float(a), fb.snr_linear)
                                     for a in row)
        np.testing.assert_array_equal(
            P[b], harq_analysis.occurrence_probabilities(F, rates.p_nack, rates.p_ack))
        assert out[b] == harq_analysis.outage_from_failures(F, rates.p_nack)


@pytest.mark.parametrize("rhos_shape, occur_shape, lead", [
    ((2, 2, 3), (2, 3), (2, 2)),
    ((3, 1, 3), (2, 3), (3, 2)),
])
def test_expected_cost_broadcasts_leading_axes_by_numpy_rule(rhos_shape, occur_shape,
                                                             lead):
    # leading axes align from the right, as in any numpy operation: each
    # element equals the call on its own broadcast pair of rows
    rng = np.random.default_rng(5)
    rhos = rng.uniform(0.25, 2.0, size=rhos_shape)
    p_occur = rng.uniform(0.0, 1.0, size=occur_shape)
    cost = harq_analysis.expected_cost(rhos, p_occur)
    assert cost.shape == lead
    r, p = np.broadcast_arrays(rhos, p_occur)
    for idx in np.ndindex(lead):
        assert cost[idx] == harq_analysis.expected_cost(r[idx], p[idx])


def test_expected_symbols_examples(dl3):
    pol = make_policy([0.5, 0.25, 0.25, 0.25], [0.0] * 3)
    assert harq_analysis.expected_symbols(pol, [1, 0, 0, 0]) == pytest.approx(0.5 * 1024)
    assert harq_analysis.expected_symbols(pol, [1, 1, 1, 1]) == pytest.approx(1.25 * 1024)
    got = harq_analysis.expected_symbols(pol, [1.0, 0.4, 0.1, 0.02])
    assert got == pytest.approx(645.12, rel=1e-12)


def test_unreliable_throughput_perfect_feedback_limit(dl3):
    rhos = [1.0, 0.5, 0.5, 0.5]
    alphas = (0.5, 0.5, 0.5)
    pol = make_policy(rhos, alphas)
    fb = feedback_model.make_feedback_spec(200.0)  # error rates underflow to 0
    bd = harq_analysis.unreliable_throughput(pol, dl3, fb)
    assert bd.throughput == pytest.approx(
        harq_analysis.reliable_throughput(pol, dl3), abs=1e-9
    )
    assert bd.p_out_unreliable == pytest.approx(bd.p_out_reliable, abs=1e-15)


def test_stage_outage_zero_nack_rates(dl3):
    rhos = [1.0, 0.5, 0.5, 0.5]
    pol = make_policy(rhos, [0.0] * 3)
    zero = feedback_model.FeedbackErrorRates(p_nack=(0.0,) * 3, p_ack=(0.0,) * 3)
    P = harq_analysis.occurrence_probabilities(
        mi_model.p_fail_gaussian(pol.rhos, dl3), zero.p_nack, zero.p_ack
    )
    stages = harq_analysis._stage_outage(
        mi_model.p_fail_gaussian(pol.rhos, dl3), np.asarray(zero.p_nack), P
    )
    np.testing.assert_allclose(stages[:-1], 0.0, atol=1e-15)
    F = mi_model.p_fail_gaussian(rhos, dl3)
    assert stages[-1] == pytest.approx(F[-1] / P[-1], rel=1e-13)


def test_stage_outage_final_stage_certain_occurrence(dl3):
    pol = make_policy([1.0, 1.0], [0.0])
    zero = feedback_model.FeedbackErrorRates(p_nack=(0.0,), p_ack=(0.0,))
    stages = harq_analysis._stage_outage(
        mi_model.p_fail_gaussian(pol.rhos, dl3), np.asarray(zero.p_nack), [1.0, 1.0]
    )
    F = mi_model.p_fail_gaussian([1.0, 1.0], dl3)
    assert stages[-1] == pytest.approx(F[-1], rel=1e-13)


def test_stage_outage_middle_stage_direct_formula(dl3):
    rhos = [1.25, 0.5, 0.75, 0.25]
    alphas = (0.3, 0.7, 1.1)
    pol = make_policy(rhos, alphas)
    fb = feedback_model.make_feedback_spec(-10.0)
    rates = feedback_model.error_rates_for(fb, alphas)
    P = harq_analysis.occurrence_probabilities(
        mi_model.p_fail_gaussian(pol.rhos, dl3), rates.p_nack, rates.p_ack
    )
    stages = harq_analysis._stage_outage(
        mi_model.p_fail_gaussian(pol.rhos, dl3), np.asarray(rates.p_nack), P
    )
    F = mi_model.p_fail_gaussian(rhos, dl3)
    pn = rates.p_nack
    cum_2 = pn[0] * F[0] + pn[1] * F[1] * (1.0 - pn[0])
    assert stages[1] == pytest.approx(cum_2 / P[1], rel=1e-13)


def test_duplicated_ack_rates_square_the_flip():
    s = 0.1368645588  # symmetric flip probability ~0.1 here
    p = feedback_model.nack_error_rate(0.0, s)
    rates = harq_analysis.duplicated_ack_rates(s, 4)
    assert p == pytest.approx(0.1, abs=1e-6)
    assert all(v == p * p for v in rates.p_nack)
    assert all(v == 1.0 - (1.0 - p) ** 2 for v in rates.p_ack)
    assert len(rates.p_nack) == 3


def test_duplicated_ack_perfect_feedback_matches_standard(dl3):
    rhos = [1.0, 0.5, 0.5, 0.5]
    pol = make_policy(rhos, [0.0] * 3)
    fb = feedback_model.make_feedback_spec(200.0)
    dup = harq_analysis.duplicated_ack_performance(pol, dl3, fb)
    std = harq_analysis.unreliable_throughput(pol, dl3, fb)
    assert dup.throughput == pytest.approx(std.throughput, abs=1e-12)
    assert dup.p_out_unreliable == pytest.approx(std.p_out_unreliable, abs=1e-12)


def test_duplicated_ack_requires_symmetric_detection(dl3):
    pol = make_policy([1.0, 0.5, 0.5, 0.5], [0.5, 0.0, 0.0])
    fb = feedback_model.make_feedback_spec(-10.0)
    with pytest.raises(ValueError):
        harq_analysis.duplicated_ack_performance(pol, dl3, fb)


def test_outage_monotone_in_each_threshold(dl3):
    rhos = [1.0, 0.5, 0.5, 0.5]
    base = [0.4, 0.4, 0.4]
    ladder = np.linspace(0.0, 1.5, 7)
    for coord in range(3):
        prev = math.inf
        for a in ladder:
            alphas = list(base)
            alphas[coord] = a
            fb = feedback_model.make_feedback_spec(-10.0)
            pol = make_policy(rhos, alphas)
            out = harq_analysis.outage_from_failures(
                mi_model.p_fail_gaussian(pol.rhos, dl3),
                feedback_model.error_rates_for(fb, tuple(alphas)).p_nack,
            )
            assert out <= prev + 1e-12
            prev = out


unit_counts = st.lists(st.integers(1, 16), min_size=4, max_size=4)
alpha_vecs = st.lists(st.floats(0.0, 3.0), min_size=3, max_size=3)


@settings(max_examples=40)
@given(unit_counts, alpha_vecs, st.floats(-15.0, -5.0))
def test_breakdown_invariants(units, alphas, snr_u):
    dl = mi_model.make_downlink_spec(3.0)
    pol = make_policy([u * UNIT for u in units], alphas)
    fb = feedback_model.make_feedback_spec(snr_u)
    bd = harq_analysis.unreliable_throughput(pol, dl, fb)
    for vec in (bd.p_fail, bd.p_occur):
        assert all(0.0 <= v <= 1.0 for v in vec)
    # stage ratios can top 1 in the near-certain-failure corner
    assert all(v >= 0.0 for v in bd.p_out_stage)
    assert bd.p_occur[0] == 1.0
    assert 0.0 <= bd.p_out_unreliable <= 1.0
    assert bd.p_out_unreliable >= bd.p_out_reliable - 1e-15
    assert bd.throughput <= dl.mean_mi
    assert bd.expected_symbols > 0.0


@settings(max_examples=40)
@given(unit_counts, st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
       st.floats(-15.0, -5.0))
def test_occurrence_nonincreasing_when_acks_mostly_heard(units, alphas, snr_u):
    # alpha <= 1 keeps the ACK miss rate at or below one half
    dl = mi_model.make_downlink_spec(3.0)
    pol = make_policy([u * UNIT for u in units], alphas)
    fb = feedback_model.make_feedback_spec(snr_u)
    rates = feedback_model.error_rates_for(fb, tuple(alphas))
    assert all(p <= 0.5 for p in rates.p_ack)
    P = harq_analysis.occurrence_probabilities(
        mi_model.p_fail_gaussian(pol.rhos, dl), rates.p_nack, rates.p_ack
    )
    assert np.all(np.diff(P) <= 1e-12)
