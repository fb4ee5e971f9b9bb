"""Episode-level protocol logic, checked on the scalar oracle run_episode
(tests/oracles.py), and the vectorized estimator in every feedback mode."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from harqopt import feedback_model, harq_analysis, mc_simulator, mi_model

import oracles


class ScriptedRng:
    """Deterministic stand-in: pops pre-queued exponential/uniform draws."""

    def __init__(self, gains, uniforms=()):
        self._gains = list(gains)
        self._uniforms = list(uniforms)

    def exponential(self):
        return self._gains.pop(0)

    def random(self):
        return self._uniforms.pop(0)


def make_policy(rhos, alphas):
    return harq_analysis.HarqPolicy(rhos=tuple(rhos), alphas=tuple(alphas), n_b=1024)


@pytest.fixture(scope="module")
def fb_weak():
    return feedback_model.make_feedback_spec(-10.0)


def test_run_episode_immediate_success(dl3, fb_weak):
    pol = make_policy((1.0, 1.0, 1.0, 1.0), (0.5, 0.5, 0.5))
    # decode after round one, feedback survives (uniform above any error rate)
    rng = ScriptedRng(gains=[1e9], uniforms=[0.999])
    out = oracles.run_episode(pol, dl3, fb_weak, rng)
    assert out.rounds_used == 1 and out.delivered and not out.outage
    assert out.symbols_spent == pytest.approx(1024.0)
    assert out.feedback_events == (("ACK", "ACK"),)


def test_run_episode_exhausts_rounds(dl3, fb_weak):
    pol = make_policy((1.0, 1.0, 1.0, 1.0), (0.5, 0.5, 0.5))
    rng = ScriptedRng(gains=[0.0] * 4, uniforms=[0.999] * 3)
    out = oracles.run_episode(pol, dl3, fb_weak, rng)
    assert out.rounds_used == 4 and out.outage and not out.delivered
    assert out.symbols_spent == pytest.approx(4 * 1024.0)
    assert out.feedback_events == (("NACK", "NACK"),) * 3


def test_run_episode_premature_stop_on_flipped_nack(dl3, fb_weak):
    pol = make_policy((1.0, 1.0, 1.0, 1.0), (0.5, 0.5, 0.5))
    # uniform 0.0 is below every positive error rate, so the NACK flips
    rng = ScriptedRng(gains=[0.0], uniforms=[0.0])
    out = oracles.run_episode(pol, dl3, fb_weak, rng)
    assert out.rounds_used == 1 and out.outage
    assert out.feedback_events == (("NACK", "ACK"),)


def test_run_episode_rejects_unknown_mode(dl3, fb_weak):
    pol = make_policy((1.0,) * 4, (0.5,) * 3)
    with pytest.raises(ValueError):
        oracles.run_episode(pol, dl3, fb_weak, ScriptedRng([]), "oracle")


def test_run_episode_accounting_over_random_draws(dl3, fb_weak, rng):
    pol = make_policy((0.5, 0.75, 1.0, 0.25), (0.2, 0.6, 1.1))
    for _ in range(200):
        out = oracles.run_episode(pol, dl3, fb_weak, rng)
        assert 1 <= out.rounds_used <= 4
        assert out.outage == (not out.delivered)
        spent = 1024.0 * sum(pol.rhos[: out.rounds_used])
        assert out.symbols_spent == pytest.approx(spent)
        if out.rounds_used < 4:
            assert out.feedback_events[-1][1] == "ACK"
            assert len(out.feedback_events) == out.rounds_used
        else:
            assert len(out.feedback_events) == 3
            assert all(d == "NACK" for _, d in out.feedback_events)


def test_estimate_min_episode_guard(dl3, fb_weak):
    pol = make_policy((1.0,) * 4, (0.5,) * 3)
    with pytest.raises(ValueError):
        mc_simulator.estimate_performance(pol, dl3, fb_weak, 100, seed=1)
    with pytest.raises(ValueError):
        mc_simulator.estimate_performance(pol, dl3, fb_weak, 10_000, seed=1,
                                          feedback_mode="oracle")


# n spans two chunks, the last one partial
_TWO_CHUNKS = mc_simulator._CHUNK + 10_000


def _estimate(mode, pol, dl, fb, n, seed):
    """estimate_performance in the given mode; the duplicated-ACK mode
    detects with zero thresholds."""
    if mode == mc_simulator.DUPLICATED_ACK:
        pol = dataclasses.replace(pol, alphas=(0.0,) * len(pol.alphas))
    return mc_simulator.estimate_performance(pol, dl, fb, n, seed, feedback_mode=mode)


@pytest.mark.parametrize("mode", mc_simulator.FEEDBACK_MODES)
def test_estimate_deterministic_in_seed(dl3, fb_weak, mode):
    pol = make_policy((0.5, 0.75, 1.0, 0.25), (0.2, 0.6, 1.1))
    a = _estimate(mode, pol, dl3, fb_weak, _TWO_CHUNKS, seed=99)
    b = _estimate(mode, pol, dl3, fb_weak, _TWO_CHUNKS, seed=99)
    assert a == b
    c = _estimate(mode, pol, dl3, fb_weak, _TWO_CHUNKS, seed=100)
    assert c != a


def test_chunk_rng_is_the_spawned_child_stream():
    # chunk i draws from SFC64 seeded by the i-th child SeedSequence(seed)
    # spawns; every seed >= 0 is accepted, also those of 2^128 and more
    for seed in (0, 7, 2**128, 3**90):
        children = np.random.SeedSequence(seed).spawn(3)
        for i, child in enumerate(children):
            want = np.random.Generator(np.random.SFC64(child)).random(8)
            assert np.array_equal(mc_simulator._chunk_rng(seed, i).random(8), want)
    firsts = {mc_simulator._chunk_rng(seed, i).random()
              for seed in (0, 1, 2**64, 2**128) for i in range(4)}
    assert len(firsts) == 16


class _CountingRng:
    """Wraps a generator and logs the name and result shape of every draw."""

    def __init__(self, rng, draws):
        self._rng = rng
        self._draws = draws

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def draw(*args, **kwargs):
            out = method(*args, **kwargs)
            self._draws.append((name, np.shape(out)))
            return out

        return draw


@pytest.fixture()
def chunk_draws(monkeypatch):
    """One list of (draw name, result shape) per chunk the simulator runs."""
    chunks = []
    chunk_rng = mc_simulator._chunk_rng

    def counting_rng(seed, chunk_index):
        chunks.append([])
        return _CountingRng(chunk_rng(seed, chunk_index), chunks[-1])

    monkeypatch.setattr(mc_simulator, "_chunk_rng", counting_rng)
    return chunks


def _feedback_block_sizes(mode, draws):
    """Episodes drawn for in each feedback round of one chunk's draws, after
    checking that each round draws one block of the mode's shape."""
    if mode == mc_simulator.SYMBOL_LEVEL:
        # the 6 real parts the detector statistic reads, per trial
        name, tail = "standard_normal", (6,)
    else:
        name, tail = "random", (2,) if mode == mc_simulator.DUPLICATED_ACK else ()
    assert all(d == name and shape[1:] == tail for d, shape in draws)
    return [shape[0] for _, shape in draws]


@pytest.mark.parametrize("mode", mc_simulator.FEEDBACK_MODES)
def test_feedback_draws_only_for_live_episodes(chunk_draws, dl3, fb_weak, mode):
    # each chunk draws its gains for every episode, then one feedback block
    # per round sized to the episodes still running: summed over chunks,
    # the block of round j holds exactly the episodes that reached round j
    pol = make_policy((0.5, 0.75, 1.0, 0.25), (0.2, 0.6, 1.1))
    n = _TWO_CHUNKS
    est = _estimate(mode, pol, dl3, fb_weak, n, seed=41)
    assert len(chunk_draws) == 2
    live = [0, 0, 0]
    for c, draws in zip((mc_simulator._CHUNK, n - mc_simulator._CHUNK), chunk_draws):
        assert draws[0] == ("standard_exponential", (4, c))
        sizes = _feedback_block_sizes(mode, draws[1:])
        assert len(sizes) == 3 and sizes[0] == c
        assert sizes == sorted(sizes, reverse=True)
        live = [a + b for a, b in zip(live, sizes)]
    assert live == [round(p * n) for p in est.p_occur[:3]]


@pytest.mark.parametrize("mode", mc_simulator.FEEDBACK_MODES)
def test_no_feedback_draws_once_every_episode_stopped(chunk_draws, mode):
    # round 1 always decodes and the uplink is error-free, so every episode
    # stops at the first feedback and the second has no one to draw for
    dl = mi_model.make_downlink_spec(10.0)
    pol = harq_analysis.HarqPolicy(rhos=(1e10, 1.0, 1.0), alphas=(0.0, 0.0), n_b=1)
    fb = feedback_model.make_feedback_spec(200.0)
    est = _estimate(mode, pol, dl, fb, 10_000, seed=5)
    assert est.p_occur == (1.0, 0.0, 0.0)
    assert est.p_out == 0.0
    [draws] = chunk_draws
    assert _feedback_block_sizes(mode, draws[1:]) == [10_000]


def _replay(policy, dl, fb, n, seed, mode):
    """Episode-by-episode reference on each chunk's own stream: the (M, c)
    round-major gains, then per feedback round one block for the live
    episodes in episode order, with every episode's rounds and delivery
    kept. Returns the estimate's count-based fields and its two throughput
    fields."""
    m = policy.m_max
    rhos = np.asarray(policy.rhos)
    rates = feedback_model.error_rates_for(fb, policy.alphas)
    p_slot = feedback_model.nack_error_rate(0.0, fb.snr_linear)
    rounds, delivered, fails = [], [], np.zeros(m)
    for index, start in enumerate(range(0, n, mc_simulator._CHUNK)):
        c = min(mc_simulator._CHUNK, n - start)
        rng = mc_simulator._chunk_rng(seed, index)
        gains = rng.exponential(size=(m, c)).T  # round-major draw
        mi = np.cumsum(np.log2(gains * dl.snr_linear + 1.0) * rhos, axis=1)
        decoded = mi >= 1.0
        fails += c - decoded.sum(axis=0)
        used = np.ones(c, dtype=np.int64)
        live = np.arange(c)
        for j in range(m - 1):
            if live.size == 0:
                break
            sent = decoded[live, j]
            if mode == mc_simulator.ANALYTIC_FLIP:
                p_err = np.where(sent, rates.p_ack[j], rates.p_nack[j])
                det = sent != (rng.random(live.size) < p_err)
            elif mode == mc_simulator.SYMBOL_LEVEL:
                det = feedback_model.detect_batch(sent, policy.alphas[j], fb.snr_linear,
                                                  live.size, rng)
            else:
                flip = rng.random((live.size, 2)) < p_slot
                det = np.where(sent, ~flip.any(axis=1), flip.all(axis=1))
            live = live[~det]
            used[live] += 1
        rounds.append(used)
        delivered.append(decoded[np.arange(c), used - 1])
    rounds = np.concatenate(rounds)
    delivered = np.concatenate(delivered)
    symbols = policy.n_b * np.cumsum(rhos)[rounds - 1]
    sx, sy = float(delivered.sum()), float(symbols.sum())
    sxy, syy = float(symbols[delivered].sum()), float((symbols * symbols).sum())
    ratio = sx / sy
    resid = sx - 2.0 * ratio * sxy + ratio * ratio * syy
    return {
        "p_occur": tuple(float(np.count_nonzero(rounds > k) / n) for k in range(m)),
        "p_fail": tuple(float(f / n) for f in fails),
        "p_out": (n - sx) / n,
        "throughput": policy.n_b * ratio,
        "throughput_se": policy.n_b * math.sqrt(max(resid, 0.0)) / sy,
    }


_REPLAY_CASES = [
    # (snr_d_db, snr_u_db, rhos, alphas, n_b, n); n_b * cumsum(rhos) are
    # integers for n_b 1024 and not for n_b 777
    (3.0, -10.0, (1.0,) * 4, (0.5,) * 3, 1024, _TWO_CHUNKS),
    (3.0, -10.0, (0.3, 0.6, 0.9), (0.2, 1.1), 777, _TWO_CHUNKS),
    (3.0, -10.0, (0.75,), (), 777, 10_000),
    # the uplink always reads ACK, so every episode stops at round 1 (in
    # the duplicated-ACK mode, whose thresholds are zero, the uplink is
    # error-free)
    (3.0, 200.0, (0.5, 0.75, 1.0), (-3.0, -3.0), 1024, 10_000),
]


@pytest.mark.parametrize("mode", mc_simulator.FEEDBACK_MODES)
@pytest.mark.parametrize("snr_d, snr_u, rhos, alphas, n_b, n", _REPLAY_CASES)
def test_estimate_matches_episode_replay(mode, snr_d, snr_u, rhos, alphas, n_b, n):
    pol = harq_analysis.HarqPolicy(rhos=rhos, alphas=alphas, n_b=n_b)
    if mode == mc_simulator.DUPLICATED_ACK:
        pol = dataclasses.replace(pol, alphas=(0.0,) * len(alphas))
    dl = mi_model.make_downlink_spec(snr_d)
    fb = feedback_model.make_feedback_spec(snr_u)
    est = mc_simulator.estimate_performance(pol, dl, fb, n, seed=13, feedback_mode=mode)
    ref = _replay(pol, dl, fb, n, 13, mode)
    if any(a < -1.0 for a in pol.alphas):
        assert ref["p_occur"][1:] == (0.0,) * (len(rhos) - 1)
    assert (est.p_occur, est.p_fail, est.p_out) == (ref["p_occur"], ref["p_fail"],
                                                  ref["p_out"])
    symbols = n_b * np.cumsum(rhos)
    if np.array_equal(symbols, np.round(symbols)):
        assert (est.throughput, est.throughput_se) == (ref["throughput"],
                                                       ref["throughput_se"])
    else:
        assert est.throughput == pytest.approx(ref["throughput"], rel=1e-12, abs=0.0)
        assert est.throughput_se == pytest.approx(ref["throughput_se"], rel=1e-12, abs=0.0)


def test_estimate_peak_memory_below_two_and_a_half_gain_blocks(dl3, fb_weak):
    # one chunk's (4, c) float64 gain block is 4 MiB; two full chunks must
    # not hold a second block, nor per-episode arrays beside the first
    pol = make_policy((1.0,) * 4, (0.5,) * 3)
    block = mc_simulator._CHUNK * 4 * np.dtype(np.float64).itemsize
    tracemalloc.start()
    try:
        mc_simulator.estimate_performance(pol, dl3, fb_weak, 2 * mc_simulator._CHUNK, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * block


def test_estimate_single_round_sure_delivery():
    dl = mi_model.make_downlink_spec(10.0)
    # one giant-rate round: failure odds ~ ln2/(rho*snr), negligible at 1e10
    pol = harq_analysis.HarqPolicy(rhos=(1e10,), alphas=(), n_b=1)
    fb = feedback_model.make_feedback_spec(0.0)
    est = mc_simulator.estimate_performance(pol, dl, fb, 10_000, seed=5)
    assert est.p_out == 0.0
    assert est.throughput == 1e-10
    assert est.throughput_se == 0.0
    assert est.p_occur == (1.0,)
    assert est.p_fail == (0.0,)


def test_estimate_matches_analytic_closure(dl3, fb_weak):
    pol = make_policy((0.5, 0.75, 1.0, 0.25), (0.5, 0.5, 0.5))
    bd = harq_analysis.unreliable_throughput(pol, dl3, fb_weak,
                                             bins=mi_model.DEFAULT_CONV_BINS)
    n = 100_000
    est = mc_simulator.estimate_performance(pol, dl3, fb_weak, n, seed=20260815)
    assert abs(est.p_out - bd.p_out_unreliable) <= 3.0 * est.p_out_se
    assert abs(est.throughput - bd.throughput) <= 3.0 * est.throughput_se
    for k in range(4):
        assert abs(est.p_occur[k] - bd.p_occur[k]) <= max(3.0 * est.p_occur_se[k], 1e-12)
        assert abs(est.p_fail[k] - bd.p_fail[k]) <= max(3.0 * est.p_fail_se[k], 2e-4)


def test_estimate_perfect_feedback_matches_reliable_closure(dl3):
    alphas = (0.5, 0.5, 0.5)
    pol = make_policy((0.5, 0.75, 1.0, 0.25), alphas)
    fb = feedback_model.make_feedback_spec(200.0)
    eta = harq_analysis.reliable_throughput(pol, dl3, bins=mi_model.DEFAULT_CONV_BINS)
    f_last = mi_model.p_fail_convolution(pol.rhos, dl3)[-1]
    est = mc_simulator.estimate_performance(pol, dl3, fb, 100_000, seed=31)
    assert abs(est.throughput - eta) <= 3.0 * est.throughput_se
    assert abs(est.p_out - f_last) <= 3.0 * est.p_out_se


def test_symbol_level_agrees_with_analytic_flip(dl3, fb_weak):
    pol = make_policy((0.5, 0.75, 1.0, 0.25), (0.5, 0.5, 0.5))
    n = 100_000
    a = mc_simulator.estimate_performance(pol, dl3, fb_weak, n, seed=7,
                                          feedback_mode="analytic-flip")
    s = mc_simulator.estimate_performance(pol, dl3, fb_weak, n, seed=8,
                                          feedback_mode="symbol-level")
    se = math.hypot(a.p_out_se, s.p_out_se)
    assert abs(a.p_out - s.p_out) <= 3.0 * se
    se = math.hypot(a.throughput_se, s.throughput_se)
    assert abs(a.throughput - s.throughput) <= 3.0 * se


def test_forced_continuation_failure_frequencies(dl3, fb_weak):
    # p_fail counts decoder failures along every fading path through all
    # rounds, so it must track the prefix-failure curve even though most
    # episodes stop early
    pol = make_policy((0.5, 0.75, 1.0, 0.25), (0.0, 0.0, 0.0))
    fb = feedback_model.make_feedback_spec(-10.0)
    target = mi_model.p_fail_convolution(pol.rhos, dl3)
    est = mc_simulator.estimate_performance(pol, dl3, fb, 100_000, seed=12)
    for k in range(4):
        assert abs(est.p_fail[k] - target[k]) <= max(3.0 * est.p_fail_se[k], 2e-4)


def test_duplicated_ack_requires_zero_thresholds(dl3, fb_weak):
    pol = make_policy((1.0,) * 4, (0.5, 0.0, 0.0))
    with pytest.raises(ValueError):
        mc_simulator.estimate_performance(pol, dl3, fb_weak, 10_000, seed=1,
                                          feedback_mode="duplicated-ack")


def test_duplicated_ack_reduces_to_plain_under_perfect_feedback(dl3):
    # with error-free slots both stop rules behave identically and the two
    # estimators share the fading stream, so every field must coincide
    pol = make_policy((0.5, 0.75, 1.0, 0.25), (0.0, 0.0, 0.0))
    fb = feedback_model.make_feedback_spec(200.0)
    a = mc_simulator.estimate_performance(pol, dl3, fb, 50_000, seed=17)
    d = mc_simulator.estimate_performance(pol, dl3, fb, 50_000, seed=17,
                                          feedback_mode="duplicated-ack")
    assert a == d


def test_duplicated_ack_premature_stop_squares_slot_error():
    dl = mi_model.make_downlink_spec(10.0)
    # round 1 never decodes, round 2 always does; the only outage path is a
    # double slot flip of the first NACK, probability p^2
    pol = harq_analysis.HarqPolicy(rhos=(1e-6, 1e10), alphas=(0.0,), n_b=1)
    s = 0.1368645588
    fb = feedback_model.make_feedback_spec(10.0 * math.log10(s))
    p = feedback_model.nack_error_rate(0.0, s)
    assert p == pytest.approx(0.1, abs=1e-6)
    est = mc_simulator.estimate_performance(pol, dl, fb, 1_000_000, seed=23,
                                            feedback_mode="duplicated-ack")
    assert abs(est.p_out - p * p) <= 3.0 * est.p_out_se
    assert est.p_occur[0] == 1.0
    assert abs(est.p_occur[1] - (1.0 - p * p)) <= 3.0 * est.p_occur_se[1]
