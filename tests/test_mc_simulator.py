"""Episode-level protocol logic, checked on the scalar oracle run_episode
(tests/oracles.py), and the vectorized estimator in every feedback mode on
the one- and two-slot specs."""

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


@pytest.mark.parametrize("mode", mc_simulator.FEEDBACK_MODES)
def test_run_episode_two_slot_premature_stop_squares_slot_error(rng, mode):
    # round 1 never decodes and round 2 always does, so an episode is in
    # outage exactly when its first NACK reads ACK: on the two-slot spec
    # both slots must flip, probability p^2, not the one-slot p
    dl = mi_model.make_downlink_spec(10.0)
    pol = harq_analysis.HarqPolicy(rhos=(1e-6, 1e10), alphas=(0.0,), n_b=1)
    s = 0.1368645588
    fb = feedback_model.make_feedback_spec(10.0 * math.log10(s), slots=2)
    p = feedback_model.nack_error_rate(0.0, s)
    assert p == pytest.approx(0.1, abs=1e-6)
    n = 4000
    outages = sum(oracles.run_episode(pol, dl, fb, rng, mode).outage for _ in range(n))
    assert abs(outages / n - p * p) <= 4.0 * math.sqrt(p * p * (1.0 - p * p) / n)


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
    # the CLI's duplicated-ack is symbol-level on the two-slot spec, not a
    # mode of the simulator
    for mode in ("oracle", "duplicated-ack"):
        with pytest.raises(ValueError, match="unknown feedback_mode"):
            mc_simulator.estimate_performance(pol, dl3, fb_weak, 10_000, seed=1,
                                              feedback_mode=mode)


# n spans two chunks, the last one partial
_TWO_CHUNKS = mc_simulator._CHUNK + 10_000


# test id -> (feedback mode, spec slots): every mode on both specs. The
# two-slot spec is the duplicated-ACK baseline, and symbol-level draws on
# it are what the CLI's duplicated-ack runs, hence that id
_SCHEMES = {
    mc_simulator.ANALYTIC_FLIP: (mc_simulator.ANALYTIC_FLIP, 1),
    mc_simulator.SYMBOL_LEVEL: (mc_simulator.SYMBOL_LEVEL, 1),
    "two-slot-analytic-flip": (mc_simulator.ANALYTIC_FLIP, 2),
    "duplicated-ack": (mc_simulator.SYMBOL_LEVEL, 2),
}


def _estimate(scheme, pol, dl, fb, n, seed):
    """estimate_performance in the scheme's mode on fb with its slots."""
    mode, slots = _SCHEMES[scheme]
    return mc_simulator.estimate_performance(pol, dl, dataclasses.replace(fb, slots=slots),
                                             n, seed, feedback_mode=mode)


@pytest.mark.parametrize("scheme", _SCHEMES)
def test_estimate_deterministic_in_seed(dl3, fb_weak, scheme):
    pol = make_policy((0.5, 0.75, 1.0, 0.25), (0.2, 0.6, 1.1))
    a = _estimate(scheme, pol, dl3, fb_weak, _TWO_CHUNKS, seed=99)
    b = _estimate(scheme, pol, dl3, fb_weak, _TWO_CHUNKS, seed=99)
    assert a == b
    c = _estimate(scheme, pol, dl3, fb_weak, _TWO_CHUNKS, seed=100)
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
    """Wraps a generator and logs every draw: its name, the shape of its
    result and its positional arguments."""

    def __init__(self, rng, draws):
        self._rng = rng
        self._draws = draws

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def draw(*args, **kwargs):
            out = method(*args, **kwargs)
            self._draws.append((name, np.shape(out), args))
            return out

        return draw


@pytest.fixture()
def chunk_draws(monkeypatch):
    """One list of (draw name, result shape, arguments) per chunk the
    simulator runs."""
    chunks = []
    chunk_rng = mc_simulator._chunk_rng

    def counting_rng(seed, chunk_index):
        chunks.append([])
        return _CountingRng(chunk_rng(seed, chunk_index), chunks[-1])

    monkeypatch.setattr(mc_simulator, "_chunk_rng", counting_rng)
    return chunks


def _split_draws(scheme, draws, m):
    """One chunk's draws as (gain block sizes, feedback group sizes), after
    checking that the first m draws are the rounds' exponential gains and
    every later one a feedback block of the mode's shape. A group of
    episodes gets one binomial, whose n is its size, in the analytic-flip
    mode, and one block of trials per slot, all of its size, in the
    symbol-level mode."""
    mode, slots = _SCHEMES[scheme]
    gains = []
    for name, shape, _ in draws[:m]:
        assert name == "standard_exponential" and len(shape) == 1
        gains.append(shape[0])
    if mode == mc_simulator.ANALYTIC_FLIP:
        assert all(name == "binomial" and shape == () for name, shape, _ in draws[m:])
        return gains, [args[0] for _, _, args in draws[m:]]
    # the 6 real parts the detector statistic reads, per trial
    assert all(name == "standard_normal" and shape[1:] == (6,)
               for name, shape, _ in draws[m:])
    blocks = [shape[0] for _, shape, _ in draws[m:]]
    groups = blocks[::slots]
    assert blocks == [size for size in groups for _ in range(slots)]
    return gains, groups


@pytest.mark.parametrize("scheme", _SCHEMES)
def test_feedback_draws_only_for_live_episodes(chunk_draws, dl3, fb_weak, scheme):
    # round j draws gains only for the episodes still undecoded after round
    # j - 1; each feedback round then draws for each group of episodes that
    # first decode at the same round (1..4, never), sized to those still
    # running. At this policy every group is nonempty and keeps running
    # episodes through round 3, so each round draws for 5 groups
    pol = make_policy((0.5, 0.75, 1.0, 0.25), (0.2, 0.6, 1.1))
    n = _TWO_CHUNKS
    est = _estimate(scheme, pol, dl3, fb_weak, n, seed=41)
    assert len(chunk_draws) == 2
    undecoded = [0, 0, 0]
    never = 0
    live = np.zeros(3, dtype=np.int64)
    for c, draws in zip((mc_simulator._CHUNK, n - mc_simulator._CHUNK), chunk_draws):
        gains, blocks = _split_draws(scheme, draws, 4)
        assert gains[0] == c
        assert gains == sorted(gains, reverse=True)
        undecoded = [a + b for a, b in zip(undecoded, gains[1:])]
        assert len(blocks) == 3 * 5
        rounds = np.array(blocks).reshape(3, 5)
        # round 1's blocks are the groups: those decoding at rounds 1-3 as
        # the gain draws tell, then round 4's and the never-decoded
        assert list(rounds[0, :3]) == [a - b for a, b in zip(gains, gains[1:])]
        assert rounds[0, 3] + rounds[0, 4] == gains[3]
        never += rounds[0, 4]
        assert np.all(np.diff(rounds, axis=0) <= 0)
        live += rounds.sum(axis=1)
    assert undecoded == [round(p * n) for p in est.p_fail[:3]]
    assert never == round(est.p_fail[3] * n)
    assert list(live) == [round(p * n) for p in est.p_occur[:3]]


@pytest.mark.parametrize("scheme", _SCHEMES)
def test_no_feedback_draws_once_every_episode_stopped(chunk_draws, scheme):
    # the uplink is error-free. Round 1 always decodes, so every episode
    # stops at the first feedback, later rounds draw no gains and the
    # second feedback has no one to draw for. Then no episode decodes
    # before round 3, so every gain round is full and each feedback round
    # draws for the one group, all of it
    dl = mi_model.make_downlink_spec(10.0)
    fb = feedback_model.make_feedback_spec(200.0)
    cases = [((1e10, 1.0, 1.0), (1.0, 0.0, 0.0), [10_000, 0, 0], [10_000]),
             ((1e-6, 1e-6, 1e10), (1.0, 1.0, 1.0), [10_000] * 3, [10_000] * 2)]
    for rhos, occur, gains, blocks in cases:
        chunk_draws.clear()
        pol = harq_analysis.HarqPolicy(rhos=rhos, alphas=(0.0, 0.0), n_b=1)
        est = _estimate(scheme, pol, dl, fb, 10_000, seed=5)
        assert est.p_occur == occur
        assert est.p_out == 0.0
        [draws] = chunk_draws
        assert _split_draws(scheme, draws, 3) == (gains, blocks)


def _replay(policy, dl, fb, n, seed, mode):
    """Episode-by-episode reference on each chunk's own stream, with every
    episode's first decoding round, rounds and delivery kept. Round by
    round, each chunk draws the gains of its undecoded episodes in episode
    order; then per feedback round it draws one block per group of
    running episodes that first decode at the same round (1..M, never),
    in that order, and stops the block's detected ACKs. The analytic-flip
    mode draws one binomial count per group and stops that many of the
    group's running episodes; the symbol-level mode detects each slot in
    turn and stops the episodes whose every slot reads ACK. Returns the
    estimate's count-based fields and its two throughput fields."""
    m = policy.m_max
    rhos = np.asarray(policy.rhos)
    p_nack, p_ack = oracles.error_pair(fb, policy.alphas)
    rounds, delivered, fails = [], [], np.zeros(m)
    for index, start in enumerate(range(0, n, mc_simulator._CHUNK)):
        c = min(mc_simulator._CHUNK, n - start)
        rng = mc_simulator._chunk_rng(seed, index)
        mi = np.zeros(c)
        first = np.full(c, m)  # first decoding round - 1; m: never
        for j in range(m):
            left = np.flatnonzero(first == m)
            gains = rng.exponential(size=left.size)
            mi[left] += np.log2(gains * dl.snr_linear + 1.0) * rhos[j]
            first[left[mi[left] >= 1.0]] = j
            fails[j] += np.count_nonzero(first == m)
        running = np.ones(c, dtype=bool)
        used = np.ones(c, dtype=np.int64)
        for j in range(m - 1):
            for d in range(m + 1):
                group = np.flatnonzero(running & (first == d))
                if group.size == 0:
                    continue
                sent = d <= j
                if mode == mc_simulator.ANALYTIC_FLIP:
                    p_stop = 1.0 - p_ack[j] if sent else p_nack[j]
                    stop = np.arange(group.size) < rng.binomial(group.size, p_stop)
                else:
                    stop = np.ones(group.size, dtype=bool)
                    for _ in range(fb.slots):
                        stop &= feedback_model.detect_batch(sent, policy.alphas[j],
                                                            fb.snr_linear, group.size, rng)
                running[group[stop]] = False
            used[running] += 1
        rounds.append(used)
        delivered.append(first < used)
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
    # the uplink always reads ACK, so every episode stops at round 1
    (3.0, 200.0, (0.5, 0.75, 1.0), (-3.0, -3.0), 1024, 10_000),
]


@pytest.mark.parametrize("scheme", _SCHEMES)
@pytest.mark.parametrize("snr_d, snr_u, rhos, alphas, n_b, n", _REPLAY_CASES)
def test_estimate_matches_episode_replay(scheme, snr_d, snr_u, rhos, alphas, n_b, n):
    pol = harq_analysis.HarqPolicy(rhos=rhos, alphas=alphas, n_b=n_b)
    dl = mi_model.make_downlink_spec(snr_d)
    mode, slots = _SCHEMES[scheme]
    fb = feedback_model.make_feedback_spec(snr_u, slots=slots)
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


def test_estimate_peak_memory_below_one_gain_block(dl3, fb_weak):
    # one chunk's (4, c) float64 gain block, which the estimator no longer
    # forms, is 4 MiB; two full chunks must stay below it: the per-chunk
    # buffers are one length-c row each, and no per-episode array is kept
    pol = make_policy((1.0,) * 4, (0.5,) * 3)
    block = mc_simulator._CHUNK * 4 * np.dtype(np.float64).itemsize
    # a first call imports what SeedSequence loads lazily (about 1 MiB of
    # modules), which is not the estimator's memory
    mc_simulator.estimate_performance(pol, dl3, fb_weak, 10_000, seed=3)
    tracemalloc.start()
    try:
        mc_simulator.estimate_performance(pol, dl3, fb_weak, 2 * mc_simulator._CHUNK, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < block


@pytest.mark.parametrize("mode", mc_simulator.FEEDBACK_MODES)
def test_single_round_estimate_draws_no_feedback(mode):
    # with one round there is no feedback to draw, so both slot counts give
    # the same estimate, whose outage is the failure frequency
    dl = mi_model.make_downlink_spec(3.0)
    pol = harq_analysis.HarqPolicy(rhos=(1.5,), alphas=(), n_b=1024)
    one, two = (mc_simulator.estimate_performance(
        pol, dl, feedback_model.make_feedback_spec(-10.0, slots=slots), 20_000, 3, mode)
        for slots in (1, 2))
    assert one == two
    assert one.p_occur == (1.0,) and one.p_out == one.p_fail[0] > 0.0


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


@pytest.mark.parametrize("mode", mc_simulator.FEEDBACK_MODES)
def test_two_slot_simulation_matches_analysis_at_nonzero_thresholds(dl3, mode):
    # each slot is thresholded at the round's alpha and a stop needs two
    # ACK reads, so both modes sample the two-slot spec's error rates
    pol = make_policy((0.5, 0.75, 1.0, 0.25), (0.3, 0.6, 0.9))
    fb = feedback_model.make_feedback_spec(-12.0, slots=2)
    bd = harq_analysis.unreliable_throughput(pol, dl3, fb, bins=mi_model.DEFAULT_CONV_BINS)
    est = mc_simulator.estimate_performance(pol, dl3, fb, 200_000, seed=29,
                                            feedback_mode=mode)
    assert abs(est.p_out - bd.p_out_unreliable) <= 4.0 * est.p_out_se
    assert abs(est.throughput - bd.throughput) <= 4.0 * est.throughput_se
    for k in range(1, 4):
        assert abs(est.p_occur[k] - bd.p_occur[k]) <= 4.0 * est.p_occur_se[k]


def test_duplicated_ack_reduces_to_plain_under_perfect_feedback(dl3):
    # with error-free slots both stop rules behave identically and the two
    # estimators share the fading stream, so every field must coincide
    pol = make_policy((0.5, 0.75, 1.0, 0.25), (0.0, 0.0, 0.0))
    fb = feedback_model.make_feedback_spec(200.0)
    a = mc_simulator.estimate_performance(pol, dl3, fb, 50_000, seed=17)
    d = mc_simulator.estimate_performance(pol, dl3, dataclasses.replace(fb, slots=2),
                                          50_000, seed=17, feedback_mode="symbol-level")
    assert a == d


def test_duplicated_ack_premature_stop_squares_slot_error():
    dl = mi_model.make_downlink_spec(10.0)
    # round 1 never decodes, round 2 always does; the only outage path is a
    # double slot flip of the first NACK, probability p^2
    pol = harq_analysis.HarqPolicy(rhos=(1e-6, 1e10), alphas=(0.0,), n_b=1)
    s = 0.1368645588
    fb = feedback_model.make_feedback_spec(10.0 * math.log10(s), slots=2)
    p = feedback_model.nack_error_rate(0.0, s)
    assert p == pytest.approx(0.1, abs=1e-6)
    est = mc_simulator.estimate_performance(pol, dl, fb, 1_000_000, seed=23,
                                            feedback_mode="symbol-level")
    assert abs(est.p_out - p * p) <= 3.0 * est.p_out_se
    assert est.p_occur[0] == 1.0
    assert abs(est.p_occur[1] - (1.0 - p * p)) <= 3.0 * est.p_occur_se[1]


@pytest.mark.parametrize("slots", [1, 2])
@pytest.mark.parametrize("snr_u, alpha", [(-12.0, 0.0), (-10.0, 0.5), (-6.0, 1.0)])
def test_symbol_level_agrees_with_analytic_flip_and_analysis(dl3, slots, snr_u, alpha):
    # detecting every slot symbol by symbol samples the spec's error rates,
    # so it agrees with the analytic flips and with the analysis on either
    # spec; alpha 0 on two slots is the duplicated-ACK baseline
    pol = make_policy((0.5, 0.75, 1.0, 0.25), (alpha,) * 3)
    fb = feedback_model.make_feedback_spec(snr_u, slots=slots)
    bd = harq_analysis.unreliable_throughput(pol, dl3, fb, bins=4096)
    n = 100_000
    s = mc_simulator.estimate_performance(pol, dl3, fb, n, seed=43,
                                          feedback_mode="symbol-level")
    a = mc_simulator.estimate_performance(pol, dl3, fb, n, seed=47,
                                          feedback_mode="analytic-flip")
    pairs = [(s.throughput, s.throughput_se, a.throughput, a.throughput_se,
              bd.throughput),
             (s.p_out, s.p_out_se, a.p_out, a.p_out_se, bd.p_out_unreliable)]
    pairs += [(s.p_occur[k], s.p_occur_se[k], a.p_occur[k], a.p_occur_se[k],
               bd.p_occur[k]) for k in range(1, 4)]
    for sim, sim_se, flip, flip_se, analytic in pairs:
        assert abs(sim - analytic) <= 4.0 * sim_se
        assert abs(sim - flip) <= 4.0 * math.hypot(sim_se, flip_se)
