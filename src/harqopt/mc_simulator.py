"""Monte Carlo simulation of the HARQ protocol with unreliable feedback.

Episodes follow the protocol narrative exactly: per-round Rayleigh gains
accumulate mutual information, the receiver reports ACK once decoding
succeeds, and the transmitter stops on a detected ACK or after the round
cap. A detected ACK while the decoder has not succeeded is an outage; a
missed ACK costs extra rounds but never an outage. The spec says which
feedback scheme runs (one slot, or the duplicated-ACK baseline's two),
and the feedback mode says how its bit is drawn; every mode runs on every
spec:
- "analytic-flip": Bernoulli flips at the spec's analytic error rates;
- "symbol-level": the matched-filter detector on the noisy sequence, once
  per slot; the transmitter stops only when every slot reads ACK.

The estimator is vectorized in fixed-size chunks, each driven by its own
stream (SFC64 seeded by the chunk index-th child that SeedSequence(seed)
spawns, so any seed >= 0 works), with a fixed draw order inside a chunk.
Accumulated mutual information never falls, so an episode's protocol path
depends on its fading only through its first decoding round d (1..M, or
never). The fading gains come first, round by round: round j draws one
gain for each episode still undecoded after round j - 1, in episode
order, which the forced-continuation failure frequencies count. Then
each feedback round draws, for each group of equal d in turn, for the
group's episodes still running, all of which send the same bit (ACK when
d <= j); a group with none left draws nothing. The draw is a binomial
count of detected ACKs (analytic-flip), or one block per slot, in slot
order, of detect_batch's 6 normals per episode, the noise parts its
statistic reads (symbol-level). Estimates are bit-identical for identical
(seed, n, mode, spec) and independent of how chunks are executed.

The estimator keeps per-group totals, not per-episode arrays: each chunk
draws its gains into one reused length-c buffer, turns them in place into
the accumulated mutual information, counts each round's decoding group
and carries only the undecoded episodes' running sums forward. The
feedback rounds count the stops of each group. Occurrence counts and the
renewal-reward sums come from those totals; the sums weight each stop
count by its symbol count n_b (rho_1 + ... + rho_k), so they are exact
when those counts are integers and within a few ulps of summing episode
by episode otherwise.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import feedback_model, harq_analysis

_log = logging.getLogger(__name__)

ANALYTIC_FLIP = "analytic-flip"
SYMBOL_LEVEL = "symbol-level"
FEEDBACK_MODES = (ANALYTIC_FLIP, SYMBOL_LEVEL)
_CHUNK = 1 << 17
MIN_EPISODES = 10_000


@dataclass(frozen=True)
class SimulationEstimate:
    """Point estimates with standard errors over n independent episodes.

    p_fail is the forced-continuation decoder-failure frequency after each
    round (every episode's fading path is followed through all rounds: a
    decoded episode stays decoded, so later gains are drawn only for the
    undecoded), so it estimates the unconditional prefix-failure
    probabilities.
    """

    n_episodes: int
    throughput: float
    throughput_se: float
    p_out: float
    p_out_se: float
    p_occur: tuple[float, ...]
    p_occur_se: tuple[float, ...]
    p_fail: tuple[float, ...]
    p_fail_se: tuple[float, ...]
    seed: int


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    """The chunk's own stream: SFC64 seeded by the chunk_index-th child of
    SeedSequence(seed), numpy's way to spawn independent streams."""
    return np.random.Generator(
        np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(chunk_index,)))
    )


def estimate_performance(policy: harq_analysis.HarqPolicy, dl,
                         fb: feedback_model.FeedbackSpec, n: int, seed: int,
                         feedback_mode: str = ANALYTIC_FLIP) -> SimulationEstimate:
    """Aggregate n independent episodes of the spec's scheme, drawn in one
    of FEEDBACK_MODES; throughput is the renewal-reward ratio
    N_b * (delivered count) / (total symbols), with a delta-method standard
    error."""
    if feedback_mode not in FEEDBACK_MODES:
        raise ValueError(f"unknown feedback_mode {feedback_mode!r}")
    alphas = np.asarray(policy.alphas, dtype=float)
    pa, pn = fb.ack_rate(alphas), fb.nack_rate(alphas)
    if n < MIN_EPISODES:
        raise ValueError(f"need at least {MIN_EPISODES} episodes, got {n}")
    m = policy.m_max
    rhos = np.asarray(policy.rhos)
    cum_rhos = np.cumsum(rhos)
    n_b = policy.n_b
    snr_d = dl.snr_linear

    # halted[j, d]: episodes that stopped after round j + 1 and first
    # decode at round d + 1 (d = m: never), over every chunk; those with
    # d <= j are the delivered ones. fail_counts[j]: decoder failures at
    # round j + 1 along every fading path
    halted = np.zeros((m, m + 1), dtype=np.int64)
    fail_counts = np.zeros(m, dtype=np.int64)

    # reused buffers for a chunk's undecoded episodes: the round's gains,
    # which become the accumulated mutual information in place, the
    # running MI carried to the next round, and the undecoded flags
    gains = np.empty(min(_CHUNK, n))
    carried = np.empty(gains.shape)
    undecoded = np.empty(gains.shape, dtype=bool)
    for chunk_index, start in enumerate(range(0, n, _CHUNK)):
        c = min(_CHUNK, n - start)
        rng = _chunk_rng(seed, chunk_index)
        # live[d]: the chunk's episodes that first decode at round d + 1
        # and are still running
        live = np.empty(m + 1, dtype=np.int64)
        k = c
        for j in range(m):
            row = rng.standard_exponential(out=gains[:k])
            row *= snr_d
            row += 1.0
            np.log2(row, out=row)
            row *= rhos[j]
            if j:
                row += carried[:k]
            left = np.less(row, 1.0, out=undecoded[:k])
            k_left = np.count_nonzero(left)
            live[j] = k - k_left
            np.compress(left, row, out=carried[:k_left])
            k = k_left
            fail_counts[j] += k
        live[m] = k

        for j in range(m - 1):
            for d in np.flatnonzero(live):
                ack = d <= j  # the bit the group sends after round j + 1
                if feedback_mode == ANALYTIC_FLIP:
                    # the same law as live[d] Bernoulli flips
                    stopped = rng.binomial(live[d], 1.0 - pa[j] if ack else pn[j])
                else:
                    # one block per slot, in slot order; a stop needs every
                    # slot to read ACK
                    reads = feedback_model.detect_batch(
                        ack, policy.alphas[j], fb.snr_linear, live[d], rng)
                    for _ in range(1, fb.slots):
                        reads &= feedback_model.detect_batch(
                            ack, policy.alphas[j], fb.snr_linear, live[d], rng)
                    stopped = np.count_nonzero(reads)
                halted[j, d] += stopped
                live[d] -= stopped
        halted[m - 1] += live

    stops = halted.sum(axis=1)
    delivered = np.tril(halted).sum(axis=1)
    # an episode that stops after round k + 1 spends n_b * (rho_1 + ... +
    # rho_{k+1}) symbols; the count-weighted sums are exact whenever those
    # symbol counts are integers
    symbols = n_b * cum_rhos
    sx = float(delivered.sum())                        # delivered count
    sy = float((stops * symbols).sum())                # total symbols
    sxy = float((delivered * symbols).sum())           # symbols of delivered
    syy = float((stops * (symbols * symbols)).sum())   # squared symbols
    # round k + 1 happens in every episode that stops at it or later
    occ_counts = stops[::-1].cumsum()[::-1]

    # accounting closure: total symbols must equal the occurrence-weighted
    # per-round spend (up to float reassociation)
    recomposed = float(n_b * (rhos * occ_counts).sum())
    assert abs(sy - recomposed) <= 1e-9 * max(1.0, abs(sy)), (sy, recomposed)

    ratio = sx / sy
    resid = sx - 2.0 * ratio * sxy + ratio * ratio * syy  # sum of (X - r Y)^2
    throughput = n_b * ratio
    throughput_se = n_b * math.sqrt(max(resid, 0.0)) / sy
    p_out = (n - sx) / n
    occ = occ_counts / n
    fail = fail_counts / n

    def binom_se(p):
        return np.sqrt(np.clip(p * (1.0 - p), 0.0, None) / n)

    est = SimulationEstimate(
        n_episodes=n,
        throughput=float(throughput),
        throughput_se=float(throughput_se),
        p_out=float(p_out),
        p_out_se=float(binom_se(p_out)),
        p_occur=tuple(float(v) for v in occ),
        p_occur_se=tuple(float(v) for v in binom_se(occ)),
        p_fail=tuple(float(v) for v in fail),
        p_fail_se=tuple(float(v) for v in binom_se(fail)),
        seed=seed,
    )
    _log.debug(
        "estimate_performance: n=%d mode=%s throughput=%.6g p_out=%.6g",
        n, feedback_mode, est.throughput, est.p_out,
    )
    return est
