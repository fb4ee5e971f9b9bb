"""Monte Carlo simulation of the HARQ protocol with unreliable feedback.

Episodes follow the protocol narrative exactly: per-round Rayleigh gains
accumulate mutual information, the receiver reports ACK once decoding
succeeds, and the transmitter stops on a detected ACK or after the round
cap. A detected ACK while the decoder has not succeeded is an outage; a
missed ACK costs extra rounds but never an outage. The feedback modes
differ only in how the single-bit report is detected:
- "analytic-flip": Bernoulli flips at the analytic error rates;
- "symbol-level": the matched-filter detector on the noisy sequence;
- "duplicated-ack": the baseline that sends the bit in two slots and stops
  only when both read as ACK; each slot flips at the zero-threshold
  error rate, so the policy's thresholds must all be zero.

The estimator is vectorized in fixed-size chunks, each driven by its own
stream (SFC64 seeded by the chunk index-th child that SeedSequence(seed)
spawns, so any seed >= 0 works), with a fixed draw order inside a chunk.
All fading gains come first, as one round-major (M, c) block for the
chunk's c episodes: the forced-continuation failure frequencies read them
all. Then, round by round, the feedback randomness comes as one block for
the episodes still running, in episode order; a round with none left
draws nothing. The block holds one uniform per episode (analytic-flip),
two (duplicated-ack), or detect_batch's 6 normals, the noise parts its
statistic reads (symbol-level). Estimates are bit-identical for identical
(seed, n, mode) and independent of how chunks are executed.

The estimator keeps per-round totals, not per-episode arrays: each
chunk's gains go into one reused (M, c) buffer, and each round turns its
own row in place into the accumulated mutual information and writes its
decoded flags into one reused (M, c) bool block. Each feedback round
reads its live episodes' flags, counts the stops and delivered stops, and
narrows the live set. Occurrence counts and the renewal-reward sums come
from those totals; the sums weight each stop count by its symbol count
n_b (rho_1 + ... + rho_k), so they are exact when those counts are
integers and within a few ulps of summing episode by episode otherwise.
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
DUPLICATED_ACK = "duplicated-ack"
FEEDBACK_MODES = (ANALYTIC_FLIP, SYMBOL_LEVEL, DUPLICATED_ACK)
_CHUNK = 1 << 17
_MIN_EPISODES = 10_000


@dataclass(frozen=True)
class SimulationEstimate:
    """Point estimates with standard errors over n independent episodes.

    p_fail is the forced-continuation decoder-failure frequency after each
    round (every episode's fading path is evaluated through all rounds),
    so it estimates the unconditional prefix-failure probabilities.
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
    """Aggregate n independent episodes in one of FEEDBACK_MODES; throughput
    is the renewal-reward ratio N_b * (delivered count) / (total symbols),
    with a delta-method standard error."""
    if feedback_mode not in FEEDBACK_MODES:
        raise ValueError(f"unknown feedback_mode {feedback_mode!r}")
    if feedback_mode == DUPLICATED_ACK:
        if any(a != 0.0 for a in policy.alphas):
            raise ValueError("duplicated-ACK simulation requires all-zero thresholds")
        p_slot = feedback_model.nack_error_rate(0.0, fb.snr_linear)
    elif feedback_mode == ANALYTIC_FLIP:
        rates = feedback_model.error_rates_for(fb, policy.alphas)
        pn = np.asarray(rates.p_nack)
        pa = np.asarray(rates.p_ack)
    if n < _MIN_EPISODES:
        raise ValueError(f"need at least {_MIN_EPISODES} episodes, got {n}")
    m = policy.m_max
    rhos = np.asarray(policy.rhos)
    cum_rhos = np.cumsum(rhos)
    n_b = policy.n_b
    snr_d = dl.snr_linear

    # per-round tallies over every chunk: episodes that stopped after
    # round k + 1, those of them delivered, and decoder failures at round
    # k + 1 along every fading path
    stops = np.zeros(m, dtype=np.int64)
    delivered = np.zeros(m, dtype=np.int64)
    fail_counts = np.zeros(m, dtype=np.int64)

    # one reused round-major block each for the gains, which become the
    # accumulated mutual information in place, and the decoded flags
    gains = np.empty((m, min(_CHUNK, n)))
    flags = np.empty(gains.shape, dtype=bool)
    done = 0
    chunk_index = 0
    while done < n:
        c = min(_CHUNK, n - done)
        rng = _chunk_rng(seed, chunk_index)
        # a contiguous (m, c) view, so the partial last chunk draws into
        # the block's first m * c entries
        acc = gains.ravel()[:m * c].reshape(m, c)
        decoded = flags.ravel()[:m * c].reshape(m, c)
        rng.standard_exponential(out=acc)
        # round j + 1: rho_{j+1} log2(1 + snr gain) plus the rounds before,
        # in place on its own row; decoded[j] holds its flag per episode
        for j in range(m):
            row = acc[j]
            row *= snr_d
            row += 1.0
            np.log2(row, out=row)
            row *= rhos[j]
            if j:
                row += acc[j - 1]
            np.greater_equal(row, 1.0, out=decoded[j])
        fail_counts += c - np.count_nonzero(decoded, axis=1)

        live = np.arange(c)  # episodes still running, in order
        for j in range(m - 1):
            sent_ack = decoded[j].take(live)
            k = sent_ack.size
            if k == 0:
                break
            if feedback_mode == ANALYTIC_FLIP:
                u = rng.random(k)
                # a sent ACK flips when u < p_ack, a sent NACK when u < p_nack
                det_ack = (sent_ack & (u >= pa[j])) | (~sent_ack & (u < pn[j]))
            elif feedback_mode == SYMBOL_LEVEL:
                det_ack = feedback_model.detect_batch(
                    sent_ack, policy.alphas[j], fb.snr_linear, k, rng
                )
            else:
                u = rng.random((k, 2))
                # both duplicated slots must read as ACK for a stop
                u0, u1 = u[:, 0], u[:, 1]
                det_ack = ((sent_ack & (u0 >= p_slot) & (u1 >= p_slot))
                           | (~sent_ack & (u0 < p_slot) & (u1 < p_slot)))
            stops[j] += np.count_nonzero(det_ack)
            delivered[j] += np.count_nonzero(det_ack & sent_ack)
            going = np.flatnonzero(~det_ack)
            live = live.take(going)
        last = decoded[m - 1].take(live)
        stops[m - 1] += last.size
        delivered[m - 1] += np.count_nonzero(last)

        done += c
        chunk_index += 1

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
