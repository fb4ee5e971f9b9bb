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
counter-based stream (Philox keyed by the seed, jumped by the chunk
index), with a fixed draw order inside a chunk. All fading gains come
first, for every episode and round: the forced-continuation failure
frequencies read them all. Then, round by round, the feedback randomness
comes as one block for the episodes still running, in episode order; a
round with none left draws nothing. The block holds one uniform per
episode (analytic-flip), two (duplicated-ack), or detect_batch's 6
normals, the noise parts its statistic reads (symbol-level). Estimates
are bit-identical for identical (seed, n, mode) and independent of how
chunks are executed.
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
    return np.random.Generator(np.random.Philox(key=seed).jumped(chunk_index))


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

    sx = 0.0       # delivered count (also sum of squares: indicator)
    sy = 0.0       # total symbols
    sxy = 0.0      # sum of symbols over delivered episodes
    syy = 0.0      # sum of squared symbols
    occ_counts = np.zeros(m, dtype=np.int64)
    fail_counts = np.zeros(m, dtype=np.int64)

    done = 0
    chunk_index = 0
    while done < n:
        c = min(_CHUNK, n - done)
        rng = _chunk_rng(seed, chunk_index)
        acc = rng.exponential(size=(c, m))
        # rhos * log2(1 + snr * gain), accumulated over rounds, in place
        acc *= snr_d
        acc += 1.0
        np.log2(acc, out=acc)
        acc *= rhos
        for j in range(1, m):
            acc[:, j] += acc[:, j - 1]
        decoded = acc >= 1.0

        rounds_used = np.ones(c, dtype=np.int64)
        live = np.arange(c)
        for j in range(m - 1):
            k = live.size
            if k == 0:
                break
            sent_ack = decoded[live, j]
            if feedback_mode == ANALYTIC_FLIP:
                u = rng.random(k)
                p_err = np.where(sent_ack, pa[j], pn[j])
                det_ack = sent_ack != (u < p_err)
            elif feedback_mode == SYMBOL_LEVEL:
                det_ack = feedback_model.detect_batch(
                    sent_ack, policy.alphas[j], fb.snr_linear, k, rng
                )
            else:
                u = rng.random((k, 2))
                # both duplicated slots must read as ACK for a stop
                det_ack = np.where(
                    sent_ack,
                    (u[:, 0] >= p_slot) & (u[:, 1] >= p_slot),
                    (u[:, 0] < p_slot) & (u[:, 1] < p_slot),
                )
            live = live[~det_ack]
            rounds_used[live] += 1

        delivered = decoded[np.arange(c), rounds_used - 1]
        symbols = n_b * cum_rhos[rounds_used - 1]

        sx += float(delivered.sum())
        sy += float(symbols.sum())
        sxy += float(symbols[delivered].sum())
        syy += float((symbols * symbols).sum())
        counts = np.bincount(rounds_used, minlength=m + 1)
        occ_counts += counts[::-1].cumsum()[::-1][1 : m + 1]
        for j in range(m):
            fail_counts[j] += c - np.count_nonzero(decoded[:, j])

        done += c
        chunk_index += 1

    # accounting closure: total symbols must equal the occurrence-weighted
    # per-round spend (up to float reassociation across chunks)
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
