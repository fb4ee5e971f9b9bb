"""Scalar reference implementations the tests check the library against.

Each oracle walks one case at a time through the public scalar API, with
its own loops, so it shares no vectorized code with what it checks:
- brute_force_rate_allocation: the candidates one by one, against
  optimizer.best_feasible_allocation, bit for bit;
- error_pair: the (p_nack, p_ack) arrays of a spec's maps at thresholds;
- occurrence_nested: the round-occurrence sums rebuilt term by term,
  against harq_analysis.occurrence_probabilities, bit for bit;
- run_episode: one HARQ episode round by round on any feedback spec, with
  the symbol-level feedback realized by simulate_detection from 24
  normals per slot, against mc_simulator.estimate_performance;
- detection_statistic: the 12-symbol matched filter that
  feedback_model.detect_batch must match bit for bit;
- mi_of_gain: the mutual information of one round at one gain.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from harqopt import feedback_model, harq_analysis, mc_simulator, mi_model, optimizer
from harqopt.errors import GridError, InfeasibleError

_BRUTE_FORCE_BUDGET = 10_000_000  # raw candidate tuples before budget filter
_HALF_COMPLEX = math.sqrt(0.5)  # per-symbol complex noise has unit variance


def mi_of_gain(gain: float, rho: float, spec: mi_model.DownlinkSpec) -> float:
    """Mutual information contributed by one round with power gain ``gain``."""
    g = float(gain)
    if not (math.isfinite(g) and g >= 0.0):
        raise ValueError("mi_of_gain: gain must be finite and non-negative")
    r = float(rho)
    if not (math.isfinite(r) and r > 0.0):
        raise ValueError("mi_of_gain: rho must be positive and finite")
    return r * math.log2(1.0 + g * spec.snr_linear)


def detection_statistic(y: np.ndarray, snr_linear: float) -> float:
    """Matched-filter statistic normalized to +-1 noiseless endpoints."""
    s_ack, s_nack = feedback_model.build_sequences()
    diff = s_ack - s_nack
    # <y, s_ack - s_nack> with the usual conjugate-linear first slot
    corr = np.vdot(diff, np.asarray(y)).real
    return float(corr) / (feedback_model.SEQUENCE_LENGTH * math.sqrt(snr_linear))


def simulate_detection(sent_ack: bool, alpha: float, snr_linear: float, rng) -> bool:
    """One feedback transmission through complex AWGN; True means ACK detected.

    The sent sequence is scaled by sqrt(snr_linear), the noise has unit
    variance per complex symbol (real and imaginary parts drawn in that
    order), and ACK is declared iff the statistic reaches alpha.
    """
    s = feedback_model._check_snr(snr_linear)
    s_ack, s_nack = feedback_model.build_sequences()
    sent = s_ack if sent_ack else s_nack
    length = feedback_model.SEQUENCE_LENGTH
    noise = (rng.standard_normal(length) + 1j * rng.standard_normal(length)) * _HALF_COMPLEX
    y = math.sqrt(s) * sent + noise
    return detection_statistic(y, s) >= alpha


@dataclass(frozen=True)
class EpisodeOutcome:
    """Accounting for one simulated HARQ episode."""

    rounds_used: int
    delivered: bool
    outage: bool
    symbols_spent: float
    feedback_events: tuple[tuple[str, str], ...]  # (sent, detected) labels


def run_episode(policy: harq_analysis.HarqPolicy, dl, fb: feedback_model.FeedbackSpec,
                rng, feedback_mode: str = mc_simulator.ANALYTIC_FLIP) -> EpisodeOutcome:
    """Simulate one episode of the spec's scheme; the rng needs
    .exponential(), .random() and, for symbol-level feedback,
    .standard_normal(). Analytic-flip feedback flips at the spec's rates;
    symbol-level feedback detects every slot, and reads ACK only when all
    of them do."""
    if feedback_mode not in (mc_simulator.ANALYTIC_FLIP, mc_simulator.SYMBOL_LEVEL):
        raise ValueError(f"unknown feedback_mode {feedback_mode!r}")
    m = policy.m_max
    acc = 0.0
    decoded = False
    rounds = 0
    symbols = 0.0
    events = []
    for k in range(m):
        rounds = k + 1
        gain = float(rng.exponential())
        acc += mi_of_gain(gain, policy.rhos[k], dl)
        symbols += policy.rhos[k] * policy.n_b
        if acc >= 1.0:
            decoded = True
        if rounds == m:
            break
        sent_ack = decoded
        alpha = policy.alphas[k]
        if feedback_mode == mc_simulator.ANALYTIC_FLIP:
            p_err = fb.ack_rate(alpha) if sent_ack else fb.nack_rate(alpha)
            detected_ack = sent_ack != (float(rng.random()) < p_err)
        else:
            reads = [simulate_detection(sent_ack, alpha, fb.snr_linear, rng)
                     for _ in range(fb.slots)]
            detected_ack = all(reads)
        events.append(
            ("ACK" if sent_ack else "NACK", "ACK" if detected_ack else "NACK")
        )
        if detected_ack:
            break
    return EpisodeOutcome(
        rounds_used=rounds,
        delivered=decoded,
        outage=not decoded,
        symbols_spent=symbols,
        feedback_events=tuple(events),
    )


def occurrence_nested(p_fail, p_nack, p_ack) -> np.ndarray:
    """Reference for harq_analysis.occurrence_probabilities: every term of
    every round rebuilt from scratch, with the same multiplication and
    summation order, so the two agree bit for bit. Same shapes and
    broadcasting; the result is row-major (..., M)."""
    F = np.asarray(p_fail, dtype=float)
    pn = np.asarray(p_nack, dtype=float)
    pa = np.asarray(p_ack, dtype=float)
    m = F.shape[-1]
    P = np.empty(np.broadcast_shapes(F.shape[:-1], pn.shape[:-1], pa.shape[:-1]) + (m,))
    P[..., 0] = 1.0
    for i in range(2, m + 1):
        # all of rounds 1..i-1 failed, every NACK correctly detected
        term = F[..., i - 2]
        for j in range(i - 1):
            term = term * (1.0 - pn[..., j])
        total = term
        # decoded at round k, ACKs k..i-1 all misread as NACK
        for k in range(1, i):
            term = (1.0 if k == 1 else F[..., k - 2]) - F[..., k - 1]
            for j in range(k - 1):
                term = term * (1.0 - pn[..., j])
            for j in range(k - 1, i - 1):
                term = term * pa[..., j]
            total = total + term
        P[..., i - 1] = total
    return P


def error_pair(fb: feedback_model.FeedbackSpec, alphas) -> tuple[np.ndarray, np.ndarray]:
    """The error pairs of fb's scheme at thresholds alphas, one per
    feedback: the arrays fb.nack_rate(alphas) and fb.ack_rate(alphas)."""
    a = np.asarray(alphas, dtype=float)
    return fb.nack_rate(a), fb.ack_rate(a)


def brute_force_rate_allocation(p_nack, p_ack, dl, grid: optimizer.RateGrid, m: int,
                                epsilon: float) -> tuple[np.ndarray, float]:
    """Scalar oracle for best_feasible_allocation at the error pairs
    (p_nack[i], p_ack[i]): explicit loop over candidates through the public
    analysis functions, identical tie-breaking and identical InfeasibleError
    floor."""
    if len(p_nack) != m - 1 or len(p_ack) != m - 1:
        raise ValueError("brute_force_rate_allocation: need error rates for m-1 feedbacks")
    span = grid.max_units - grid.min_units + 1
    if span ** m > _BRUTE_FORCE_BUDGET:
        raise GridError(
            f"brute force over {span}^{m} candidates exceeds the "
            f"{_BRUTE_FORCE_BUDGET} budget"
        )
    best_eta = -math.inf
    best_total = None
    best_rhos = None
    min_outage = math.inf
    for units in itertools.product(range(grid.min_units, grid.max_units + 1), repeat=m):
        total = sum(units)
        if total > grid.units_total:
            continue
        rhos = tuple(u * grid.unit_rho for u in units)
        F = mi_model.p_fail_gaussian(rhos, dl)
        P = harq_analysis.occurrence_probabilities(F, p_nack, p_ack)
        cost = 0.0
        for i in range(m):
            cost = cost + rhos[i] * P[i]
        outage = harq_analysis.outage_from_failures(F, p_nack)
        min_outage = min(min_outage, outage)
        if outage > epsilon:
            continue
        eta = (1.0 - outage) / cost
        if eta > best_eta or (eta == best_eta and total < best_total):
            best_eta = eta
            best_total = total
            best_rhos = rhos
    if min_outage == math.inf:
        raise InfeasibleError("unit bounds admit no allocation within the budget")
    if best_rhos is None:
        raise InfeasibleError(
            f"no allocation meets outage {epsilon:g} at these error rates",
            min_outage=float(min_outage),
        )
    return np.asarray(best_rhos), float(best_eta)
