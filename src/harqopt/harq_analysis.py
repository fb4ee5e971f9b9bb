"""Closed-form HARQ performance under unreliable single-bit feedback.

A policy transmits up to M incremental-redundancy rounds with normalized
per-round lengths rho_1..rho_M. After each of the first M-1 rounds the
transmitter acts on a detected ACK/NACK bit that may be wrong: a NACK
misread as ACK stops the exchange with the block undelivered (outage), an
ACK misread as NACK buys a redundant round. The formulas here combine the
prefix decoding-failure probabilities P_{k,f} with the per-round detection
error pairs into outage, round-occurrence probabilities, expected symbol
cost, and throughput.

Outage composes the premature-stop hazard with the final decoding failure
as 1 - (1 - sum_i P_{N,i} P_{i,f} prod_{j<i}(1-P_{N,j})) (1 - P_{M,f}).
This treats the stop events and the final failure as if independent, so it
never under-estimates the outage; the bias is quantified against Monte
Carlo rather than corrected, because the rate optimizer minimizes exactly
this expression.

occurrence_probabilities, expected_cost and outage_from_failures are the
only implementations of their formulas. They take rates, prefix failures
and occurrence probabilities of shape (..., M), and error rates of shape
(..., M-1) whose leading axes broadcast against them, so the same code
serves a single policy here and in the threshold search; the scalar
brute-force oracle in tests/oracles.py checks both uses against each
other. The performance reports take the failure model as one keyword,
``bins``, which mi_model.p_fail reads.

Each walks the rounds through a recursion (_outage, _occurrence, _cost)
with a spread step between rounds: the identity on (..., M) arrays, and
np.repeat over each node's children on the optimizer's prefix tree of the
whole grid (one block of level-0 subtrees at a time), where each round's
term is formed once per prefix.
occurrence_probabilities returns its result round-major. Its
decoded-at-round-k terms are carried from round to round with one more
p_ack factor each, in the multiplication order of rebuilding them, so the
work per row is O(M^2) and the bits are those of the nested form
(tests/oracles.py keeps it as the reference).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import feedback_model, mi_model

_OUT_SLACK = 1e-12  # float slack for the ordering asserts below


@dataclass(frozen=True)
class HarqPolicy:
    """A HARQ policy: the rate of each round and the threshold of each feedback.

    rhos are symbols per information bit for each of the m_max rounds,
    alphas the detection thresholds for the first m_max-1 feedbacks, and
    n_b the payload size in bits. The rate box and the mother-code budget
    limit where the optimizer searches, so they belong to its RateGrid.
    """

    rhos: tuple[float, ...]
    alphas: tuple[float, ...]
    n_b: int

    def __post_init__(self):
        rhos = tuple(float(r) for r in self.rhos)
        alphas = tuple(float(a) for a in self.alphas)
        object.__setattr__(self, "rhos", rhos)
        object.__setattr__(self, "alphas", alphas)
        if not rhos:
            raise ValueError("HarqPolicy: at least one rate is required")
        if len(alphas) != len(rhos) - 1:
            raise ValueError("HarqPolicy: need exactly one threshold fewer than rates")
        if self.n_b < 1:
            raise ValueError("HarqPolicy: n_b must be positive")
        if not all(math.isfinite(r) and r > 0.0 for r in rhos):
            raise ValueError("HarqPolicy: rates must be positive and finite")
        if not all(math.isfinite(a) for a in alphas):
            raise ValueError("HarqPolicy: thresholds must be finite")

    @property
    def m_max(self) -> int:
        """Number of transmission rounds."""
        return len(self.rhos)


@dataclass(frozen=True)
class PerformanceBreakdown:
    """Every analytic quantity for one policy at one channel pair."""

    p_fail: tuple[float, ...]
    p_occur: tuple[float, ...]
    p_out_stage: tuple[float, ...]
    p_out_unreliable: float
    expected_symbols: float
    throughput: float

    @property
    def p_out_reliable(self) -> float:
        """Outage with perfect feedback: the final-round failure P_{M,f}."""
        return self.p_fail[-1]


def _same(x, i):
    """Spread step of (..., M) arrays: round i's rows are round i + 1's."""
    return x


def occurrence_probabilities(p_fail, p_nack, p_ack) -> np.ndarray:
    """Round-occurrence probabilities P_1..P_M from prefix failures.

    Round i happens either because every earlier round failed and every
    NACK got through, or because decoding succeeded at some round m < i
    and all feedbacks from m on were misread as NACK. Exact for the
    protocol (unlike the outage composition).

    ``p_fail`` has shape (..., M) and the error rates (..., M-1); their
    leading axes broadcast, so one table can meet one set of error pairs
    or one failure vector many. The result has shape (broadcast leading
    axes..., M), stored round-major (each round one contiguous block), and
    each row equals the call on that row alone bit for bit.
    """
    F = np.asarray(p_fail, dtype=float)
    pn = np.asarray(p_nack, dtype=float)
    pa = np.asarray(p_ack, dtype=float)
    m = F.shape[-1]
    if pn.shape[-1] < m - 1 or pa.shape[-1] < m - 1:
        raise ValueError("occurrence_probabilities: need m-1 error pairs")
    lead = np.broadcast_shapes(F.shape[:-1], pn.shape[:-1], pa.shape[:-1])
    # round-major: P[i] holds round i + 1 of every row in one block
    P = np.empty((m,) + lead)
    for i, p in enumerate(_occurrence(*(np.moveaxis(a, -1, 0) for a in (F, pn, pa)),
                                      _same)):
        P[i] = p
    return np.moveaxis(P, 0, -1)


def _occurrence(F, pn, pa, spread) -> list:
    """occurrence_probabilities over rounds: item i of F, pn and pa is
    round i + 1's, and spread(x, i) carries a value from the (i + 1)-round
    prefixes to the (i + 2)-round ones. P_i lies on the (i - 1)-round ones."""
    m = len(F)
    surv = [1.0 - pn[j] for j in range(m - 1)]
    P = [1.0]
    # decoded[k - 1]: decoded at round k with every feedback since misread
    # as NACK; each round multiplies every carried term by one more p_ack
    decoded = []
    for i in range(m - 1):
        decoded = [spread(t, i - 1) for t in decoded]
        # decoded at round i + 1, every earlier NACK correctly detected
        term = (1.0 if i == 0 else spread(F[i - 1], i - 1)) - F[i]
        for j in range(i):
            term = term * surv[j]
        decoded.append(term)
        decoded = [t * pa[i] for t in decoded]
        # all of rounds 1..i+1 failed, every NACK correctly detected
        total = F[i]
        for j in range(i + 1):
            total = total * surv[j]
        for t in decoded:
            total = total + t
        P.append(total)
    return P


def outage_from_failures(p_fail, p_nack):
    """Unreliable-feedback outage from prefix failures and NACK->ACK rates.

    Sequential form of 1 - (1 - sum_i P_{N,i} P_{i,f} prod_{j<i}(1-P_{N,j}))
    * (1 - P_{M,f}). ``p_fail`` has shape (..., M) and ``p_nack`` (...,
    M-1), with broadcasting leading axes; the result has their broadcast
    leading shape, a scalar for a single failure vector and error vector.
    """
    return _outage(*(np.moveaxis(np.asarray(a, dtype=float), -1, 0)
                     for a in (p_fail, p_nack)), _same)


def _outage(F, pn, spread):
    """outage_from_failures over rounds, as _occurrence takes them; inner
    after feedback i lies on the i-round prefixes."""
    m = len(F)
    inner = 1.0
    surv = 1.0
    for i in range(m - 1):
        inner = spread(inner - pn[i] * F[i] * surv, i)
        surv = surv * (1.0 - pn[i])
    return 1.0 - inner * (1.0 - F[m - 1])


def expected_cost(rhos, p_occur):
    """Expected normalized symbol count sum_i rho_i P_i.

    ``rhos`` and ``p_occur`` have shape (..., M), with leading axes that
    broadcast by numpy's rule; the result has their broadcast leading
    shape, a scalar for a single policy, and each row equals the call on
    that row alone bit for bit.
    """
    return _cost(*(np.moveaxis(np.asarray(a, dtype=float), -1, 0)
                   for a in (rhos, p_occur)), _same)


def _cost(rhos, P, spread):
    """expected_cost over rounds, as _occurrence takes and returns them;
    the cost through round i lies on the i-round prefixes."""
    cost = 0.0 + rhos[0] * P[0]
    for i in range(1, len(P)):
        # on the tree the spread results are temporaries, which take the
        # product and the sum in place
        cost = spread(cost, i - 1) + rhos[i] * spread(P[i], i - 1)
    return cost


def reliable_throughput(policy: HarqPolicy, dl, *, bins: int | None = None) -> float:
    """Throughput with perfect feedback: (1-P_{M,f}) / sum rho_i P_{i-1,f}."""
    F = mi_model.p_fail(policy.rhos, dl, bins)
    # round 1 always happens, round i > 1 after i - 1 failed rounds
    p_occur = np.concatenate(([1.0], F[:-1]))
    return (1.0 - F[policy.m_max - 1]) / expected_cost(policy.rhos, p_occur)


def expected_symbols(policy: HarqPolicy, p_occur) -> float:
    """Mean downlink symbol count n_b sum_i rho_i P_i."""
    P = np.asarray(p_occur, dtype=float)
    if P.shape[-1] != policy.m_max:
        raise ValueError("expected_symbols: occurrence vector length mismatch")
    # rho_i n_b per round, as symbols per block: n_b * expected_cost(...)
    # would round differently whenever n_b is not a power of two
    return expected_cost(np.multiply(policy.rhos, policy.n_b), P)


def _stage_outage(F, pn, P) -> np.ndarray:
    """Per-stage outage contributions: the p_out_stage_k columns of a report.

    A diagnostic of where along the exchange the outage accrues; the
    optimizer constrains only the total outage and never reads it.
    Stage 1 carries the first premature-stop hazard P_{N,1} P_{1,f};
    middle stages carry the cumulative hazard through stage k divided by
    the occurrence probability P_k; the final stage carries P_{M,f}/P_M.
    Unreachable stages (P_k = 0) have no conditional value and read 0, so
    perfect-feedback corner cases still produce a full report.
    """
    m = F.shape[-1]
    out = np.zeros(m)
    cum = 0.0
    surv = 1.0
    for k in range(m):
        if k < m - 1:
            cum = cum + pn[k] * F[k] * surv
            surv = surv * (1.0 - pn[k])
            hazard = cum
        else:
            hazard = F[k]
        if k == 0 and m > 1:
            out[0] = hazard
        elif P[k] != 0.0:
            out[k] = hazard / P[k]
    return out


def _breakdown_from_rates(policy: HarqPolicy, dl, rates, bins) -> PerformanceBreakdown:
    F = mi_model.p_fail(policy.rhos, dl, bins)
    pn = np.asarray(rates.p_nack, dtype=float)
    pa = np.asarray(rates.p_ack, dtype=float)
    P = occurrence_probabilities(F, pn, pa)
    p_out = outage_from_failures(F, pn)
    stage = _stage_outage(F, pn, P)
    e_sym = expected_symbols(policy, P)
    eta = policy.n_b * (1.0 - p_out) / e_sym

    for arr in (F, P):
        assert np.all(arr >= 0.0) and np.all(arr <= 1.0)
    # the final-stage ratio F_M / P_M legitimately exceeds one when failure
    # is near-certain and feedback lossy (P_M < F_M), so only non-negativity
    # is a hard requirement for the stage diagnostics
    assert np.all(stage >= 0.0)
    assert 0.0 <= p_out <= 1.0
    # unreliable feedback can only hurt; capacity caps the rate
    assert p_out >= F[-1] - _OUT_SLACK
    assert eta <= dl.mean_mi + _OUT_SLACK

    return PerformanceBreakdown(
        p_fail=tuple(float(x) for x in F),
        p_occur=tuple(float(x) for x in P),
        p_out_stage=tuple(float(x) for x in stage),
        p_out_unreliable=float(p_out),
        expected_symbols=float(e_sym),
        throughput=float(eta),
    )


def unreliable_throughput(policy: HarqPolicy, dl, fb: feedback_model.FeedbackSpec, *,
                          bins: int | None = None) -> PerformanceBreakdown:
    """Full performance report for a policy; thresholds come from the policy."""
    rates = feedback_model.error_rates_for(fb, policy.alphas)
    return _breakdown_from_rates(policy, dl, rates, bins)


def duplicated_ack_rates(snr_linear: float, m_max: int) -> feedback_model.FeedbackErrorRates:
    """Effective error pair for the two-slot ACK-repetition baseline.

    Symmetric detection (alpha = 0) in both slots; the transmitter stops
    only when both decode as ACK, so a NACK survives unless both slots
    flip (p^2) while an ACK is lost if either slot flips (2p - p^2).
    """
    p = feedback_model.nack_error_rate(0.0, snr_linear)
    pn_eff = tuple(p * p for _ in range(m_max - 1))
    pa_eff = tuple(1.0 - (1.0 - p) * (1.0 - p) for _ in range(m_max - 1))
    return feedback_model.FeedbackErrorRates(p_nack=pn_eff, p_ack=pa_eff)


def duplicated_ack_performance(policy: HarqPolicy, dl, fb: feedback_model.FeedbackSpec, *,
                               bins: int | None = None) -> PerformanceBreakdown:
    """Baseline report: ACK repeated in a second slot, AND-rule detection.

    Costs one extra feedback slot of latency but no downlink symbols, so
    the throughput accounting is unchanged. Requires symmetric detection.
    """
    if any(a != 0.0 for a in policy.alphas):
        raise ValueError("duplicated_ack_performance: thresholds must all be 0")
    rates = duplicated_ack_rates(fb.snr_linear, policy.m_max)
    return _breakdown_from_rates(policy, dl, rates, bins)
