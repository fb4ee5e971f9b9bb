"""Single-bit ACK/NACK feedback with asymmetric threshold detection.

The receiver reports decoding success by transmitting one of two 12-symbol
unit-modulus sequences that agree on 6 positions and are antipodal on the
other 6. The transmitter projects the received block onto the sequence
difference and compares the normalized statistic t (noiseless ACK gives
t = +1, noiseless NACK gives t = -1) against a threshold alpha. Raising
alpha above 0 protects NACK at ACK's expense: the NACK->ACK error, which
ends the HARQ exchange prematurely and so costs a whole block, becomes
rarer than the ACK->NACK error, which only wastes a retransmission.

On the +-1 scale the detector noise is Gaussian with standard deviation
1/sqrt(12 snr), so the two error probabilities have closed forms

    nack->ack:  0.5 erfc((1+alpha) sqrt(6 snr))
    ack->nack:  0.5 erfc((1-alpha) sqrt(6 snr))

and detect_batch, the detector the Monte Carlo simulator runs in its
symbol-level mode, realizes the statistic for many trials at once from the
6 normals it reads: the real parts of the noise where the sequences
differ, drawn as one block per call.

A FeedbackSpec is a feedback scheme: the uplink SNR and the slots (1 or
2) that carry the bit. Two slots are the duplicated-ACK baseline: each is
thresholded at the round's alpha and the transmitter stops only when both
read ACK, so a NACK is lost when both flip, p^2, and an ACK when either
does, 1 - (1 - q)^2. The spec's nack_rate and ack_rate are these maps,
elementwise over the thresholds, which the HARQ policy holds; every error
pair in the package is fb.nack_rate(a), fb.ack_rate(a) at thresholds a.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numerics

SEQUENCE_LENGTH = 12
_HALF_COMPLEX = math.sqrt(0.5)  # per-symbol complex noise has unit variance


@dataclass(frozen=True)
class FeedbackSpec:
    """A feedback scheme: the linear uplink SNR and the slots (1 or 2) that
    carry each feedback bit. A second slot costs uplink energy and latency
    but no downlink symbols, so the throughput accounting is the same.

    The detection thresholds are per-round decisions of the HARQ policy
    (HarqPolicy.alphas), so they are passed to the maps alongside the spec
    rather than stored in it.
    """

    snr_linear: float
    slots: int = 1

    def __post_init__(self):
        if not (math.isfinite(self.snr_linear) and self.snr_linear > 0.0):
            raise ValueError("FeedbackSpec: snr_linear must be positive and finite")
        if self.slots not in (1, 2):
            raise ValueError("FeedbackSpec: slots must be 1 or 2")

    def nack_rate(self, alphas):
        """NACK->ACK rate of the scheme, elementwise over thresholds: the
        one-slot rate p, or p^2 when both slots must flip."""
        p = nack_error_rate(alphas, self.snr_linear)
        return p if self.slots == 1 else p * p

    def ack_rate(self, alphas):
        """ACK->NACK rate of the scheme, elementwise over thresholds: the
        one-slot rate q, or 1 - (1 - q)^2 when either slot's flip loses it."""
        q = ack_error_rate(alphas, self.snr_linear)
        return q if self.slots == 1 else 1.0 - (1.0 - q) * (1.0 - q)


def make_feedback_spec(snr_db: float, slots: int = 1) -> FeedbackSpec:
    return FeedbackSpec(snr_linear=numerics.snr_db_to_linear(snr_db, "make_feedback_spec"),
                        slots=slots)


def _check_snr(snr_linear: float) -> float:
    s = float(snr_linear)
    if not (math.isfinite(s) and s > 0.0):
        raise ValueError("feedback error rate: snr_linear must be positive")
    return s


def _root_6snr(snr_linear: float):
    """sqrt(6 snr), also where 6 snr overflows a float: there the product
    would be inf and a threshold of exactly +-1 would give 0 * inf."""
    s = _check_snr(snr_linear)
    six_s = 6.0 * s
    return np.sqrt(six_s) if six_s < math.inf else np.sqrt(6.0) * np.sqrt(s)


def _erfc_of_scaled(factor, snr_linear: float):
    """erfc(factor * sqrt(6 snr)). A product beyond the float range is
    taken as +-inf without a warning: erfc is already at its limit, 0 or 2,
    long before that."""
    with np.errstate(over="ignore"):
        arg = factor * _root_6snr(snr_linear)
    return numerics.erfc(arg)


def nack_error_rate(alpha, snr_linear: float):
    """NACK->ACK misdetection probability 0.5 erfc((1+alpha) sqrt(6 snr)),
    elementwise over an array of thresholds."""
    return 0.5 * _erfc_of_scaled(1.0 + alpha, snr_linear)


def ack_error_rate(alpha, snr_linear: float):
    """ACK->NACK misdetection probability 0.5 erfc((1-alpha) sqrt(6 snr)),
    elementwise over an array of thresholds."""
    return 0.5 * _erfc_of_scaled(1.0 - alpha, snr_linear)


def build_sequences() -> tuple[np.ndarray, np.ndarray]:
    """Idealized ACK/NACK sequence pair on a constant unit base.

    Equal on even positions, antipodal on the 6 odd ones, so the squared
    distance is 24; the error probabilities depend on the geometry only.
    """
    s_ack = np.ones(SEQUENCE_LENGTH, dtype=complex)
    s_nack = np.ones(SEQUENCE_LENGTH, dtype=complex)
    s_nack[1::2] = -1.0
    return s_ack, s_nack


def detect_batch(sent_ack: bool, alpha: float, snr_linear: float, n: int,
                 rng) -> np.ndarray:
    """Vectorized detector: n independent trials of sending the same bit,
    bool array out.

    The statistic reads only the real parts of y at the 6 positions where
    the sequences differ, so each trial draws just those 6 standard
    normals, in position order, and one call draws one (n, 6) block; its
    caller bounds n, and so the memory, by the trials it passes.

    The sequence difference is 2 on the differing positions and 0
    elsewhere, so the statistic is the sum of the real parts of y there,
    times 2 / (12 sqrt(snr)). It is summed in position order, the order of
    the complex dot product over all 12 positions, whose other terms are
    signed zeros, so it matches detection_statistic, the symbol-by-symbol
    reference in tests/oracles.py, bit for bit.
    """
    s = _check_snr(snr_linear)
    if n < 1:
        raise ValueError("detect_batch: n must be positive")
    s_ack, s_nack = build_sequences()
    n_differ = np.count_nonzero(s_ack != s_nack)
    root_s = math.sqrt(s)
    scale = SEQUENCE_LENGTH * root_s
    # Re(y) where the sequences differ: the sent symbol there is +1 for ACK
    # and -1 for NACK, scaled by sqrt(snr)
    re = rng.standard_normal((n, n_differ))
    re *= _HALF_COMPLEX
    re += root_s if sent_ack else -root_s
    corr = re[:, 0] + re[:, 1]
    for k in range(2, n_differ):
        corr += re[:, k]
    corr *= 2.0
    corr /= scale
    return corr >= alpha
