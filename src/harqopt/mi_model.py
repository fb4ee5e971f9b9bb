"""Downlink fading model and prefix decoding-failure probabilities.

Each transmission round sees an independent Rayleigh block fade, so the
channel power gain g is unit-mean exponential and the per-round mutual
information is I = rho * log2(1 + g * snr) for a round carrying rho symbols
per information bit (rho is the round length normalized by the codeword
payload). Decoding after round k succeeds once the accumulated mutual
information of the first k rounds reaches one bit per information bit.

The prefix failure probabilities P(sum_{l<=k} I_l < 1) come two ways: a
Gaussian approximation driven by the per-round mean and variance, and a
numerically exact convolution of the true per-round distributions,
discretized on [0, 1) because a prefix whose MI reaches one bit never fails
again. The failure model is decided here and is one value, ``bins``: None
for the Gaussian approximation, an int for the convolution on that many
bins. p_fail dispatches on it, and the analysis and the CLI carry it
unchanged. The optimizer uses the Gaussian approximation; the convolution
bounds its error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numerics
from .errors import GridError

LOG2E = math.log2(math.e)

# Default bin count for the convolution. At 4096 bins two-round results
# lie within 2e-8 of 1-D quadrature (0 and 3 dB), and quadrupling the bins
# moves no prefix by more than 2e-7 (1-5 rounds, rates in [0.1, 3], -20 to
# 10 dB); exposed so callers can trade accuracy for speed.
DEFAULT_CONV_BINS = 4096
# Bin counts p_fail_convolution accepts. The direct convolution is
# quadratic in the bins: one 4-round call at 3 dB took 0.008 s at 4096
# bins and 2.8 s at 65536 (2-core VM), and going from 4096 to 65536 bins
# moved F_4 by 1.2e-10, so more bins buy time and memory, not accuracy.
MIN_CONV_BINS = 256
MAX_CONV_BINS = 1 << 16

# Quadrature tolerances. Gauss-Laguerre on log2(1+snr*g)^2 stalls slightly
# above 1e-9 at high snr, so the second-moment target stays a little looser
# than machine precision.
# The quadrature check compares the 100- and 200-node estimates, so it is
# limited by the 100-node level even though the 200-node value itself is
# accurate to ~1e-9 through +10 dB. These bounds hold up to snr_db = 10 with
# at least 2x margin (measured 5.2e-7 / 3.4e-6 there) and fail naturally above.
_MEAN_TOL = 1e-6
_MOMENT_TOL = 1e-5


@dataclass(frozen=True)
class DownlinkSpec:
    """Downlink operating point with precomputed per-round MI statistics."""

    snr_linear: float
    mean_mi: float
    var_mi: float


def _check_rates(rates, name: str) -> np.ndarray:
    """Rate vector(s) of shape (..., M) as a float array: at least one
    round, every rate positive and finite."""
    rhos = np.asarray(rates, dtype=float)
    if rhos.ndim == 0 or rhos.shape[-1] == 0:
        raise ValueError(f"{name}: at least one round is required")
    if not np.all(np.isfinite(rhos) & (rhos > 0.0)):
        raise ValueError(f"{name}: rates must be positive and finite")
    return rhos


def mean_mi_closed_form(snr_linear: float) -> float:
    """E[log2(1 + snr * g)] for unit-exponential g: log2(e) e^{1/snr} E1(1/snr).

    Cross-check for the quadrature in make_downlink_spec.
    """
    s = float(snr_linear)
    if not (math.isfinite(s) and s > 0.0):
        raise ValueError("mean_mi_closed_form: snr_linear must be positive")
    return LOG2E * numerics.exp_integral_e1(1.0 / s, scaled=True)


def make_downlink_spec(snr_db: float) -> DownlinkSpec:
    """Build a DownlinkSpec for the given downlink SNR in dB.

    Both MI moments are evaluated by Gauss-Laguerre quadrature against the
    unit-exponential gain density; mean_mi_closed_form provides an
    independent check of the first moment.
    """
    snr_dbf = float(snr_db)
    if not math.isfinite(snr_dbf):
        raise ValueError("make_downlink_spec: snr_db must be finite")
    try:
        snr = 10.0 ** (snr_dbf / 10.0)
    except OverflowError:
        raise ValueError(f"make_downlink_spec: snr_db = {snr_dbf:g} overflows "
                         "a float linear SNR") from None
    mean = numerics.expect_rayleigh(lambda g: np.log2(1.0 + snr * g), tol=_MEAN_TOL)
    second = numerics.expect_rayleigh(
        lambda g: np.log2(1.0 + snr * g) ** 2, tol=_MOMENT_TOL
    )
    var = second - mean * mean
    if not var > 0.0:
        raise ValueError(f"make_downlink_spec: non-positive MI variance at {snr_dbf} dB")
    return DownlinkSpec(snr_linear=snr, mean_mi=mean, var_mi=var)


def p_fail(rates, spec: DownlinkSpec, bins: int | None = None) -> np.ndarray:
    """Prefix failure probabilities under the failure model ``bins``:
    p_fail_gaussian for None, p_fail_convolution on that many bins otherwise."""
    if bins is None:
        return p_fail_gaussian(rates, spec)
    return p_fail_convolution(rates, spec, bins)


def p_fail_gaussian(rates, spec: DownlinkSpec) -> np.ndarray:
    """Prefix failure probabilities under the Gaussian MI approximation.

    The accumulated MI of the first k rounds is treated as Gaussian with
    mean sum(rho_i) * mean_mi and variance sum(rho_i^2) * var_mi, so the
    failure probability is Q((sum(rho_i) * mean_mi - 1) / sqrt(sum(rho_i^2)
    * var_mi)). Returns one value per prefix length.

    ``rates`` has shape (..., M): one rate vector per leading index (the
    optimizer passes its whole allocation grid). The result has the same
    shape, and each row is bit-identical to the call on that row alone.
    """
    rhos = _check_rates(rates, "p_fail_gaussian")
    out = np.empty(rhos.shape)
    # transposed views put the round axis first: rounds[k] is round k of
    # every rate vector (a plain scalar for a single vector)
    rounds = rhos.T
    out_rounds = out.T
    s1 = 0.0
    s2 = 0.0
    for k, rho in enumerate(rounds):
        s1 = s1 + rho
        s2 = s2 + rho * rho
        out_rounds[k] = _q_of_sums(s1, s2, spec)
    return out


def _q_of_sums(s1, s2, spec: DownlinkSpec):
    """Gaussian failure probability of prefixes with rate sum s1 and sum of
    squared rates s2: Q((s1 * mean_mi - 1) / (sqrt(s2) * sigma)).

    The one implementation of the formula: p_fail_gaussian calls it round
    by round, and the optimizer's prefix-tree table level by level on the
    same running sums, so both give the same bits.
    """
    sigma = math.sqrt(spec.var_mi)
    out = numerics.q_function((s1 * spec.mean_mi - 1.0) / (np.sqrt(s2) * sigma))
    assert np.all(out >= 0.0) and np.all(out <= 1.0)
    return out


def p_fail_convolution(rates, spec: DownlinkSpec, bins: int = DEFAULT_CONV_BINS) -> np.ndarray:
    """Prefix failure probabilities by discretized exact convolution.

    Only the accumulated MI below one bit is ever read, and MI is
    non-negative, so every distribution lives on ``bins`` bins of width
    1/bins over [0, 1) and mass at or above one is dropped. A round's bin
    masses are differences of its exact CDF 1 - exp(-(2^(x/rho) - 1)/snr)
    at the bin edges, carried by an atom at each bin midpoint. Two
    midpoint atoms add up to a bin edge, so each convolution sum is split
    half to each neighbouring bin. F_k is the mass left after round k; a
    single round is exact. ``rates`` is a single rate vector.
    """
    rhos = _check_rates(rates, "p_fail_convolution")
    if not MIN_CONV_BINS <= bins <= MAX_CONV_BINS:
        raise GridError(f"p_fail_convolution: bins must lie in [{MIN_CONV_BINS}, "
                        f"{MAX_CONV_BINS}], got {bins}")
    edges = np.arange(bins + 1) / bins
    out = np.empty(len(rhos))
    z = None
    for k, rho in enumerate(rhos):
        # 2^(x/rho) overflows to inf for tiny rho, where the CDF is exactly 1
        with np.errstate(over="ignore"):
            m = np.diff(-np.expm1(-(np.exp2(edges / rho) - 1.0) / spec.snr_linear))
        if z is None:
            z = m
        else:
            c = np.convolve(z, m)[:bins]
            z = 0.5 * c
            z[1:] += 0.5 * c[:-1]
        out[k] = z.sum()
    # the bin masses sum to a CDF value within float rounding, so the kept
    # mass can overshoot one by a few ulps; anything beyond that is a real bug
    assert np.all(out >= 0.0) and np.all(out <= 1.0 + 1e-12)
    return np.clip(out, 0.0, 1.0)
