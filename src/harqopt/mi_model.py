"""Downlink fading model and prefix decoding-failure probabilities.

Each transmission round sees an independent Rayleigh block fade, so the
channel power gain g is unit-mean exponential and the per-round mutual
information is I = rho * log2(1 + g * snr) for a round carrying rho symbols
per information bit (rho is the round length normalized by the codeword
payload). Decoding after round k succeeds once the accumulated mutual
information of the first k rounds reaches one bit per information bit.

Two routes to the prefix failure probabilities P(sum_{l<=k} I_l < 1) are
provided: a Gaussian approximation driven by the per-round mean and
variance, and a numerically exact discretized convolution of the true
per-round distributions. The Gaussian route is what the optimizer uses;
the convolution route bounds its error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numerics
from .errors import GridError

LOG2E = math.log2(math.e)

# Default bin count for the convolution route. Doubling it moves results
# by well under 1e-4 at usual operating points; exposed so callers can
# trade accuracy for speed.
DEFAULT_CONV_BINS = 4096

# Quadrature tolerances. Gauss-Laguerre on log2(1+snr*g)^2 stalls slightly
# above 1e-9 at high snr, so the second-moment target stays a little looser
# than machine precision.
# The quadrature stop rule compares successive node-ladder levels, so it is
# limited by the second-finest level even though the 200-node value itself is
# accurate to ~1e-9 through +10 dB. These bounds hold up to snr_db = 10 with
# at least 2x margin (measured 5.2e-7 / 3.4e-6 there) and fail naturally above.
_MEAN_TOL = 1e-6
_MOMENT_TOL = 1e-5


@dataclass(frozen=True)
class DownlinkSpec:
    """Downlink operating point with precomputed per-round MI statistics."""

    snr_db: float
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


def _scaled_e1(x: float) -> float:
    """exp(x) * E1(x), stable for large x where the factors overflow."""
    if x < 700.0:
        return math.exp(x) * numerics.exp_integral_e1(x)
    # Asymptotic series 1/x - 1/x^2 + 2/x^3 - 6/x^4 + 24/x^5; the truncation
    # error is below 1e-12 relative for x > 700.
    inv = 1.0 / x
    return inv * (1.0 - inv * (1.0 - 2.0 * inv * (1.0 - 3.0 * inv * (1.0 - 4.0 * inv))))


def mean_mi_closed_form(snr_linear: float) -> float:
    """E[log2(1 + snr * g)] for unit-exponential g: log2(e) e^{1/snr} E1(1/snr).

    Cross-check for the quadrature route in make_downlink_spec.
    """
    s = float(snr_linear)
    if not (math.isfinite(s) and s > 0.0):
        raise ValueError("mean_mi_closed_form: snr_linear must be positive")
    return LOG2E * _scaled_e1(1.0 / s)


def make_downlink_spec(snr_db: float) -> DownlinkSpec:
    """Build a DownlinkSpec for the given downlink SNR in dB.

    Both MI moments are evaluated by Gauss-Laguerre quadrature against the
    unit-exponential gain density; mean_mi_closed_form provides an
    independent check of the first moment.
    """
    snr_dbf = float(snr_db)
    if not math.isfinite(snr_dbf):
        raise ValueError("make_downlink_spec: snr_db must be finite")
    snr = 10.0 ** (snr_dbf / 10.0)
    mean = numerics.expect_rayleigh(lambda g: np.log2(1.0 + snr * g), tol=_MEAN_TOL)
    second = numerics.expect_rayleigh(
        lambda g: np.log2(1.0 + snr * g) ** 2, tol=_MOMENT_TOL
    )
    var = second - mean * mean
    if not var > 0.0:
        raise ValueError(f"make_downlink_spec: non-positive MI variance at {snr_dbf} dB")
    return DownlinkSpec(snr_db=snr_dbf, snr_linear=snr, mean_mi=mean, var_mi=var)


def mi_of_gain(gain: float, rho: float, spec: DownlinkSpec) -> float:
    """Mutual information contributed by one round with power gain ``gain``."""
    g = float(gain)
    if not (math.isfinite(g) and g >= 0.0):
        raise ValueError("mi_of_gain: gain must be finite and non-negative")
    r = float(rho)
    if not (math.isfinite(r) and r > 0.0):
        raise ValueError("mi_of_gain: rho must be positive and finite")
    return r * math.log2(1.0 + g * spec.snr_linear)


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
    sigma = math.sqrt(spec.var_mi)
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
        out_rounds[k] = numerics.q_function((s1 * spec.mean_mi - 1.0) / (np.sqrt(s2) * sigma))
    assert np.all(out >= 0.0) and np.all(out <= 1.0)
    return out


def _round_grid(rho: float, snr: float, step: float, bins: int) -> numerics.PdfGrid:
    # Exact CDF of one round's MI: F(x) = 1 - exp(-(2^(x/rho) - 1)/snr).
    # Each bin's probability is carried by an atom at the bin midpoint.
    edges = step * np.arange(bins + 1)
    cdf = -np.expm1(-(np.exp2(edges / rho) - 1.0) / snr)
    masses = np.diff(cdf)
    masses[-1] += 1.0 - cdf[-1]  # fold the upper tail into the top bin
    return numerics.PdfGrid(lower=0.5 * step, step=step, masses=masses)


def _fold_above(z: numerics.PdfGrid, cap: float) -> numerics.PdfGrid:
    pos = z.positions
    n_keep = int(np.searchsorted(pos, cap, side="right"))
    if n_keep >= z.masses.size:
        return z
    m = z.masses[:n_keep].copy()
    m[-1] += z.masses[n_keep:].sum()
    return numerics.PdfGrid(z.lower, z.step, m)


def _mass_below_one(z: numerics.PdfGrid) -> float:
    # Atoms represent bins of width step; the bin straddling the unit
    # threshold contributes its prorated share.
    pos = z.positions
    frac = np.clip((1.0 - (pos - 0.5 * z.step)) / z.step, 0.0, 1.0)
    return float(np.dot(z.masses, frac))


def p_fail_convolution(rates, spec: DownlinkSpec, bins: int = DEFAULT_CONV_BINS) -> np.ndarray:
    """Prefix failure probabilities by discretized exact convolution.

    Each round's MI distribution is discretized on a shared lattice over
    [0, 1 + 10 * sigma_k] where sigma_k is the Gaussian-route standard
    deviation of the full accumulated MI; mass beyond the cap is folded
    into the top bin, which always sits above the unit threshold so the
    below-one mass is unaffected. ``rates`` is a single rate vector.
    """
    rhos = _check_rates(rates, "p_fail_convolution")
    if bins < 256:
        raise GridError("p_fail_convolution: bins must be at least 256")
    s2_full = 0.0
    for rho in rhos:
        s2_full += rho * rho
    cap = 1.0 + 10.0 * math.sqrt(spec.var_mi * s2_full)
    step = cap / bins
    out = np.empty(len(rhos))
    z: numerics.PdfGrid | None = None
    for k, rho in enumerate(rhos):
        g = _round_grid(rho, spec.snr_linear, step, bins)
        z = g if z is None else _fold_above(numerics.convolve(z, g), cap)
        out[k] = _mass_below_one(z)
    # bin masses sum to one only within float rounding, so the below-one
    # mass can overshoot by a few ulps; anything beyond that is a real bug
    assert np.all(out >= 0.0) and np.all(out <= 1.0 + 1e-12)
    return np.clip(out, 0.0, 1.0)
