"""Scalar special functions and Rayleigh-fading expectations.

Everything in this module is generic numerics with no protocol knowledge:
complementary error function and Gaussian tail, the exponential integral,
and expectations against the unit-mean exponential density (Rayleigh
fading power).
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as _sp

from .errors import ConvergenceError

_SQRT2 = math.sqrt(2.0)

# Node counts tried in order by expect_rayleigh; Gauss-Laguerre weight
# computation is numerically stable only up to a few hundred nodes.
_NODE_LADDER = (25, 50, 100, 200)

_laguerre_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def erfc(x):
    """Complementary error function, elementwise on scalars or arrays."""
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("erfc: input must be finite")
    out = _sp.erfc(arr)
    if arr.ndim == 0:
        return float(out)
    return out


def q_function(x):
    """Gaussian tail probability Q(x) = 0.5 * erfc(x / sqrt(2))."""
    return 0.5 * erfc(np.asarray(x, dtype=float) / _SQRT2)


def exp_integral_e1(x: float) -> float:
    """Exponential integral E1(x) = integral of exp(-t)/t from x to infinity."""
    xf = float(x)
    if not math.isfinite(xf) or xf <= 0.0:
        raise ValueError("exp_integral_e1: requires finite x > 0")
    return float(_sp.exp1(xf))


def _laguerre_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    if n not in _laguerre_cache:
        _laguerre_cache[n] = _sp.roots_laguerre(n)
    return _laguerre_cache[n]


def expect_rayleigh(f, tol: float, node_budget: int = 200) -> float:
    """Expectation of f(g) with g a unit-mean exponential variable.

    Evaluates the integral of f(g) * exp(-g) over g >= 0 by Gauss-Laguerre
    quadrature. The node count climbs a fixed ladder (25, 50, 100, 200,
    then ``node_budget`` if larger); the whole ladder is always evaluated
    and the finest estimate is returned, with the last two levels required
    to agree within ``tol`` (relative above magnitude one, absolute below).
    Early-stopping on a coarser pair would silently trade accuracy for
    nothing, and the result must not depend on the tolerance requested.

    Parameters
    ----------
    f : callable
        Integrand without the exponential weight. May be vectorized over a
        numpy array of abscissae; a scalar-only callable also works.
    tol : float
        Convergence tolerance on the difference of successive estimates.
    node_budget : int
        Largest node count tried before giving up.

    Raises
    ------
    ConvergenceError
        If the ladder is exhausted without convergence. The error carries
        the last estimate in its ``estimate`` attribute.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError("expect_rayleigh: tol must be positive and finite")
    if node_budget < 2:
        raise ValueError("expect_rayleigh: node_budget must be at least 2")
    ladder = [n for n in _NODE_LADDER if n <= node_budget]
    if not ladder:
        ladder = [node_budget]
    elif ladder[-1] < node_budget:
        ladder.append(node_budget)

    prev = None
    est = None
    for n in ladder:
        x, w = _laguerre_nodes(n)
        try:
            vals = np.asarray(f(x), dtype=float)
            if vals.shape != x.shape:
                raise TypeError
        except (TypeError, ValueError):
            vals = np.array([float(f(xi)) for xi in x])
        if not np.all(np.isfinite(vals)):
            raise ValueError("expect_rayleigh: integrand returned non-finite values")
        prev, est = est, float(np.dot(w, vals))
    if prev is not None and abs(est - prev) <= tol * max(1.0, abs(est)):
        return est
    raise ConvergenceError(
        f"expect_rayleigh: no convergence to tol={tol:g} within {ladder[-1]} nodes"
        + ("" if prev is not None else " (single ladder level, nothing to compare)"),
        estimate=est,
    )
