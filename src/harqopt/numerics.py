"""Scalar special functions and Rayleigh-fading expectations, on numpy alone.

Everything in this module is generic numerics with no protocol knowledge:
complementary error function and Gaussian tail, the exponential integral,
and expectations against the unit-mean exponential density (Rayleigh
fading power).

The kernels follow the recipes behind the usual library routines:

- ``erfc`` is a port of Cephes ``ndtr.c`` with its rational approximations
  and Horner order: 1 - x T(x^2)/U(x^2) for |x| < 1, exp(-x^2) P(|x|)/Q(|x|)
  below 8 and exp(-x^2) R(|x|)/S(|x|) from 8 up, 0 (or 2 for negative x)
  once exp(-x^2) underflows.
- ``exp_integral_e1`` is Zhang and Jin's E1XB: a power series for x <= 1 and
  a backward-evaluated continued fraction for e^x E1(x) above.
- The Gauss-Laguerre rule is Golub-Welsch: the nodes are the eigenvalues of
  the Jacobi matrix of the Laguerre recurrence, refined by one Newton step,
  and the weights 1/(L_{n-1}(x) L_n'(x)) are log-normalized against
  overflow and scaled to sum to one.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError

_SQRT2 = math.sqrt(2.0)

# Cephes ndtr.c coefficients, highest power first. The monic denominators
# U, Q and S carry their leading 1.0 so one Horner routine serves all six.
_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
      7.00332514112805075473E3, 5.55923013010394962768E4)
_U = (1.0, 3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
      2.26290000613890934246E4, 4.92673942608635921086E4)
_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
      4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
      9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_Q = (1.0, 1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
      9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
      1.65666309194161350182E3, 5.57535340817727675546E2)
_R = (5.64189583547755073984E-1, 1.27536670759978104416E0, 5.01905042251180477414E0,
      6.16021097993053585195E0, 7.40974269950448939160E0, 2.97886665372100240670E0)
_S = (1.0, 2.26052863220117276590E0, 9.39603524938001434673E0, 1.20489539808096656605E1,
      1.70814450747565897222E1, 9.60896809063285878198E0, 3.36907645100081516050E0)
# log(DBL_MAX): exp(-x^2) is taken as 0 once x^2 exceeds it
_MAXLOG = 7.09782712893383996843E2

# Arrays are evaluated in blocks that stay in cache; inputs up to
# _SCALAR_MAX elements go element by element, where a dozen numpy calls
# per branch would cost far more than the arithmetic.
_BLOCK = 1 << 14
_SCALAR_MAX = 16

_EULER = 0.5772156649015328

# Node counts tried in order by expect_rayleigh; Gauss-Laguerre weight
# computation is numerically stable only up to a few hundred nodes.
_NODE_LADDER = (25, 50, 100, 200)

_laguerre_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _horner(x, coef):
    """Polynomial with coefficients ``coef`` (highest power first) at x, a
    float or an array, in Cephes' evaluation order."""
    ans = coef[0] * x
    ans += coef[1]
    for c in coef[2:]:
        ans *= x
        ans += c
    return ans


def _erfc_core(x):
    """erfc(x) for |x| < 1."""
    z = x * x
    return 1.0 - x * _horner(z, _T) / _horner(z, _U)


def _erfc_upper(ax, num, den):
    """erfc(ax) for 1 <= ax <= sqrt(_MAXLOG) from the rational factor
    num/den of its range."""
    return np.exp(-(ax * ax)) * _horner(ax, num) / _horner(ax, den)


def _erfc_scalar(v: float) -> float:
    a = abs(v)
    if a < 1.0:
        return float(_erfc_core(v))
    if a * a > _MAXLOG:
        y = 0.0
    else:
        y = float(_erfc_upper(a, _P, _Q) if a < 8.0 else _erfc_upper(a, _R, _S))
    return 2.0 - y if v < 0.0 else y


def _erfc_block(x: np.ndarray) -> np.ndarray:
    ax = np.abs(x)
    out = np.zeros_like(x)  # stays 0 where exp(-x^2) underflows
    core = ax < 1.0
    mid = ~core & (ax < 8.0)
    high = (ax >= 8.0) & (ax * ax <= _MAXLOG)
    if core.any():
        out[core] = _erfc_core(x.compress(core))
    if mid.any():
        out[mid] = _erfc_upper(ax.compress(mid), _P, _Q)
    if high.any():
        out[high] = _erfc_upper(ax.compress(high), _R, _S)
    return np.where(x <= -1.0, 2.0 - out, out)


def erfc(x):
    """Complementary error function, elementwise on scalars or arrays."""
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("erfc: input must be finite")
    if arr.size <= _SCALAR_MAX:
        out = np.array([_erfc_scalar(v) for v in arr.ravel().tolist()]).reshape(arr.shape)
    else:
        out = np.empty(arr.shape)
        src, dst = arr.reshape(-1), out.reshape(-1)
        for lo in range(0, src.size, _BLOCK):
            dst[lo:lo + _BLOCK] = _erfc_block(src[lo:lo + _BLOCK])
    if arr.ndim == 0:
        return float(out)
    return out


def q_function(x):
    """Gaussian tail probability Q(x) = 0.5 * erfc(x / sqrt(2))."""
    return 0.5 * erfc(np.asarray(x, dtype=float) / _SQRT2)


def exp_integral_e1(x: float, scaled: bool = False) -> float:
    """Exponential integral E1(x) = integral of exp(-t)/t from x to infinity.

    With ``scaled`` the result is e^x E1(x), which stays finite and accurate
    where E1 itself underflows.
    """
    xf = float(x)
    if not math.isfinite(xf) or xf <= 0.0:
        raise ValueError("exp_integral_e1: requires finite x > 0")
    if xf <= 1.0:
        # E1(x) = -gamma - ln x + x sum_{k>=0} r_k, r_0 = 1, r_k = -r_{k-1} k x / (k+1)^2
        e1 = 1.0
        r = 1.0
        for k in range(1, 26):
            r = -r * k * xf / ((k + 1.0) * (k + 1.0))
            e1 += r
            if abs(r) <= abs(e1) * 1e-15:
                break
        e1 = -_EULER - math.log(xf) + xf * e1
        return math.exp(xf) * e1 if scaled else e1
    # e^x E1(x) = 1/(x + 1/(1 + 1/(x + 2/(1 + 2/(x + ...))))), from the tail in
    t0 = 0.0
    for k in range(20 + int(80.0 / xf), 0, -1):
        t0 = k / (1.0 + k / (xf + t0))
    scaled_e1 = 1.0 / (xf + t0)
    return scaled_e1 if scaled else math.exp(-xf) * scaled_e1


def _laguerre_poly(n: int, x: np.ndarray) -> np.ndarray:
    """Laguerre polynomial L_n(x), n >= 1, by the three-term recurrence in
    its difference form."""
    d = -x
    p = d + 1.0
    for kk in range(n - 1):
        k = kk + 1.0
        d = -x / (k + 1.0) * p + (k / (k + 1.0)) * d
        p = d + p
    return p


def _laguerre_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Laguerre abscissae and weights (weights summing to one)."""
    if n not in _laguerre_cache:
        k = np.arange(n, dtype=float)
        jacobi = np.diag(2.0 * k + 1.0) - np.diag(k[1:], 1) - np.diag(k[1:], -1)
        x = np.linalg.eigvalsh(jacobi)
        # one Newton step on L_n, with L_n'(x) = n (L_n(x) - L_{n-1}(x)) / x
        y = _laguerre_poly(n, x)
        dy = (n * y - n * _laguerre_poly(n - 1, x)) / x
        x -= y / dy
        fm = _laguerre_poly(n - 1, x)
        log_fm = np.log(np.abs(fm))
        log_dy = np.log(np.abs(dy))
        fm /= np.exp((log_fm.max() + log_fm.min()) / 2.0)
        dy /= np.exp((log_dy.max() + log_dy.min()) / 2.0)
        w = 1.0 / (fm * dy)
        w *= 1.0 / w.sum()
        _laguerre_cache[n] = (x, w)
    return _laguerre_cache[n]


def expect_rayleigh(f, tol: float) -> float:
    """Expectation of f(g) with g a unit-mean exponential variable.

    Evaluates the integral of f(g) * exp(-g) over g >= 0 by Gauss-Laguerre
    quadrature. The node count climbs a fixed ladder (25, 50, 100, 200);
    the whole ladder is always evaluated and the finest estimate is
    returned, with the last two levels required to agree within ``tol``
    (relative above magnitude one, absolute below). Early-stopping on a
    coarser pair would silently trade accuracy for nothing, and the result
    must not depend on the tolerance requested.

    Parameters
    ----------
    f : callable
        Integrand without the exponential weight, vectorized: called on the
        numpy array of abscissae, it returns one value per abscissa.
    tol : float
        Convergence tolerance on the difference of successive estimates.

    Raises
    ------
    ConvergenceError
        If the ladder is exhausted without convergence. The error carries
        the last estimate in its ``estimate`` attribute.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError("expect_rayleigh: tol must be positive and finite")

    est = None
    for n in _NODE_LADDER:
        x, w = _laguerre_nodes(n)
        vals = np.asarray(f(x), dtype=float)
        if vals.shape != x.shape:
            raise ValueError("expect_rayleigh: integrand must return one value "
                             "per abscissa")
        if not np.all(np.isfinite(vals)):
            raise ValueError("expect_rayleigh: integrand returned non-finite values")
        prev, est = est, float(np.dot(w, vals))
    if abs(est - prev) <= tol * max(1.0, abs(est)):
        return est
    raise ConvergenceError(
        f"expect_rayleigh: no convergence to tol={tol:g} within "
        f"{_NODE_LADDER[-1]} nodes",
        estimate=est,
    )
