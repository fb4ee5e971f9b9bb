"""Joint rate and threshold optimization under an outage constraint.

The problem: maximize HARQ throughput eta = (1 - P_out)/sum(rho_i P_i)
over per-round rates drawn from a unit grid and over detection thresholds,
subject to P_out <= epsilon, a total-units budget, and box bounds. The
rate subproblem is solved exactly at fixed thresholds by one scan of the
grid: the feasible allocation with the largest eta wins. The threshold
subproblem runs projected gradient ascent on eta at fixed rates;
alternating the two yields a monotone objective.

The rate scan evaluates admissible unit allocations in one vectorized
pass. A compressed recursion over (round, sum units, sum units squared)
cannot represent the objective exactly: the missed-ACK memory inside P_i
and the stop-hazard cross term inside P_out both depend on the whole
prefix-failure path, not just the current sums. The scan skips only paths
that can never be feasible. The outage 1 - inner (1 - F_M) has inner <= 1
at any thresholds, so it is never below F_M; in floats, where 1 - F_M is
rounded, it can sit at most 2^-54 below. A path with F_M above epsilon +
2^-53 therefore misses epsilon at every threshold, and each scan visits
only the rows of the failure table with F_M <= epsilon + 2^-53. The
tables and their kept rows sit in two small LRU caches keyed by the frozen
grid and downlink specs. Only the outage floor that an InfeasibleError
reports is taken over the whole table, and only when it is read.

The whole-grid search has no formulas of its own: it hands the (paths, M)
float rate table to mi_model.p_fail_gaussian, and the rate and failure
tables to harq_analysis.occurrence_probabilities, expected_cost and
outage_from_failures, the same functions that evaluate a single policy.
best_feasible_allocation and the alternating loop's rate step share one
scan, _rate_scan, and its selector, _feasible_argmax.
brute_force_rate_allocation is the independent oracle: it walks the
candidates one at a time through the scalar API with its own cost loop and
tie-breaking, and must match best_feasible_allocation bit for bit.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import logging
import math
from dataclasses import dataclass

import numpy as np

from . import feedback_model, harq_analysis, mi_model
from .errors import GridError, InfeasibleError

_log = logging.getLogger(__name__)

_BRUTE_FORCE_BUDGET = 10_000_000  # raw candidate tuples before budget filter
_PATH_BUDGET = 20_000_000
_FD_STEP = 1e-4  # central-difference step in alpha
_PGD_STEP = 0.25  # first trial step of each PGD line search
_PGD_TOL = 1e-4  # PGD stops once an accepted step moves alpha less than this
_PGD_MAX_ITERS = 60
_ALT_MAX_ITERS = 50
_ALT_TOL = 1e-6  # alternating loop stops on a smaller objective gain
# computed outage is at least F_M minus 2^-54 (see the module docstring)
_ROUNDING_SLACK = 2.0 ** -53
# box of every detection threshold the optimizer searches
ALPHA_BOX = (0.0, 3.0)


@dataclass(frozen=True)
class RateGrid:
    """Unit discretization of the rate box: rho_k = n_k * unit_rho."""

    unit_rho: float
    min_units: int
    max_units: int
    units_total: int

    def __post_init__(self):
        if not (math.isfinite(self.unit_rho) and self.unit_rho > 0.0):
            raise ValueError("RateGrid: unit_rho must be positive")
        if not 1 <= self.min_units <= self.max_units:
            raise ValueError("RateGrid: need 1 <= min_units <= max_units")
        if self.units_total < self.min_units:
            raise ValueError("RateGrid: budget below min_units")


@dataclass(frozen=True)
class Solution:
    """Alternating-optimization result with its per-iteration objective."""

    policy: harq_analysis.HarqPolicy
    breakdown: harq_analysis.PerformanceBreakdown
    iterations: int
    converged: bool
    feasible: bool
    trace: tuple[float, ...]


def make_rate_grid(n_b: int, n_m: int, units_total: int, min_units: int = 1,
                   max_units: int | None = None) -> RateGrid:
    """Grid whose full budget spends the whole mother codeword: unit_rho = n_m/(units_total n_b)."""
    if n_b < 1 or n_m < 1 or units_total < 1:
        raise ValueError("make_rate_grid: sizes must be positive")
    if max_units is None:
        max_units = units_total
    return RateGrid(
        unit_rho=n_m / (units_total * n_b),
        min_units=min_units,
        max_units=max_units,
        units_total=units_total,
    )


def _enumerate_units(grid: RateGrid, m: int) -> np.ndarray:
    """All unit allocations within bounds and budget, lexicographically ascending."""
    lo, hi, total = grid.min_units, grid.max_units, grid.units_total
    if lo * m > total:
        raise InfeasibleError(
            f"unit bounds admit no allocation: {m} rounds at >= {lo} units "
            f"exceed the budget of {total}"
        )
    vals = np.arange(lo, hi + 1, dtype=np.int64)
    paths = vals.reshape(-1, 1)
    paths = paths[paths[:, 0] <= total - (m - 1) * lo]
    for k in range(1, m):
        n0 = paths.shape[0]
        ext = np.empty((n0 * vals.size, k + 1), dtype=np.int64)
        ext[:, :k] = np.repeat(paths, vals.size, axis=0)
        ext[:, k] = np.tile(vals, n0)
        # prune partial sums that cannot stay within budget
        cap = total - (m - k - 1) * lo
        paths = ext[ext.sum(axis=1) <= cap]
        if paths.shape[0] > _PATH_BUDGET:
            raise GridError(
                f"allocation space exceeds {_PATH_BUDGET} paths; shrink the grid"
            )
    return paths


@functools.lru_cache(maxsize=4)
def _failure_table(grid: RateGrid, m: int, dl) -> tuple[np.ndarray, np.ndarray]:
    """(rhos, F): rhos[p] the rates of path p (its units times unit_rho) and
    F[p, k] its Gaussian prefix-failure probability."""
    rhos = _enumerate_units(grid, m) * grid.unit_rho
    return rhos, mi_model.p_fail_gaussian(rhos, dl)


@functools.lru_cache(maxsize=4)
def _kept_rows(grid: RateGrid, m: int, dl,
               epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """(rhos, F) of the failure table restricted, in path order, to the
    paths that can meet epsilon at some thresholds: F_M <= epsilon + slack."""
    rhos, F = _failure_table(grid, m, dl)
    keep = F[:, -1] <= epsilon + _ROUNDING_SLACK
    return rhos[keep], F[keep]


def _cost_outage(rhos: np.ndarray, F: np.ndarray,
                 rates: feedback_model.FeedbackErrorRates) -> tuple[np.ndarray, np.ndarray]:
    """Per-path expected normalized symbols and outage."""
    P = harq_analysis.occurrence_probabilities(F, rates.p_nack, rates.p_ack)
    return (harq_analysis.expected_cost(rhos, P),
            harq_analysis.outage_from_failures(F, rates.p_nack))


def _feasible_argmax(cost: np.ndarray, outage: np.ndarray, epsilon: float,
                     rhos: np.ndarray, unit_rho: float) -> int | None:
    """Index of the path maximizing (1 - outage)/cost among those with
    outage <= epsilon, None when there is none; ties prefer fewer total
    units, then the first (lexicographically smallest, given ascending
    enumeration) allocation."""
    feasible = np.flatnonzero(outage <= epsilon)
    if feasible.size == 0:
        return None
    eta = (1.0 - outage[feasible]) / cost[feasible]
    cand = feasible[eta == eta.max()]
    if cand.size > 1:
        totals = np.rint(rhos[cand] / unit_rho).sum(axis=1)
        cand = cand[totals == totals.min()]
    return int(cand[0])


def brute_force_rate_allocation(rates: feedback_model.FeedbackErrorRates, dl,
                                grid: RateGrid, m: int,
                                epsilon: float) -> tuple[np.ndarray, float]:
    """Scalar oracle for best_feasible_allocation: explicit loop over
    candidates through the public analysis functions, identical
    tie-breaking and identical InfeasibleError floor."""
    if len(rates) != m - 1:
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
        P = harq_analysis.occurrence_probabilities(F, rates.p_nack, rates.p_ack)
        cost = 0.0
        for i in range(m):
            cost = cost + rhos[i] * P[i]
        outage = harq_analysis.outage_from_failures(F, rates.p_nack)
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


def min_achievable_outage(alphas, dl, fb: feedback_model.FeedbackSpec,
                          grid: RateGrid, m: int) -> float:
    """Smallest grid-achievable outage at the given thresholds."""
    rates = feedback_model.error_rates_for(fb, alphas)
    return _outage_floor(grid, m, dl, rates.p_nack)


def _outage_floor(grid: RateGrid, m: int, dl, p_nack) -> float:
    """Smallest outage over the whole failure table at these NACK error rates."""
    _, F = _failure_table(grid, m, dl)
    return float(harq_analysis.outage_from_failures(F, p_nack).min())


def _rate_scan(rates: feedback_model.FeedbackErrorRates, dl, grid: RateGrid,
               m: int, epsilon: float) -> tuple[np.ndarray, float]:
    """best_feasible_allocation over the kept rows; the outage floor of its
    InfeasibleError is taken over the whole table, when it is first read."""
    rhos, F = _kept_rows(grid, m, dl, epsilon)
    cost, outage = _cost_outage(rhos, F, rates)
    best = _feasible_argmax(cost, outage, epsilon, rhos, grid.unit_rho)
    if best is None:
        raise InfeasibleError(
            f"no allocation meets outage {epsilon:g} at these error rates",
            min_outage=functools.partial(_outage_floor, grid, m, dl, rates.p_nack),
        )
    return rhos[best].copy(), float((1.0 - outage[best]) / cost[best])


def best_feasible_allocation(rates: feedback_model.FeedbackErrorRates, dl,
                             grid: RateGrid, m: int,
                             epsilon: float) -> tuple[np.ndarray, float]:
    """Exact constrained optimum over the whole grid: the allocation
    maximizing (1 - P_out)/cost among those with P_out <= epsilon, and
    that throughput.

    Takes the per-round error pairs, so it serves threshold-derived rates
    (error_rates_for) and other feedback schemes alike. Raises
    InfeasibleError carrying the grid's minimum outage when no allocation
    meets epsilon.
    """
    if len(rates) != m - 1:
        raise ValueError("best_feasible_allocation: need error rates for m-1 feedbacks")
    return _rate_scan(rates, dl, grid, m, epsilon)


def _bisect_upper(lo: float, hi: float, ok, steps: int) -> float:
    """Upper bracket end after `steps` halvings of [lo, hi]: ok(hi) is
    assumed true, and the end moves down to every midpoint where ok holds."""
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _threshold_objective(rhos, dl, fb: feedback_model.FeedbackSpec):
    """Factory: alpha vector -> (eta, outage) at fixed rates."""
    F = mi_model.p_fail_gaussian(rhos, dl)

    def evaluate(alphas) -> tuple[float, float]:
        cost, out = _cost_outage(rhos, F, feedback_model.error_rates_for(fb, alphas))
        return (1.0 - out) / cost, out

    return evaluate


def optimize_thresholds_pgd(rhos, dl, fb: feedback_model.FeedbackSpec,
                            epsilon: float, *, start_alphas=None) -> np.ndarray:
    """Projected gradient ascent on throughput over ALPHA_BOX, subject to
    outage <= epsilon.

    Gradient by central differences (probes may leave the box, where the
    error-rate formulas remain valid); infeasible iterates are pulled back
    by bisection toward the elementwise-larger envelope of the incumbent,
    so coordinates only grow during projection. Accepts only improving
    steps, so the returned point is feasible and at least as good as the
    starting one.
    """
    rhos = tuple(float(r) for r in rhos)
    k = len(rhos) - 1
    if k == 0:
        return np.zeros(0)
    evaluate = _threshold_objective(rhos, dl, fb)
    lo, hi = ALPHA_BOX

    def feasible(x) -> bool:
        return evaluate(x)[1] <= epsilon

    top = np.full(k, hi)
    if not feasible(top):
        raise InfeasibleError(
            "no feasible thresholds inside the box at these rates",
            min_outage=evaluate(top)[1],
        )

    def pull_back(cand: np.ndarray, anchor: np.ndarray) -> np.ndarray:
        # anchor is feasible; raising thresholds never raises outage, so the
        # elementwise max is feasible and bisection meets the boundary
        if feasible(cand):
            return cand
        ref = np.maximum(cand, anchor)
        t = _bisect_upper(0.0, 1.0, lambda t: feasible(cand + t * (ref - cand)), 60)
        return cand + t * (ref - cand)

    if start_alphas is not None:
        x = np.clip(np.asarray(start_alphas, dtype=float), lo, hi)
        if x.shape != (k,):
            raise ValueError("optimize_thresholds_pgd: start_alphas length mismatch")
        x = pull_back(x, top)
    else:
        # start at the smallest feasible uniform threshold
        floor = np.full(k, lo)
        if feasible(floor):
            x = floor
        else:
            x = np.full(k, _bisect_upper(lo, hi, lambda s: feasible(np.full(k, s)), 60))

    eta_x, _ = evaluate(x)
    for _ in range(_PGD_MAX_ITERS):
        grad = np.empty(k)
        for j in range(k):
            up = x.copy()
            up[j] += _FD_STEP
            dn = x.copy()
            dn[j] -= _FD_STEP
            grad[j] = (evaluate(up)[0] - evaluate(dn)[0]) / (2.0 * _FD_STEP)
        step = _PGD_STEP
        moved = 0.0
        for _ in range(30):
            cand = pull_back(np.clip(x + step * grad, lo, hi), x)
            eta_c, _ = evaluate(cand)
            if eta_c > eta_x:
                moved = float(np.max(np.abs(cand - x)))
                x, eta_x = cand, eta_c
                break
            step *= 0.5
        if moved < _PGD_TOL:
            break
    return x


def alternating_optimize(dl, fb: feedback_model.FeedbackSpec,
                         start: harq_analysis.HarqPolicy, grid: RateGrid,
                         epsilon: float) -> Solution:
    """Alternate the exact rate scan and PGD threshold tuning from `start`
    over the rates of `grid`, subject to outage <= epsilon.

    The start policy fixes the block geometry and rate box of the result and
    is its starting point: the thresholds start at start.alphas clipped to
    ALPHA_BOX, and start.rhos is the first incumbent when it meets epsilon
    at those thresholds. If the starting thresholds cannot meet epsilon for
    any grid allocation, they are first raised to the smallest feasible
    uniform level. The incumbent is only ever replaced by a better-or-equal
    candidate, so the recorded objective trace is non-decreasing by
    construction.

    The grid must fit the start policy, which the result keeps: its unit
    box inside [rho_min, rho_max] and its whole budget at most n_m/n_b.
    Raises ValueError otherwise and for epsilon outside (0, 1).

    The rate step is best_feasible_allocation's scan at the current
    thresholds: the feasible grid allocation of largest throughput.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("alternating_optimize: epsilon must lie in (0, 1)")
    slack = 1e-9 * grid.unit_rho
    if (grid.min_units * grid.unit_rho < start.rho_min - slack
            or grid.max_units * grid.unit_rho > start.rho_max + slack
            or grid.units_total * grid.unit_rho > start.n_m / start.n_b + slack):
        raise ValueError("alternating_optimize: the rate grid does not fit the "
                         "start policy's rate box and mother code")
    m = start.m_max
    lo, hi = ALPHA_BOX
    k = m - 1
    alphas = np.clip(np.asarray(start.alphas, dtype=float), lo, hi)

    _, kept_F = _kept_rows(grid, m, dl, epsilon)

    def reaches(a: np.ndarray) -> bool:
        # some allocation meets epsilon at thresholds a; only kept rows can,
        # so with none kept this is an infeasibility certificate
        p_nack = feedback_model.error_rates_for(fb, a).p_nack
        outage = harq_analysis.outage_from_failures(kept_F, p_nack)
        return bool((outage <= epsilon).any())

    if k > 0 and not reaches(alphas):
        # bootstrap: raise thresholds uniformly until some allocation is feasible
        top = np.full(k, hi)
        if not reaches(top):
            raise InfeasibleError(
                f"outage constraint {epsilon:g} unreachable for any "
                "thresholds in the box",
                min_outage=min_achievable_outage(top, dl, fb, grid, m),
                iteration=0,
            )
        alphas = np.maximum(alphas, _bisect_upper(
            lo, hi, lambda s: reaches(np.maximum(alphas, s)), 40))
        _log.debug("alternating_optimize: raised start thresholds to %s", alphas)

    rhos_inc = start.rhos
    eta_inc = -math.inf
    prev = None
    eta0, out0 = _threshold_objective(start.rhos, dl, fb)(alphas)
    # an infeasible seed must not become the incumbent: its inflated
    # throughput would veto every constraint-satisfying update and the
    # loop would return the seed itself
    if out0 <= epsilon:
        eta_inc = eta0
        prev = eta_inc

    trace: list[float] = []
    converged = False
    iterations = 0
    for it in range(1, _ALT_MAX_ITERS + 1):
        iterations = it
        try:
            rhos_new, eta_new = _rate_scan(feedback_model.error_rates_for(fb, alphas),
                                           dl, grid, m, epsilon)
        except InfeasibleError as err:
            err.iteration = it
            raise
        if eta_new >= eta_inc:
            rhos_inc, eta_inc = rhos_new, eta_new

        if k > 0:
            alphas_new = optimize_thresholds_pgd(
                rhos_inc, dl, fb, epsilon, start_alphas=alphas
            )
            eta_alpha, _ = _threshold_objective(rhos_inc, dl, fb)(alphas_new)
            if eta_alpha >= eta_inc:
                alphas, eta_inc = alphas_new, eta_alpha

        trace.append(float(eta_inc))
        if prev is not None and eta_inc - prev < _ALT_TOL:
            converged = True
            break
        prev = eta_inc

    policy = dataclasses.replace(start, rhos=tuple(rhos_inc),
                                 alphas=tuple(alphas))
    breakdown = harq_analysis.unreliable_throughput(policy, dl, fb)
    return Solution(
        policy=policy,
        breakdown=breakdown,
        iterations=iterations,
        converged=converged,
        feasible=breakdown.p_out_unreliable <= epsilon * (1.0 + 1e-6),
        trace=tuple(trace),
    )
