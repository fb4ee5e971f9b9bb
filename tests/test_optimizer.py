"""Rate allocation, threshold search, and the alternating solver.

The exhaustive enumerations here are the ground truth for the staged
search: equality is exact (same floating-point accumulation order on both
routes), not approximate.
"""

import dataclasses

import numpy as np
import pytest

from harqopt import feedback_model, harq_analysis, mi_model, optimizer
from harqopt.errors import GridError, InfeasibleError


def eval_policy(rhos, alphas, dl, snr_u_db, grid, n_b=1024, n_m=4096):
    fb = feedback_model.make_feedback_spec(snr_u_db)
    pol = harq_analysis.HarqPolicy(
        rhos=tuple(rhos), alphas=tuple(alphas), m_max=len(rhos),
        n_b=n_b, n_m=n_m, rho_min=grid.unit_rho,
        rho_max=grid.max_units * grid.unit_rho,
    )
    return harq_analysis.unreliable_throughput(pol, dl, fb)


def test_make_rate_grid_basics():
    grid = optimizer.make_rate_grid(1024, 4096, 64)
    assert grid.unit_rho == pytest.approx(1.0 / 16.0)
    assert grid.min_units == 1 and grid.max_units == 64
    with pytest.raises(ValueError):
        optimizer.make_rate_grid(0, 4096, 64)
    with pytest.raises(ValueError):
        optimizer.make_rate_grid(1024, 4096, 64, min_units=8, max_units=4)


def test_optimizer_config_validation(dl3, grid64):
    # the problem is passed whole: an outage budget outside (0, 1), or a
    # grid that does not fit the start policy, is refused, never searched
    fb = feedback_model.make_feedback_spec(-10.0)
    start = default_template()  # rates in [1/16, 4], n_m/n_b = 4
    for eps in (0.0, 1.0, 1.5):
        with pytest.raises(ValueError, match=r"epsilon must lie in \(0, 1\)"):
            optimizer.alternating_optimize(dl3, fb, start, grid64, eps)
    misfits = [
        dataclasses.replace(grid64, units_total=128),  # budget 8 > 4
        dataclasses.replace(grid64, max_units=80),     # rates up to 5 > 4
        dataclasses.replace(grid64, unit_rho=1 / 32),  # rates from 1/32 < 1/16
    ]
    for grid in misfits:
        with pytest.raises(ValueError, match="does not fit"):
            optimizer.alternating_optimize(dl3, fb, start, grid, 0.01)


def assert_scan_equals_brute_force(rates, dl, grid, m, eps) -> bool:
    """best_feasible_allocation and the scalar oracle agree bit for bit,
    including the outage floor they report when nothing is feasible.
    Returns whether the instance was feasible."""
    try:
        r_scan, v_scan = optimizer.best_feasible_allocation(rates, dl, grid, m, eps)
    except InfeasibleError as err:
        with pytest.raises(InfeasibleError) as exc:
            optimizer.brute_force_rate_allocation(rates, dl, grid, m, eps)
        assert exc.value.min_outage == err.min_outage > eps
        return False
    r_bf, v_bf = optimizer.brute_force_rate_allocation(rates, dl, grid, m, eps)
    assert v_scan == v_bf
    np.testing.assert_array_equal(r_scan, r_bf)
    return True


def test_scan_matches_brute_force_random_instances(dl3):
    rng = np.random.default_rng(314)
    feasible = []
    for _ in range(10):
        m = int(rng.integers(2, 4))
        units = int(rng.integers(m, 17))
        grid = optimizer.make_rate_grid(1024, 4096, units)
        alphas = tuple(rng.uniform(0.0, 2.0, size=m - 1))
        fb = feedback_model.make_feedback_spec(rng.uniform(-15.0, -5.0))
        rates = feedback_model.error_rates_for(fb, alphas)
        eps = float(rng.choice([1e-6, rng.uniform(0.0, 0.2), 0.999]))
        feasible.append(assert_scan_equals_brute_force(rates, dl3, grid, m, eps))
    assert any(feasible) and not all(feasible)


def test_stacked_formulas_equal_row_by_row_on_default_grid(dl3, grid64):
    # the whole-grid search feeds (paths, 4) arrays through the same
    # formulas that evaluate one policy; each stacked row must equal the
    # scalar call on that row exactly
    rng = np.random.default_rng(2401)
    paths = optimizer._enumerate_units(grid64, 4)
    units = paths[rng.choice(paths.shape[0], size=500, replace=False)]
    rhos = units * grid64.unit_rho
    F = mi_model.p_fail_gaussian(rhos, dl3)
    F_rows = [mi_model.p_fail_gaussian(tuple(row), dl3) for row in rhos]
    np.testing.assert_array_equal(F, np.array(F_rows))
    for _ in range(3):
        alphas = tuple(rng.uniform(0.0, 2.0, size=3))
        fb = feedback_model.make_feedback_spec(rng.uniform(-15.0, -5.0))
        rates = feedback_model.error_rates_for(fb, alphas)
        P = harq_analysis.occurrence_probabilities(F, rates.p_nack, rates.p_ack)
        out = harq_analysis.outage_from_failures(F, rates.p_nack)
        assert P.shape == (500, 4) and out.shape == (500,)
        np.testing.assert_array_equal(P, np.array([
            harq_analysis.occurrence_probabilities(row, rates.p_nack, rates.p_ack)
            for row in F_rows
        ]))
        np.testing.assert_array_equal(out, np.array([
            harq_analysis.outage_from_failures(row, rates.p_nack) for row in F_rows
        ]))
        cost = harq_analysis.expected_cost(rhos, P)
        assert cost.shape == (500,)
        np.testing.assert_array_equal(cost, np.array([
            harq_analysis.expected_cost(tuple(r), p) for r, p in zip(rhos, P)
        ]))


def test_float_table_on_non_dyadic_grid(dl3):
    # unit_rho = 4000 / (36 * 1000) is not a power of two: the cached float
    # table must still round back to the enumerated units, and the
    # production rate scan must match the scalar oracle bit for bit
    grid = optimizer.make_rate_grid(1000, 4000, 36)
    table_rhos, _ = optimizer._failure_table(grid, 3, dl3)
    np.testing.assert_array_equal(np.rint(table_rhos / grid.unit_rho),
                                  optimizer._enumerate_units(grid, 3))
    fb = feedback_model.make_feedback_spec(-10.0)
    rates = feedback_model.error_rates_for(fb, (0.5, 1.0))
    feasible = [assert_scan_equals_brute_force(rates, dl3, grid, 3, eps)
                for eps in (0.02, 0.05, 0.5)]
    assert feasible == [False, True, True]


@pytest.mark.parametrize("side", [-1, 0, 1])
def test_scan_keeps_paths_at_the_prune_boundary(dl3, side):
    # perfect feedback makes the outage 1 - (1 - F_M), which rounds to just
    # below F_M on the (4, 4, 4) path; that path meets a budget one ulp
    # under its own F_M and is the optimum there, so a prune of the rows
    # with F_M > epsilon that had no float slack would lose it
    grid = optimizer.make_rate_grid(1024, 4096, 16)
    fb = feedback_model.make_feedback_spec(200.0)
    rates = feedback_model.error_rates_for(fb, (0.5, 0.5))
    F = mi_model.p_fail_gaussian((1.0, 1.0, 1.0), dl3)
    f_m = float(F[-1])
    assert harq_analysis.outage_from_failures(F, rates.p_nack) < f_m
    eps = float(np.nextafter(f_m, side)) if side else f_m
    assert assert_scan_equals_brute_force(rates, dl3, grid, 3, eps)
    if side < 0:
        rhos, _ = optimizer.best_feasible_allocation(rates, dl3, grid, 3, eps)
        np.testing.assert_array_equal(rhos, [1.0, 1.0, 1.0])


def test_scan_with_no_kept_path_reports_whole_grid_floor(dl3):
    # a budget below every path's F_M keeps no row; the floor must still be
    # the smallest outage over all paths
    grid = optimizer.make_rate_grid(1024, 4096, 16)
    rates = feedback_model.error_rates_for(feedback_model.make_feedback_spec(-10.0),
                                           (0.5, 0.5))
    _, F = optimizer._failure_table(grid, 3, dl3)
    eps = 0.5 * float(F[:, -1].min())
    kept_rhos, _ = optimizer._kept_rows(grid, 3, dl3, eps)
    assert kept_rhos.shape[0] == 0
    assert not assert_scan_equals_brute_force(rates, dl3, grid, 3, eps)


def test_scan_value_is_direct_throughput(dl3):
    grid = optimizer.make_rate_grid(1024, 4096, 16)
    alphas = (0.5, 1.0)
    snr_u = -10.0
    fb = feedback_model.make_feedback_spec(snr_u)
    rates = feedback_model.error_rates_for(fb, alphas)
    rhos, value = optimizer.best_feasible_allocation(rates, dl3, grid, 3, 0.05)
    direct = eval_policy(rhos, alphas, dl3, snr_u, grid)
    assert direct.p_out_unreliable <= 0.05
    assert value == pytest.approx(direct.throughput, abs=1e-9)


def test_epsilon_at_floor_reaches_grid_minimum_outage(dl3):
    grid = optimizer.make_rate_grid(1024, 4096, 16)
    alphas = (0.5,)
    fb = feedback_model.make_feedback_spec(-10.0)
    rates = feedback_model.error_rates_for(fb, alphas)
    floor = optimizer.min_achievable_outage(alphas, dl3, fb, grid, 2)
    rhos, _ = optimizer.best_feasible_allocation(rates, dl3, grid, 2, floor)
    achieved = eval_policy(rhos, alphas, dl3, -10.0, grid).p_out_unreliable
    assert achieved == pytest.approx(floor, abs=1e-12)


def test_brute_force_single_round(dl3):
    grid = optimizer.make_rate_grid(1024, 4096, 8)
    rates = feedback_model.FeedbackErrorRates(p_nack=(), p_ack=())
    r_bf, v_bf = optimizer.brute_force_rate_allocation(rates, dl3, grid, 1, 0.5)
    r_scan, v_scan = optimizer.best_feasible_allocation(rates, dl3, grid, 1, 0.5)
    assert v_bf == v_scan and r_bf[0] == r_scan[0]
    # error rates for m - 1 feedbacks are required
    for alloc in (optimizer.brute_force_rate_allocation,
                  optimizer.best_feasible_allocation):
        with pytest.raises(ValueError):
            alloc(rates, dl3, grid, 2, 0.5)


def test_brute_force_value_monotone_in_epsilon(dl3):
    # a larger outage budget only enlarges the feasible set
    grid = optimizer.make_rate_grid(1024, 4096, 12)
    alphas = (0.5, 0.5)
    fb = feedback_model.make_feedback_spec(-10.0)
    rates = feedback_model.error_rates_for(fb, alphas)
    floor = optimizer.min_achievable_outage(alphas, dl3, fb, grid, 3)
    values = []
    for eps in np.geomspace(floor, 0.5, 12):
        _, v = optimizer.brute_force_rate_allocation(rates, dl3, grid, 3, float(eps))
        values.append(v)
    assert np.all(np.diff(values) >= 0.0)
    assert values[-1] > values[0]


def test_brute_force_budget_guard(dl3):
    grid = optimizer.make_rate_grid(1024, 4096, 64)
    alphas = (0.5,) * 5
    fb = feedback_model.make_feedback_spec(-10.0)
    rates = feedback_model.error_rates_for(fb, alphas)
    with pytest.raises(GridError):
        optimizer.brute_force_rate_allocation(rates, dl3, grid, 6, 0.01)


def test_scan_at_loose_epsilon_returns_throughput_argmax(dl3):
    # with no binding budget the scan returns the grid's throughput argmax
    grid = optimizer.make_rate_grid(1024, 4096, 16)
    alphas = (0.5,)
    fb = feedback_model.make_feedback_spec(-10.0)
    rates = feedback_model.error_rates_for(fb, alphas)
    rhos, eta = optimizer.best_feasible_allocation(rates, dl3, grid, 2, 0.999999)
    table_rhos, F = optimizer._failure_table(grid, 2, dl3)
    cost, outage = optimizer._cost_outage(table_rhos, F, rates)
    assert outage.max() <= 0.999999
    best = int(np.argmax((1.0 - outage) / cost))
    np.testing.assert_array_equal(rhos, table_rhos[best])
    assert eta == (1.0 - outage[best]) / cost[best]


def test_scan_infeasible_names_floor(dl3):
    grid = optimizer.make_rate_grid(1024, 4096, 16)
    alphas = (0.5,)
    fb = feedback_model.make_feedback_spec(-10.0)
    rates = feedback_model.error_rates_for(fb, alphas)
    with pytest.raises(InfeasibleError) as exc:
        optimizer.best_feasible_allocation(rates, dl3, grid, 2, 0.02)
    floor = optimizer.min_achievable_outage(alphas, dl3, fb, grid, 2)
    assert exc.value.min_outage == pytest.approx(floor, rel=1e-12)


def test_infeasible_scan_reads_whole_table_only_for_its_floor(dl3, monkeypatch):
    # callers that drop the error (the fixed-threshold scan) never pay for
    # the whole-table outage floor; reading it evaluates it once
    grid = optimizer.make_rate_grid(1024, 4096, 16)
    rates = feedback_model.error_rates_for(feedback_model.make_feedback_spec(-10.0),
                                           (0.5,))
    paths = optimizer._failure_table(grid, 2, dl3)[1].shape[0]
    rows = []
    real = harq_analysis.outage_from_failures

    def spy(F, p_nack):
        rows.append(F.shape[0])
        return real(F, p_nack)

    monkeypatch.setattr(harq_analysis, "outage_from_failures", spy)
    with pytest.raises(InfeasibleError) as exc:
        optimizer.best_feasible_allocation(rates, dl3, grid, 2, 0.02)
    assert rows and paths not in rows
    floor = exc.value.min_outage
    assert rows[-1] == paths and exc.value.min_outage == floor > 0.02
    assert rows.count(paths) == 1


def test_kept_rows_cache_is_bounded(dl3):
    # an epsilon ladder over one table holds at most four kept-row copies
    grid = optimizer.make_rate_grid(1024, 4096, 16)
    for eps in np.geomspace(1e-4, 0.5, 20):
        optimizer._kept_rows(grid, 3, dl3, float(eps))
    assert optimizer._kept_rows.cache_info().currsize <= 4
    assert optimizer._failure_table.cache_info().currsize <= 4


@pytest.mark.parametrize("eps", [0.045, 0.05, 0.07, 0.10])
def test_scan_matches_constrained_enumeration(dl3, eps):
    # the exact scan reaches the constrained optimum at every budget, also
    # off the cost/outage convex hull (0.05 here), where a Lagrangian
    # search over cost + lambda * outage cannot
    grid = optimizer.make_rate_grid(1024, 4096, 16)
    alphas = (0.5,)
    fb = feedback_model.make_feedback_spec(-10.0)
    rates = feedback_model.error_rates_for(fb, alphas)
    rhos, _ = optimizer.best_feasible_allocation(rates, dl3, grid, 2, eps)
    got = eval_policy(rhos, alphas, dl3, -10.0, grid)
    assert got.p_out_unreliable <= eps
    best = -1.0
    for u1 in range(1, 16):
        for u2 in range(1, 17 - u1):
            bd = eval_policy((u1 * grid.unit_rho, u2 * grid.unit_rho),
                             alphas, dl3, -10.0, grid)
            if bd.p_out_unreliable <= eps:
                best = max(best, bd.throughput)
    assert got.throughput == best


def test_best_feasible_allocation_is_enumeration_argmax(dl3):
    grid = optimizer.make_rate_grid(1024, 4096, 16)
    alphas = (0.5,)
    fb = feedback_model.make_feedback_spec(-10.0)
    rates = feedback_model.error_rates_for(fb, alphas)
    rhos, eta = optimizer.best_feasible_allocation(rates, dl3, grid, 2, 0.05)
    best = (-1.0, None)
    for u1 in range(1, 16):
        for u2 in range(1, 17 - u1):
            bd = eval_policy((u1 * grid.unit_rho, u2 * grid.unit_rho),
                             alphas, dl3, -10.0, grid)
            if bd.p_out_unreliable <= 0.05 and bd.throughput > best[0]:
                best = (bd.throughput, (u1 * grid.unit_rho, u2 * grid.unit_rho))
    assert eta == pytest.approx(best[0], rel=1e-12)
    assert tuple(rhos) == pytest.approx(best[1])
    with pytest.raises(InfeasibleError) as exc:
        optimizer.best_feasible_allocation(rates, dl3, grid, 2, 1e-4)
    assert exc.value.min_outage > 1e-4


def test_pgd_perfect_feedback_prefers_low_thresholds(dl3):
    fb = feedback_model.make_feedback_spec(200.0)
    al = optimizer.optimize_thresholds_pgd((1.0, 1.0, 1.0, 1.0), dl3, fb, 0.01)
    np.testing.assert_allclose(al, optimizer.ALPHA_BOX[0], atol=1e-12)


def test_pgd_single_threshold_matches_dense_scan(dl3):
    grid = optimizer.make_rate_grid(1024, 4096, 16)
    rhos = (7 * grid.unit_rho, 7 * grid.unit_rho)
    fb = feedback_model.make_feedback_spec(-10.0)
    al = optimizer.optimize_thresholds_pgd(rhos, dl3, fb, 0.05)
    got = eval_policy(rhos, al, dl3, -10.0, grid)
    assert got.p_out_unreliable <= 0.05 * (1.0 + 1e-9)
    best = -1.0
    for a in np.linspace(*optimizer.ALPHA_BOX, 3001):
        bd = eval_policy(rhos, (float(a),), dl3, -10.0, grid)
        if bd.p_out_unreliable <= 0.05:
            best = max(best, bd.throughput)
    assert abs(got.throughput - best) <= 1e-3
    assert got.throughput >= best - 1e-6  # local method may only beat the scan


def test_pgd_beats_uniform_scan_at_equal_rates(dl3):
    grid = optimizer.make_rate_grid(1024, 4096, 64)
    rhos = (1.0, 1.0, 1.0, 1.0)
    fb = feedback_model.make_feedback_spec(-10.0)
    al = optimizer.optimize_thresholds_pgd(rhos, dl3, fb, 0.01)
    got = eval_policy(rhos, al, dl3, -10.0, grid)
    best = -1.0
    for a in np.linspace(*optimizer.ALPHA_BOX, 50):
        bd = eval_policy(rhos, (float(a),) * 3, dl3, -10.0, grid)
        if bd.p_out_unreliable <= 0.01:
            best = max(best, bd.throughput)
    assert got.throughput >= best - 1e-6
    assert got.p_out_unreliable <= 0.01 * (1.0 + 1e-9)


def test_pgd_infeasible_box(dl3):
    fb = feedback_model.make_feedback_spec(-15.0)
    with pytest.raises(InfeasibleError):
        optimizer.optimize_thresholds_pgd((1.0, 1.0, 1.0, 1.0), dl3, fb, 1e-4)


def default_template():
    return harq_analysis.HarqPolicy(
        rhos=(0.5, 0.5, 0.5, 0.5), alphas=(0.5, 0.5, 0.5), m_max=4,
        n_b=1024, n_m=4096, rho_min=1.0 / 16.0, rho_max=4.0,
    )


def test_alternating_default_run(dl3, grid64):
    fb = feedback_model.make_feedback_spec(-10.0)
    sol = optimizer.alternating_optimize(dl3, fb, default_template(), grid64, 0.01)
    assert sol.feasible and sol.converged
    assert sol.iterations <= optimizer._ALT_MAX_ITERS
    assert sol.breakdown.p_out_unreliable <= 0.01 * (1.0 + 1e-6)
    assert sum(sol.policy.rhos) <= 4.0 + 1e-12
    trace = np.asarray(sol.trace)
    assert np.all(np.diff(trace) >= -1e-9)
    assert trace[-1] == pytest.approx(sol.breakdown.throughput, abs=1e-12)


def test_alternating_deterministic(dl3, grid64):
    fb = feedback_model.make_feedback_spec(-10.0)
    a = optimizer.alternating_optimize(dl3, fb, default_template(), grid64, 0.01)
    b = optimizer.alternating_optimize(dl3, fb, default_template(), grid64, 0.01)
    assert a.policy.rhos == b.policy.rhos
    assert a.policy.alphas == b.policy.alphas
    assert a.breakdown.throughput == b.breakdown.throughput


def test_alternating_warm_start_converges_immediately(dl3, grid64):
    fb = feedback_model.make_feedback_spec(-10.0)
    cold = optimizer.alternating_optimize(dl3, fb, default_template(), grid64, 0.01)
    warm = optimizer.alternating_optimize(dl3, fb, cold.policy, grid64, 0.01)
    assert warm.iterations == 1
    assert warm.breakdown.throughput >= cold.breakdown.throughput - 1e-12


def test_alternating_rejects_infeasible_seed(dl3, grid64):
    # a warm-start pair violating the outage budget must not survive as the
    # returned incumbent just because its (unconstrained) throughput is high
    start = dataclasses.replace(
        default_template(),
        rhos=tuple(u / 16 for u in (17, 11, 20, 16)),
        alphas=(0.373173, 0.662475, 0.517323),
    )
    fb = feedback_model.make_feedback_spec(-10.0)
    sol = optimizer.alternating_optimize(dl3, fb, start, grid64, 0.01)
    assert sol.feasible
    assert sol.breakdown.p_out_unreliable <= 0.01 * (1.0 + 1e-6)


def test_alternating_infeasible_carries_iteration(dl3, grid64):
    fb = feedback_model.make_feedback_spec(-15.0)
    with pytest.raises(InfeasibleError) as exc:
        optimizer.alternating_optimize(dl3, fb, default_template(), grid64, 1e-5)
    assert hasattr(exc.value, "iteration")


def test_alternating_infeasible_box_certificate_at_0db(grid64):
    # at 0 dB no path has F_M <= 0.01, so the thresholds are never raised:
    # the error comes before the first iteration and names the outage
    # floor at the top of the box
    dl0 = mi_model.make_downlink_spec(0.0)
    fb = feedback_model.make_feedback_spec(-10.0)
    assert optimizer._kept_rows(grid64, 4, dl0, 0.01)[0].shape[0] == 0
    with pytest.raises(InfeasibleError) as exc:
        optimizer.alternating_optimize(dl0, fb, default_template(), grid64, 0.01)
    assert exc.value.iteration == 0
    top = np.full(3, optimizer.ALPHA_BOX[1])
    assert exc.value.min_outage == optimizer.min_achievable_outage(top, dl0, fb,
                                                                   grid64, 4)
    assert exc.value.min_outage > 0.01


def test_alternating_beats_duplicated_ack_baseline(dl3, grid64):
    # the two-slot ACK baseline cannot even meet the outage budget at this
    # uplink SNR, while the asymmetric solver can
    fb = feedback_model.make_feedback_spec(-10.0)
    sol = optimizer.alternating_optimize(dl3, fb, default_template(), grid64, 0.01)
    dup_rates = harq_analysis.duplicated_ack_rates(10 ** (-10.0 / 10.0), 4)
    with pytest.raises(InfeasibleError):
        optimizer.best_feasible_allocation(dup_rates, dl3, grid64, 4, 0.01)
    assert sol.breakdown.throughput > 0.0
