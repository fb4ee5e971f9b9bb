"""End-to-end acceptance gate.

One test per release criterion, each printing a single PASS/FAIL line on
the live terminal (bypassing capture) so a full-suite run yields a
ten-line scorecard. Statistical closures use frozen seeds; the margins
were measured once and the worst |z| values are quoted in comments.

Criterion 3 is a recorded conflict: the Gaussian tail bound is provably
violated by quasi-single-round unit compositions below 3 dB (the same
skew artifact the k = 1 exemption acknowledges), so that test is a strict
expected failure. The measurement and analysis live in the decisions
ledger; everything here reports honest numbers.
"""

import contextlib
import math
import time

import numpy as np
import pytest

from harqopt import feedback_model, harq_analysis, mc_simulator, mi_model, optimizer
from harqopt.errors import InfeasibleError

import oracles

UNIT = 1.0 / 16.0


@contextlib.contextmanager
def criterion(capsys, number, title):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"acceptance criterion {number:2d}: FAIL - {title}", flush=True)
        raise
    else:
        with capsys.disabled():
            print(f"acceptance criterion {number:2d}: PASS - {title}", flush=True)


def make_policy(rhos, alphas):
    return harq_analysis.HarqPolicy(
        rhos=tuple(float(r) for r in rhos), alphas=tuple(float(a) for a in alphas), n_b=1024
    )


def default_template():
    return make_policy((0.5, 0.5, 0.5, 0.5), (0.5, 0.5, 0.5))


def test_criterion_01_feedback_closure(capsys):
    with criterion(capsys, 1, "detector Monte Carlo matches error-rate formulas"):
        t0 = time.perf_counter()
        n = 10 ** 6
        rng = np.random.default_rng(20260815)  # measured worst |z| = 2.69
        for alpha in (0.0, 0.2, 0.5, 1.0):
            for snr_db in (-15.0, -10.0, -5.0):
                s = 10.0 ** (snr_db / 10.0)
                for sent_ack, p in (
                    (False, feedback_model.nack_error_rate(alpha, s)),
                    (True, feedback_model.ack_error_rate(alpha, s)),
                ):
                    detected = feedback_model.detect_batch(sent_ack, alpha, s, n, rng)
                    err = 1.0 - detected.mean() if sent_ack else detected.mean()
                    se = math.sqrt(p * (1.0 - p) / n)
                    assert abs(err - p) <= 3.0 * se, (alpha, snr_db, sent_ack, err, p)
        assert time.perf_counter() - t0 < 60.0


def test_criterion_02_analytic_vs_simulation(capsys, dl3):
    with criterion(capsys, 2, "analytic outage/occurrence/throughput match Monte Carlo"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(777)
        policies = []
        # feasible random policies with outage comfortably inside the budget
        # so the sequential-outage independence approximation (measured bias
        # ~4e-5) stays far below the Monte Carlo 3-sigma band
        while len(policies) < 10:
            units = rng.integers(1, 33, size=4)
            if units.sum() > 64:
                continue
            alphas = tuple(rng.uniform(1.5, 2.5, size=3))
            pol = make_policy(tuple(u * UNIT for u in units), alphas)
            fb = feedback_model.make_feedback_spec(-10.0)
            bd = harq_analysis.unreliable_throughput(pol, dl3, fb,
                                                       bins=mi_model.DEFAULT_CONV_BINS)
            if bd.p_out_unreliable <= 0.008:
                policies.append((pol, fb, bd))
        for i, (pol, fb, bd) in enumerate(policies):  # worst |z| = 2.20
            est = mc_simulator.estimate_performance(pol, dl3, fb, 10 ** 6, seed=1000 + i)
            assert abs(est.p_out - bd.p_out_unreliable) <= 3.0 * est.p_out_se
            assert abs(est.throughput - bd.throughput) <= 3.0 * est.throughput_se
            assert est.p_occur[0] == 1.0 == bd.p_occur[0]
            for k in range(1, 4):
                assert (abs(est.p_occur[k] - bd.p_occur[k])
                        <= 3.0 * est.p_occur_se[k])
        assert time.perf_counter() - t0 < 300.0


@pytest.mark.xfail(
    strict=True,
    reason="bound provably fails on quasi-single-round compositions below "
    "3 dB (max gap 0.070 at 0 dB, units (1,24)); same artifact the k=1 "
    "exemption covers; recorded in the decisions ledger",
)
def test_criterion_03_gaussian_approximation_bound(capsys, dl3):
    with criterion(capsys, 3, "gaussian-vs-convolution gap <= 0.05 for k >= 2"):
        # convolution at 1024 bins: bin-halving convergence is < 1e-4, two
        # orders under the 0.05 threshold being tested
        bins = 1024
        worst, arg = 0.0, None

        def check(rhos, dl, label):
            nonlocal worst, arg
            g = mi_model.p_fail_gaussian(rhos, dl)
            c = mi_model.p_fail_convolution(rhos, dl, bins=bins)
            gap = float(np.max(np.abs(g[1:] - c[1:])))
            if gap > worst:
                worst, arg = gap, label

        rng = np.random.default_rng(42)
        triples = [(u, 1, 1) for u in (1, 8, 16, 24, 32, 40, 48, 56, 60)]
        triples += [(1, u, 1) for u in (8, 24, 48)] + [(1, 1, u) for u in (8, 24, 48)]
        quads = [(16, 16, 16, 16), (61, 1, 1, 1), (1, 1, 1, 61), (32, 16, 8, 8),
                 (16, 1, 1, 1), (4, 4, 4, 4)]
        while len(quads) < 36:
            units = rng.integers(1, 33, size=4)
            if units.sum() <= 64:
                quads.append(tuple(int(u) for u in units))
        for snr in np.linspace(0.0, 6.0, 13):
            dl = mi_model.make_downlink_spec(float(snr))
            for u1 in range(1, 62):           # exhaustive two-round prefixes
                for u2 in range(1, 63 - u1):
                    check((u1 * UNIT, u2 * UNIT), dl, (float(snr), (u1, u2)))
            for units in triples + quads:
                check(tuple(u * UNIT for u in units), dl, (float(snr), units))
        assert worst <= 0.05, f"max gap {worst:.4f} at (snr_d, units) = {arg}"


def test_criterion_04_scan_equals_brute_force(capsys, dl3):
    with criterion(capsys, 4, "whole-grid rate scan identical to brute force"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(314159)
        outcomes = []
        for _ in range(50):
            m = int(rng.integers(2, 4))
            units = int(rng.integers(m, 17))
            grid = optimizer.make_rate_grid(1024, 4096, units)
            alphas = tuple(rng.uniform(0.0, 2.5, size=m - 1))
            fb = feedback_model.make_feedback_spec(rng.uniform(-16.0, -4.0))
            p_nack, p_ack = oracles.error_pair(fb, alphas)
            eps = float(rng.choice([1e-6, rng.uniform(0.0, 0.2), 0.999]))
            try:
                r_scan, v_scan = optimizer.best_feasible_allocation(
                    alphas, dl3, fb, grid, eps
                )
            except InfeasibleError as err:
                # both routes refuse, naming the same outage floor
                with pytest.raises(InfeasibleError) as exc:
                    oracles.brute_force_rate_allocation(p_nack, p_ack, dl3, grid, m, eps)
                assert exc.value.min_outage == err.min_outage > eps
                outcomes.append(False)
                continue
            r_bf, v_bf = oracles.brute_force_rate_allocation(p_nack, p_ack, dl3, grid,
                                                             m, eps)
            assert v_scan == v_bf
            np.testing.assert_array_equal(r_scan, r_bf)
            outcomes.append(True)
        assert any(outcomes) and not all(outcomes)
        assert time.perf_counter() - t0 < 60.0


def test_criterion_05_epsilon_ladder_monotone(capsys, dl3, grid64):
    with criterion(capsys, 5, "outage within budget and throughput non-decreasing "
                              "along the epsilon ladder"):
        alphas = (0.5, 0.5, 0.5)
        fb = feedback_model.make_feedback_spec(-10.0)
        floor = optimizer.min_achievable_outage(alphas, dl3, fb, grid64)
        etas = []
        for eps in np.geomspace(floor, 0.5, 20):
            rhos, eta = optimizer.best_feasible_allocation(alphas, dl3, fb, grid64,
                                                           float(eps))
            bd = harq_analysis.unreliable_throughput(
                make_policy(rhos, alphas), dl3, fb
            )
            assert bd.p_out_unreliable <= eps, (eps, bd.p_out_unreliable)
            etas.append(eta)
        assert np.all(np.diff(etas) >= 0.0), etas
        assert etas[-1] > etas[0]


def test_criterion_06_min_outage_monotone_in_alpha(capsys, dl3, grid64):
    with criterion(capsys, 6, "minimum outage non-increasing in the detection index"):
        for snr_u in np.linspace(-15.0, -3.0, 13):
            prev = 2.0
            for a in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0):
                alphas = (float(a),) * 3
                fb = feedback_model.make_feedback_spec(float(snr_u))
                mo = optimizer.min_achievable_outage(alphas, dl3, fb, grid64)
                assert mo <= prev + 1e-12, (snr_u, a, mo, prev)
                prev = mo


def test_criterion_07_asymmetric_beats_duplicated(capsys, dl3, grid64):
    with criterion(capsys, 7, "optimized asymmetric detection >= duplicated-ACK baseline"):
        strict_win = False
        for snr_u in range(-16, -9):
            fb = feedback_model.make_feedback_spec(float(snr_u))
            try:
                sol = optimizer.alternating_optimize(dl3, fb, default_template(),
                                                     grid64, 0.01)
                asym = sol.breakdown.throughput
            except InfeasibleError:
                asym = 0.0
            # the duplicated ACK: two slots, each detected at threshold 0
            dup_fb = feedback_model.make_feedback_spec(float(snr_u), slots=2)
            try:
                rhos, _ = optimizer.best_feasible_allocation(
                    (0.0,) * 3, dl3, dup_fb, grid64, 0.01
                )
                dup = harq_analysis.unreliable_throughput(
                    make_policy(rhos, (0.0, 0.0, 0.0)), dl3, dup_fb
                ).throughput
            except InfeasibleError:
                # repeating the same bit twice has no knob to trade
                # throughput for reliability, so at these uplink SNRs the
                # outage budget is simply unreachable
                dup = 0.0
            assert asym >= dup, (snr_u, asym, dup)
            if snr_u == -10 and asym > dup:
                strict_win = True
        assert strict_win


def test_criterion_08_variable_thresholds_beat_best_fixed(capsys, dl3, grid64):
    with criterion(capsys, 8, "variable thresholds >= best fixed threshold (50-point scan)"):
        for snr_u in (-5.0, -10.0, -15.0):
            fb = feedback_model.make_feedback_spec(snr_u)
            fixed_eta, fixed_alpha, fixed_rhos = 0.0, None, None
            for a in np.linspace(0.0, 3.0, 50):
                alphas = (float(a),) * 3
                try:
                    rhos, eta = optimizer.best_feasible_allocation(
                        alphas, dl3, fb, grid64, 0.01
                    )
                except InfeasibleError:
                    continue
                if eta > fixed_eta:
                    fixed_eta, fixed_alpha, fixed_rhos = eta, float(a), rhos
            assert fixed_rhos is not None
            variable = 0.0
            starts = [default_template(), make_policy(fixed_rhos, (fixed_alpha,) * 3)]
            for start in starts:
                try:
                    sol = optimizer.alternating_optimize(dl3, fb, start,
                                                         grid64, 0.01)
                except InfeasibleError:
                    continue
                variable = max(variable, sol.breakdown.throughput)
            assert variable >= fixed_eta - 1e-6, (snr_u, variable, fixed_eta)


def test_criterion_09_alternating_convergence(capsys, dl3, grid64):
    with criterion(capsys, 9, "alternating solver converges from 20 random starts"):
        rng = np.random.default_rng(20260815)
        fb = feedback_model.make_feedback_spec(-10.0)
        for _ in range(20):
            alphas = rng.uniform(0.0, 3.0, size=3)
            units = rng.multinomial(60, [0.25] * 4) + 1
            start = make_policy(units * UNIT, alphas)
            sol = optimizer.alternating_optimize(dl3, fb, start, grid64, 0.01)
            assert sol.converged and sol.iterations <= 50
            trace = np.asarray(sol.trace)
            assert np.all(np.diff(trace) >= -1e-9)
            assert sol.breakdown.p_out_unreliable <= 0.01 * (1.0 + 1e-6)
            assert sum(sol.policy.rhos) <= 4.0 + 1e-12


def test_criterion_10_bound_invariants(capsys):
    with criterion(capsys, 10, "outage >= perfect-feedback floor, throughput <= ergodic capacity"):
        rng = np.random.default_rng(1010)
        specs = [mi_model.make_downlink_spec(s) for s in (0.0, 3.0, 6.0)]
        for trial in range(150):
            dl = specs[trial % 3]
            units = rng.integers(1, 17, size=4)
            alphas = tuple(rng.uniform(0.0, 3.0, size=3))
            pol = make_policy(tuple(u * UNIT for u in units), alphas)
            fb = feedback_model.make_feedback_spec(rng.uniform(-15.0, -3.0))
            bins = mi_model.DEFAULT_CONV_BINS if trial % 5 == 0 else None
            bd = harq_analysis.unreliable_throughput(pol, dl, fb, bins=bins)
            assert bd.p_out_unreliable >= bd.p_fail[-1] - 1e-12
            assert bd.p_out_unreliable >= bd.p_out_reliable - 1e-12
            assert bd.throughput <= dl.mean_mi + 1e-12
