"""Smoke test of the benchmark runner on a tiny configuration (16 units,
2 sweep points, 10^4 episodes). Takes about half a minute.

Run from the checkout root: python3 -m pytest perfbench/tests -q
"""

import json
import os
import sys

import pytest

PERFBENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, PERFBENCH)

import run  # noqa: E402
import workloads  # noqa: E402

TINY = workloads.Scale(units_total=16, uplink_snrs_db=(-10.0, -5.0),
                       downlink_snrs_db=(3.0, 6.0), flip_episodes=10_000,
                       symbol_episodes=10_000)

with open(os.path.join(os.path.dirname(PERFBENCH), "BENCHMARK.json"),
          encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)


def _run_all(trace: int, capsys, monkeypatch) -> tuple[str, dict[str, dict]]:
    monkeypatch.setattr(run, "SETUP_IMPORTS", 1)
    code = run.main(["--workload", "all", "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)], suite=workloads.all_workloads(TINY))
    out = capsys.readouterr().out
    assert code == 0, out
    results = {}
    name = None
    for line in out.splitlines():
        if line.startswith("# workload="):
            name = line.split()[1].split("=", 1)[1]
        elif line.startswith("{"):
            results[name] = json.loads(line)
    assert set(results) == {w["name"] for w in BENCHMARK["workloads"]}
    return out, results


def _assert_metrics(out: str, results: dict, declared: list[dict]) -> None:
    for result in results.values():
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in declared}
        for m in declared:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
            assert f"{m['name']} = " in out


def test_plain_run_prints_every_end_to_end_metric(capsys, monkeypatch):
    out, results = _run_all(0, capsys, monkeypatch)
    _assert_metrics(out, results, BENCHMARK["end_to_end"])
    for result in results.values():
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "episodes_per_s.analytic_flip = " in out
    assert "episodes_per_s.symbol_level = " in out
    assert "fail_ratio = 0/" in out


def test_traced_run_prints_every_layer_metric(capsys, monkeypatch):
    out, results = _run_all(1, capsys, monkeypatch)
    _assert_metrics(out, results, BENCHMARK["per_layer"])
    value = {w: {k: v["value"] for k, v in r["metrics"].items()}
             for w, r in results.items()}
    # 50 fixed thresholds per sweep point
    assert value["uplink_sweep"]["optimizer.best_feasible_allocation.calls"] == 100
    assert value["downlink_optimize"]["optimizer.best_feasible_allocation.calls"] == 0
    for sweep in ("uplink_sweep", "downlink_optimize"):
        assert value[sweep]["mc_simulator.estimate_performance.calls"] == 0
    assert value["mc_validate"]["optimizer.calls"] == 0
    assert value["mc_validate"]["mc_simulator.estimate_performance.calls"] == 2


def test_runner_refuses_a_directory_without_sources(tmp_path, capsys):
    assert run.main(["--workload", "mc_validate"], root=str(tmp_path)) == 2
    assert not capsys.readouterr().out


def _write(path, header, rows):
    path.write_text("\n".join([",".join(header)] + [",".join(map(str, r)) for r in rows])
                    + "\n", encoding="utf-8")
    return str(path)


def test_variable_below_fixed_is_a_failed_op(tmp_path):
    out = _write(tmp_path / "sweep.csv",
                 ["snr_u_db", "throughput_fixed", "best_fixed_alpha", "throughput_variable"],
                 [[-10, 0.45, 1.2, 0.44], [-5, 0.75, 0.4, 0.76]])
    check = workloads.check_sweep((-10.0, -5.0), 0, out)
    assert check.ops == 2
    assert len(check.failures) == 1 and "snr_u_db=-10" in check.failures[0]


@pytest.mark.parametrize("feasible, p_out, trace", [
    (0, 0.01, [0.4, 0.42]),         # infeasible
    (1, 0.0101, [0.4, 0.42]),       # over the outage budget
    (1, 0.01, [0.42, 0.4]),         # decreasing objective trace
])
def test_bad_optimize_output_is_a_failed_op(tmp_path, feasible, p_out, trace):
    header = ["snr_d_db", "feasible", "p_out_unreliable", "throughput"]
    out = _write(tmp_path / "opt.csv", header, [[3, feasible, p_out, 0.42]])
    _write(tmp_path / "opt_trace.csv", ["iteration", "objective"],
           [[i + 1, v] for i, v in enumerate(trace)])
    check = workloads.check_optimize(3.0, 0, out)
    assert check.ops == 1 and len(check.failures) == 1


def test_optimize_throughput_above_capacity_is_a_failed_op(tmp_path):
    capacity = workloads.mean_mi(3.0)
    out = _write(tmp_path / "opt.csv", ["feasible", "p_out_unreliable", "throughput"],
                 [[1, 0.01, capacity * 1.001]])
    _write(tmp_path / "opt_trace.csv", ["iteration", "objective"], [[1, 0.4]])
    assert len(workloads.check_optimize(3.0, 0, out).failures) == 1


def _validate_csv(tmp_path, shift_p_out=0.0):
    """A validate CSV whose simulated values equal the exact protocol
    values, with a p_out se small enough that the paper composition's
    over-count shows as |z| > 4; returns (path, CLI verdict)."""
    p_fail = [0.4, 0.07, 0.009, 0.0008]
    alphas = [0.5] * (workloads.M_MAX - 1)
    p_nack, p_ack = workloads.feedback_error_rates(workloads.SNR_U_DB, alphas)
    inner, surv = 1.0, 1.0
    for pn, f in zip(p_nack, p_fail):
        inner -= pn * f * surv
        surv *= 1.0 - pn
    paper = 1.0 - inner * (1.0 - p_fail[-1])
    exact = workloads.exact_outage(p_fail, p_nack)
    occur = workloads.occurrence(p_fail, p_nack, p_ack)
    analytic = {"throughput": 0.5, "p_out": paper}
    simulated = {"throughput": 0.5 * (1.0 - exact) / (1.0 - paper),
                 "p_out": exact + shift_p_out}
    for k in range(2, workloads.M_MAX + 1):
        analytic[f"p_occur_{k}"] = simulated[f"p_occur_{k}"] = occur[k - 1]
    for k in range(1, workloads.M_MAX + 1):
        analytic[f"p_fail_{k}"] = simulated[f"p_fail_{k}"] = p_fail[k - 1]
    rows, worst = [], 0.0
    for q in workloads.validate_quantities(workloads.M_MAX):
        se = 1e-5
        z = (simulated[q] - analytic[q]) / se
        worst = max(worst, abs(z))
        rows.append([q, repr(analytic[q]), repr(simulated[q]), se, z])
    out = _write(tmp_path / "val.csv",
                 ["quantity", "analytic", "simulated", "stderr", "z_score"], rows)
    return out, int(worst > workloads.Z_LIMIT)


def test_validate_paper_composition_flag_is_recorded_not_failed(tmp_path):
    out, verdict = _validate_csv(tmp_path)
    assert verdict == 1
    check = workloads.check_validate("analytic-flip", 10_000, [0.5] * 3, verdict, out)
    assert check.failures == [] and check.flagged
    assert check.z_scores["p_out"] < -workloads.Z_LIMIT
    assert abs(check.z_exact["p_out"]) < 1e-6
    assert check.etas and check.live_draw_ratio is not None


def test_validate_exit_that_contradicts_its_rows_is_a_failed_op(tmp_path):
    out, verdict = _validate_csv(tmp_path)
    check = workloads.check_validate("analytic-flip", 10_000, [0.5] * 3, 1 - verdict, out)
    assert len(check.failures) == 1 and "exit 0" in check.failures[0]


def test_simulated_value_off_the_exact_one_is_a_failed_op(tmp_path):
    out, verdict = _validate_csv(tmp_path, shift_p_out=5e-5)
    check = workloads.check_validate("analytic-flip", 10_000, [0.5] * 3, verdict, out)
    assert len(check.failures) == 1 and "simulated p_out" in check.failures[0]
    assert check.z_exact["p_out"] > workloads.Z_LIMIT
