"""Config parsing, command dispatch, CSV output, and exit codes."""

import dataclasses
import math
from pathlib import Path

import pytest

from harqopt import cli, feedback_model, harq_analysis, mc_simulator, mi_model, optimizer
from harqopt.errors import ConfigError


def write_config(tmp_path, keys, name="run.cfg"):
    lines = [f"{k} = {v}" for k, v in keys.items()]
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


SMALL = {
    "snr_d_db": 3.0,
    "snr_u_db": -10.0,
    "m_max": 2,
    "units_total": 16,
    "epsilon": 0.05,
    "mc.n_episodes": 10000,
}


def test_load_config_defaults(tmp_path):
    cfg = cli.load_config(write_config(tmp_path, {}))
    assert cfg.snr_d_db == 3.0 and cfg.snr_u_db == -10.0
    assert cfg.m_max == 4 and cfg.units_total == 64
    assert cfg.n_b == 1024 and cfg.n_m == 4096
    assert cfg.epsilon == 0.01 and cfg.route == "gaussian"
    assert cli._grid_from(cfg).unit_rho == pytest.approx(1.0 / 16.0)
    # the CLI's grid is make_rate_grid's, also on a non-dyadic unit
    for c in (cfg, dataclasses.replace(cfg, n_b=1000, n_m=4000, units_total=36)):
        assert cli._grid_from(c) == optimizer.make_rate_grid(c.n_b, c.n_m, c.units_total)


def test_load_config_comments_and_optimizer_keys(tmp_path):
    path = write_config(tmp_path, {
        "m_max": 3,
        "alphas": "0.3, 0.7  # trailing comment",
    })
    cfg = cli.load_config(path)
    assert cfg.alphas == (0.3, 0.7)
    # the configured policy is the optimizer's start point
    assert cli._policy_from(cfg).alphas == (0.3, 0.7)


def test_load_config_epsilon_bound_names_field(tmp_path):
    path = write_config(tmp_path, {"epsilon": 1.5})
    with pytest.raises(ConfigError, match=r"epsilon must lie in \(0, 1\)"):
        cli.load_config(path)


def test_load_config_unknown_key_lists_accepted(tmp_path):
    path = write_config(tmp_path, {"command": "sweep"})
    with pytest.raises(ConfigError, match=r"unknown key 'command'.*accepted keys.*snr_u_db"):
        cli.load_config(path)


def test_load_config_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("snr_d_db = 3\nnot a key value pair\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=r":2: expected 'key = value'"):
        cli.load_config(str(path))
    for text, key in (("m_max = four", "m_max"), ("m_max = inf", "m_max"),
                      ("seed = 1e400", "seed"),
                      ("rhos_units = 16, inf", "rhos_units")):
        path.write_text(f"snr_d_db = 3\n{text}\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=rf":2: bad value for {key}"):
            cli.load_config(str(path))


def test_load_config_snr_window(tmp_path):
    path = write_config(tmp_path, {"snr_d_db": 15.0})
    with pytest.raises(ConfigError, match=r"snr_d_db.*-20 <= snr_d_db <= 10"):
        cli.load_config(path)


def test_load_config_rhos_units_budget(tmp_path):
    path = write_config(tmp_path, {"m_max": 2, "units_total": 16,
                                   "rhos_units": "12, 12"})
    with pytest.raises(ConfigError, match=r"rhos_units.*sum <= units_total"):
        cli.load_config(path)


def test_missing_config_file_exits_2(tmp_path, capsys):
    rc = cli.main(["analyze", "--config", str(tmp_path / "nope.cfg")])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_bad_command_is_argparse_exit():
    with pytest.raises(SystemExit):
        cli.main(["frobnicate", "--config", "x.cfg"])


def test_negative_seed_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, SMALL)
    assert cli.main(["analyze", "--config", path, "--seed", "-3"]) == 2


@pytest.mark.parametrize("flag", ["0", "-2"])
def test_nonpositive_workers_exits_2(tmp_path, capsys, flag):
    path = write_config(tmp_path, SMALL)
    assert cli.main(["analyze", "--config", path, "--workers", flag]) == 2
    assert "workers: must satisfy workers >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("field, value, message", [
    ("epsilon", 1.5, "epsilon must lie in"),
    ("rho_max_units", 40, "rho_max_units: must satisfy"),
    ("seed", -1, "seed: must satisfy"),
    ("workers", 0, "workers: must satisfy"),
])
def test_run_validates_a_config_built_in_code(tmp_path, field, value, message):
    # run() applies the field checks of load_config, so a RunConfig built
    # in code cannot write a CSV for a problem the file route refuses
    out = tmp_path / "x.csv"
    config = cli.RunConfig(command="analyze", m_max=2, units_total=16,
                           output_path=str(out), **{field: value})
    with pytest.raises(ConfigError, match=message):
        cli.run(config)
    assert not out.exists()


def test_analyze_writes_deterministic_csv(tmp_path):
    path = write_config(tmp_path, SMALL)
    out1, out2 = str(tmp_path / "a1.csv"), str(tmp_path / "a2.csv")
    assert cli.main(["analyze", "--config", path, "--out", out1]) == 0
    assert cli.main(["analyze", "--config", path, "--out", out2]) == 0
    data = Path(out1).read_bytes()
    assert data == Path(out2).read_bytes()
    assert b"\r" not in data
    header = data.decode().splitlines()[0].split(",")
    for col in ("p_fail_1", "p_occur_2", "p_out_stage_2", "p_out_unreliable",
                "p_out_reliable", "expected_symbols", "throughput"):
        assert col in header


def test_analyze_default_output_name(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path, SMALL)
    assert cli.main(["analyze", "--config", path]) == 0
    assert (tmp_path / "harqopt_analyze.csv").exists()


def test_simulate_deterministic_and_seed_override(tmp_path):
    path = write_config(tmp_path, SMALL)
    out1, out2, out3 = (str(tmp_path / f"s{i}.csv") for i in (1, 2, 3))
    assert cli.main(["simulate", "--config", path, "--out", out1]) == 0
    assert cli.main(["simulate", "--config", path, "--out", out2]) == 0
    assert Path(out1).read_bytes() == Path(out2).read_bytes()
    assert cli.main(["simulate", "--config", path, "--out", out3,
                     "--seed", "9"]) == 0
    assert Path(out1).read_bytes() != Path(out3).read_bytes()


def test_optimize_writes_solution_and_trace(tmp_path):
    path = write_config(tmp_path, SMALL)
    out = str(tmp_path / "opt.csv")
    assert cli.main(["optimize", "--config", path, "--out", out]) == 0
    lines = Path(out).read_text(encoding="utf-8").splitlines()
    header, row = lines[0].split(","), lines[1].split(",")
    fields = dict(zip(header, row))
    assert fields["feasible"] == "1" and fields["converged"] == "1"
    assert float(fields["p_out_unreliable"]) <= 0.05 * (1 + 1e-9)
    assert float(fields["throughput"]) > 0.0
    trace = (tmp_path / "opt_trace.csv").read_text(encoding="utf-8").splitlines()
    assert trace[0] == "iteration,objective"
    assert len(trace) >= 2


def test_optimize_run_config_is_the_whole_problem(tmp_path):
    # a RunConfig built in code is optimized at its own epsilon and grid,
    # exactly as the same keys read from a file
    direct = tmp_path / "direct.csv"
    config = cli.RunConfig(command="optimize", epsilon=0.05, units_total=16,
                           output_path=str(direct))
    assert cli.run(config) == 0
    row = dict(zip(*(line.split(",") for line in
                     direct.read_text(encoding="utf-8").splitlines())))
    assert float(row["epsilon"]) == 0.05
    assert float(row["p_out_unreliable"]) <= 0.05 * (1 + 1e-6)
    assert float(row["p_out_unreliable"]) > 0.01
    for k in range(1, 5):
        assert (float(row[f"rho_{k}"]) / 0.25).is_integer()
    path = write_config(tmp_path, {"epsilon": 0.05, "units_total": 16})
    from_file = tmp_path / "file.csv"
    assert cli.main(["optimize", "--config", path, "--out", str(from_file)]) == 0
    assert direct.read_bytes() == from_file.read_bytes()


def assert_unknown_key_exits_2(tmp_path, capsys, key):
    keys = {**SMALL, key: 1}
    path = write_config(tmp_path, keys)
    rc = cli.main(["optimize", "--config", path,
                   "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    lineno = list(keys).index(key) + 1
    assert f"{path}:{lineno}: unknown key {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize("suffix", ["lo", "hi", "tol"])
def test_optimize_removed_lambda_key_exits_2(tmp_path, capsys, suffix):
    # the rate step is an exact scan with no multiplier to bracket, so the
    # old bisection keys are unknown, not silently ignored
    assert_unknown_key_exits_2(tmp_path, capsys, f"optimizer.lambda_{suffix}")


@pytest.mark.parametrize("knob", ["pgd_step", "pgd_tol", "pgd_max_iters",
                                  "alt_max_iters", "alt_tol", "alpha_lo",
                                  "alpha_hi"])
def test_optimize_removed_solver_knob_exits_2(tmp_path, capsys, knob):
    # the threshold search and the alternating loop run with fixed steps,
    # tolerances, caps and threshold box, so their old keys are unknown
    assert_unknown_key_exits_2(tmp_path, capsys, f"optimizer.{knob}")


@pytest.mark.parametrize("command, mode", [
    ("optimize", None), ("sweep", "min_outage"), ("sweep", "optimize"),
    ("sweep", "fixed_vs_variable"), ("sweep", "vs_duplicated"),
])
def test_optimizer_rejects_convolution_route(tmp_path, capsys, command, mode):
    # the optimizer has only the Gaussian failure table, so a convolution
    # request there is refused instead of silently answered with Gaussian
    # numbers; analyze and sweep.mode = analyze honour the key
    keys = {**SMALL, "route": "convolution", "sweep.axis": "snr_u_db",
            "sweep.values": "-10"}
    if mode is not None:
        keys["sweep.mode"] = mode
    path = write_config(tmp_path, keys)
    out = tmp_path / "x.csv"
    assert cli.main([command, "--config", path, "--out", str(out),
                     "--workers", "1"]) == 2
    assert "only the Gaussian failure table" in capsys.readouterr().err
    assert not out.exists()
    keys["sweep.mode"] = "analyze"
    path = write_config(tmp_path, keys)
    for cmd in ("analyze", "sweep"):
        assert cli.main([cmd, "--config", path, "--out", str(out),
                         "--workers", "1"]) == 0


def test_optimize_infeasible_exits_3(tmp_path, capsys):
    path = write_config(tmp_path, {**SMALL, "epsilon": 1e-4})
    rc = cli.main(["optimize", "--config", path,
                   "--out", str(tmp_path / "x.csv")])
    assert rc == 3
    assert "infeasible" in capsys.readouterr().err


def test_validate_agreement_exit_0(tmp_path, capsys):
    path = write_config(tmp_path, SMALL)
    out = str(tmp_path / "v.csv")
    assert cli.main(["validate", "--config", path, "--out", out]) == 0
    assert "worst |z|" in capsys.readouterr().out
    lines = Path(out).read_text(encoding="utf-8").splitlines()
    assert lines[0] == "quantity,analytic,simulated,stderr,z_score"
    names = [ln.split(",")[0] for ln in lines[1:]]
    assert "throughput" in names and "p_out" in names
    # gaussian-vs-convolution gap rows ride along for approximation audits
    assert "p_fail_gaussian_1" in names and "p_fail_gaussian_2" in names


def test_validate_detects_biased_model(tmp_path, monkeypatch, capsys):
    path = write_config(tmp_path, SMALL)
    real = harq_analysis.unreliable_throughput

    def biased(*args, **kwargs):
        bd = real(*args, **kwargs)
        return dataclasses.replace(bd, p_out_unreliable=bd.p_out_unreliable + 0.05)

    monkeypatch.setattr(harq_analysis, "unreliable_throughput", biased)
    rc = cli.main(["validate", "--config", path, "--out", str(tmp_path / "v.csv")])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().err


def test_validate_duplicated_ack_mode(tmp_path):
    path = write_config(tmp_path, {**SMALL, "mc.feedback_mode": "duplicated-ack"})
    assert cli.main(["validate", "--config", path,
                     "--out", str(tmp_path / "vd.csv")]) == 0
    # the scheme has no threshold: explicit nonzero ones are an input error
    path = write_config(tmp_path, {**SMALL, "mc.feedback_mode": "duplicated-ack",
                                   "alphas": "0.5"}, name="nonzero.cfg")
    assert cli.main(["validate", "--config", path,
                     "--out", str(tmp_path / "vn.csv")]) == 2


def test_validate_accepts_a_seed_of_2_to_the_128(tmp_path):
    # the config takes any seed >= 0, and the simulator seeds each chunk
    # from SeedSequence(seed), which has no upper limit
    path = write_config(tmp_path, SMALL)
    out = tmp_path / "v.csv"
    rc = cli.main(["validate", "--config", path, "--seed", str(2**128),
                   "--out", str(out)])
    assert rc in (0, 1)
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "quantity,analytic,simulated,stderr,z_score"
    assert "throughput" in [ln.split(",")[0] for ln in lines[1:]]


def test_cli_accepts_exactly_the_simulator_feedback_modes(tmp_path):
    # the config check reads the simulator's own mode list, so a mode is
    # accepted by both or refused by both
    for mode in mc_simulator.FEEDBACK_MODES:
        path = write_config(tmp_path, {**SMALL, "mc.feedback_mode": mode})
        assert cli.load_config(path).feedback_mode == mode
    config = cli.load_config(write_config(tmp_path, SMALL))
    dl = mi_model.make_downlink_spec(config.snr_d_db)
    fb = feedback_model.make_feedback_spec(config.snr_u_db)
    listed = "|".join(mc_simulator.FEEDBACK_MODES)
    for mode in ("oracle", "", "Analytic-Flip", "duplicated_ack"):
        path = write_config(tmp_path, {**SMALL, "mc.feedback_mode": mode})
        with pytest.raises(ConfigError, match=rf"mc.feedback_mode.*one of {listed}"):
            cli.load_config(path)
        assert cli.main(["simulate", "--config", path,
                         "--out", str(tmp_path / "x.csv")]) == 2
        with pytest.raises(ValueError, match="unknown feedback_mode"):
            mc_simulator.estimate_performance(cli._policy_from(config), dl, fb,
                                              10_000, 1, mode)
    assert not (tmp_path / "x.csv").exists()


def test_validate_passes_when_a_rare_event_never_occurs(tmp_path, capsys):
    # at 10 / 0 dB the analytic outage is 1.6e-6, so 10^5 episodes with
    # seed 1 see none; the row's stderr is the binomial one at the
    # analytic p, not the 0 of an empty sample
    path = write_config(tmp_path, {"snr_d_db": 10, "snr_u_db": 0})
    out = tmp_path / "v.csv"
    assert cli.main(["validate", "--config", path, "--seed", "1",
                     "--out", str(out)]) == 0
    rows = {r.split(",")[0]: r.split(",")
            for r in out.read_text(encoding="utf-8").splitlines()[1:]}
    for name in ("p_out", "p_fail_4"):
        p, simulated, se, z = (float(v) for v in rows[name][1:])
        assert simulated == 0.0 and p > 0.0
        assert se == pytest.approx(math.sqrt(p * (1.0 - p) / 100_000), rel=1e-8)
        assert abs(z) < 1.0


def test_validate_rows_of_an_empty_proportion_still_flag_a_real_gap():
    # analytic 0.01 against 0 events in 10^5 episodes is a disagreement of
    # about 32 binomial standard errors
    *_, se, z = cli._z_row("p_out", 0.01, 0.0, 0.0, 100_000)
    assert se == pytest.approx(math.sqrt(0.01 * 0.99 / 100_000), rel=1e-15)
    assert z == pytest.approx(-31.78, abs=0.01)
    assert cli._z_row("p_occur_2", 0.99, 1.0, 0.0, 100_000)[4] == pytest.approx(31.78, abs=0.01)
    # the throughput row is no proportion: a zero stderr with a gap is inf
    assert cli._z_row("throughput", 0.5, 0.4, 0.0)[4] == math.inf
    assert cli._z_row("throughput", 0.5, 0.5, 0.0)[4] == 0.0
    # a nonzero count keeps the sample stderr
    assert cli._z_row("p_out", 0.01, 0.02, 0.001, 100_000)[3:] == [0.001, pytest.approx(10.0)]


@pytest.mark.parametrize("command", ["analyze", "simulate", "validate"])
def test_huge_uplink_snr_is_a_config_error(tmp_path, capsys, command):
    # 10^(4000/10) overflows a float: an input error (exit 2), not a
    # traceback with the validation exit code 1
    path = write_config(tmp_path, {**SMALL, "snr_u_db": 4000})
    out = tmp_path / "x.csv"
    assert cli.main([command, "--config", path, "--out", str(out)]) == 2
    assert "snr_db = 4000 overflows" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("bins", [255, 65537])
def test_analyze_conv_bins_outside_the_range_exits_2(tmp_path, capsys, bins):
    # the convolution is quadratic in the bins, so past 2^16 a run would
    # take seconds to minutes, or die allocating, for no accuracy gained
    path = write_config(tmp_path, {**SMALL, "route": "convolution", "conv_bins": bins})
    out = tmp_path / "x.csv"
    assert cli.main(["analyze", "--config", path, "--out", str(out)]) == 2
    assert "conv_bins: must satisfy 256 <= conv_bins <= 65536" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_where_six_times_the_uplink_snr_overflows(tmp_path):
    # at 3080 dB the linear SNR is finite but 6 snr is not; thresholds of 1
    # still give NACK->ACK rates of 0 and ACK->NACK rates of 0.5
    path = write_config(tmp_path, {**SMALL, "m_max": 4, "snr_u_db": 3080,
                                   "alphas": "1, 1, 1"})
    out = tmp_path / "x.csv"
    assert cli.main(["analyze", "--config", path, "--out", str(out)]) == 0
    header, row = out.read_text().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["p_out_unreliable"] == cells["p_out_reliable"]


def test_analyze_with_thresholds_beyond_the_float_range(tmp_path, capsys, recwarn):
    # (1 +- 1e307) sqrt(6 snr) overflows a float at 20 dB: the rates take
    # their limits, NACK->ACK 0 and ACK->NACK 1, with no warning
    path = write_config(tmp_path, {**SMALL, "m_max": 4, "snr_u_db": 20,
                                   "alphas": "1e307, 1e307, 1e307"})
    out = tmp_path / "x.csv"
    assert cli.main(["analyze", "--config", path, "--out", str(out)]) == 0
    assert not recwarn.list and not capsys.readouterr().err
    header, row = out.read_text().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["p_out_unreliable"] == cells["p_out_reliable"]
    assert [cells[f"p_occur_{k}"] for k in range(1, 5)] == ["1"] * 4


@pytest.mark.parametrize("workers", ["1", "2"])
def test_huge_swept_uplink_snr_is_a_config_error(tmp_path, capsys, workers):
    path = write_config(tmp_path, {**SMALL, "sweep.axis": "snr_u_db",
                                   "sweep.values": "-10, 4000"})
    out = tmp_path / "x.csv"
    assert cli.main(["sweep", "--config", path, "--out", str(out),
                     "--workers", workers]) == 2
    assert "snr_db = 4000 overflows" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_requires_axis(tmp_path, capsys):
    path = write_config(tmp_path, SMALL)
    assert cli.main(["sweep", "--config", path,
                     "--out", str(tmp_path / "x.csv")]) == 2
    assert "sweep.axis" in capsys.readouterr().err


def test_sweep_analyze_over_alpha(tmp_path):
    path = write_config(tmp_path, {
        **SMALL, "sweep.axis": "alpha", "sweep.values": "0.2, 0.5, 0.8",
        "sweep.mode": "analyze",
    })
    out = str(tmp_path / "sw.csv")
    assert cli.main(["sweep", "--config", path, "--out", out,
                     "--workers", "1"]) == 0
    lines = Path(out).read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("alpha,")
    assert len(lines) == 4
    assert [ln.split(",")[0] for ln in lines[1:]] == ["0.2", "0.5", "0.8"]


def test_sweep_min_outage_mode(tmp_path):
    path = write_config(tmp_path, {
        **SMALL, "sweep.axis": "snr_u_db", "sweep.values": "-12, -8",
        "sweep.mode": "min_outage", "sweep.alphas": "0.0, 0.5",
    })
    out = str(tmp_path / "mo.csv")
    assert cli.main(["sweep", "--config", path, "--out", out,
                     "--workers", "1"]) == 0
    lines = Path(out).read_text(encoding="utf-8").splitlines()
    assert lines[0] == "snr_u_db,min_outage_alpha_0,min_outage_alpha_0.5"
    assert len(lines) == 3


def test_sweep_parallel_matches_serial(tmp_path):
    path = write_config(tmp_path, {
        **SMALL, "sweep.axis": "alpha", "sweep.values": "0.3, 0.9",
        "sweep.mode": "analyze",
    })
    serial, parallel = str(tmp_path / "s.csv"), str(tmp_path / "p.csv")
    assert cli.main(["sweep", "--config", path, "--out", serial,
                     "--workers", "1"]) == 0
    assert cli.main(["sweep", "--config", path, "--out", parallel,
                     "--workers", "2"]) == 0
    assert Path(serial).read_bytes() == Path(parallel).read_bytes()


def test_sweep_fixed_vs_variable_smoke(tmp_path):
    path = write_config(tmp_path, {
        **SMALL, "sweep.axis": "snr_u_db", "sweep.values": "-10",
        "sweep.mode": "fixed_vs_variable", "sweep.alphas": "0.5, 1.0, 1.5",
    })
    out = str(tmp_path / "fv.csv")
    assert cli.main(["sweep", "--config", path, "--out", out,
                     "--workers", "1"]) == 0
    lines = Path(out).read_text(encoding="utf-8").splitlines()
    assert lines[0] == "snr_u_db,throughput_fixed,best_fixed_alpha,throughput_variable"
    _, fixed, _, variable = lines[1].split(",")
    assert float(variable) >= float(fixed) - 1e-6 > 0.0


@pytest.mark.parametrize("alphas", ["3.5, 4, 5", "1, 3.01", "-0.5", "nan"])
def test_sweep_fixed_vs_variable_rejects_alphas_outside_the_box(tmp_path, capsys,
                                                                alphas):
    # a fixed threshold above the box (5 at 3 / -15 dB) beat the variable
    # search, which only runs inside it: 0.3626 against 0.3337, exit 0
    path = write_config(tmp_path, {
        "snr_d_db": 3.0, "sweep.axis": "snr_u_db", "sweep.values": "-15",
        "sweep.mode": "fixed_vs_variable", "sweep.alphas": alphas,
    })
    out = tmp_path / "fv.csv"
    assert cli.main(["sweep", "--config", path, "--out", str(out),
                     "--workers", "1"]) == 2
    assert "sweep.alphas: must satisfy 0 <= alpha <= 3" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_min_outage_accepts_alphas_outside_the_box(tmp_path):
    path = write_config(tmp_path, {
        **SMALL, "sweep.axis": "snr_u_db", "sweep.values": "-10",
        "sweep.mode": "min_outage", "sweep.alphas": "-0.5, 3.5",
    })
    out = tmp_path / "mo.csv"
    assert cli.main(["sweep", "--config", path, "--out", str(out),
                     "--workers", "1"]) == 0
    header = out.read_text(encoding="utf-8").splitlines()[0]
    assert header == "snr_u_db,min_outage_alpha_-0.5,min_outage_alpha_3.5"


def test_optimize_single_round(tmp_path):
    # m_max = 1 has no feedback and no threshold: the rate scan alone
    # decides, and the row is pinned
    path = write_config(tmp_path, {"m_max": 1, "units_total": 16,
                                   "snr_d_db": 10.0, "epsilon": 0.05})
    out = tmp_path / "one.csv"
    assert cli.main(["optimize", "--config", path, "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines == [
        "snr_d_db,snr_u_db,m_max,epsilon,rho_1,iterations,converged,feasible,"
        "p_out_unreliable,expected_symbols,throughput",
        "10,-10,1,0.05,1.5,2,1,1,0.0442561846,1536,0.637162544",
    ]


def test_sweep_vs_duplicated_smoke(tmp_path):
    path = write_config(tmp_path, {
        **SMALL, "sweep.axis": "snr_u_db", "sweep.values": "-10, -5",
        "sweep.mode": "vs_duplicated",
    })
    out = str(tmp_path / "vd.csv")
    assert cli.main(["sweep", "--config", path, "--out", out,
                     "--workers", "1"]) == 0
    lines = Path(out).read_text(encoding="utf-8").splitlines()
    assert lines[0] == ("snr_u_db,throughput_asymmetric,feasible_asymmetric,"
                        "throughput_duplicated,feasible_duplicated")
    assert len(lines) == 3


def test_duplicated_baseline_is_exact_constrained_scan(tmp_path):
    # the vs_duplicated column is the exact constrained optimum of the
    # duplicated-ACK scheme, the same baseline acceptance criterion 7 uses
    config = cli.load_config(write_config(tmp_path, {"units_total": 16,
                                                     "snr_u_db": -6.0}))
    dl = mi_model.make_downlink_spec(config.snr_d_db)
    fb = feedback_model.make_feedback_spec(config.snr_u_db)
    grid = cli._grid_from(config)
    eta, ok = cli._duplicated_best_throughput(config, dl, fb, grid)
    rates = harq_analysis.duplicated_ack_rates(fb.snr_linear, config.m_max)
    rhos, _ = optimizer.best_feasible_allocation(rates, dl, grid, config.epsilon)
    policy = dataclasses.replace(cli._policy_from(config), rhos=tuple(rhos),
                                 alphas=(0.0,) * (config.m_max - 1))
    want = harq_analysis.duplicated_ack_performance(policy, dl, fb).throughput
    assert ok and eta == want
    assert eta == pytest.approx(0.769481072, rel=1e-8)
