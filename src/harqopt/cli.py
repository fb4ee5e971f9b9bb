"""Command-line front end: config parsing, workflows, CSV emission.

Config files are flat `key = value` text: one assignment per line, `#`
starts a comment, vectors are comma-separated, dotted prefixes group the
Monte Carlo (mc.) and sweep (sweep.) keys. Later assignments override
earlier ones. SNRs are in dB at this boundary and linear everywhere
inside. The optimizer takes the rate grid and the outage budget epsilon
that the config describes.

Workflows:
  analyze   one-row CSV of the analytic performance breakdown
  optimize  alternating rate/threshold optimization; solution CSV plus a
            per-iteration objective trace CSV next to it
  simulate  Monte Carlo estimate CSV
  validate  analytic vs Monte Carlo table with z-scores; exits 1 when any
            |z| > 4
  sweep     one row per swept value; rows written in sweep order, points
            evaluated in a process pool

Exit codes: 0 success, 1 validation tripwire, 2 input/config error,
3 infeasible problem. HARQOPT_LOG sets the log level.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import dataclasses
import logging
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import feedback_model, harq_analysis, mc_simulator, mi_model, optimizer
from .errors import ConfigError, InfeasibleError

_log = logging.getLogger(__name__)

_COMMANDS = ("analyze", "optimize", "simulate", "validate", "sweep")
_SWEEP_AXES = ("snr_u_db", "snr_d_db", "alpha")
_SWEEP_MODES = ("analyze", "min_outage", "optimize", "fixed_vs_variable",
                "vs_duplicated")
_Z_LIMIT = 4.0
# threshold of every round when the config sets no alphas
_DEFAULT_ALPHA = 0.5


@dataclass(frozen=True)
class RunConfig:
    """Validated run description; mirrors the config-file key set."""

    command: str | None = None
    snr_d_db: float = 3.0
    snr_u_db: float = -10.0
    m_max: int = 4
    n_b: int = 1024
    n_m: int = 4096
    units_total: int = 64
    epsilon: float = 0.01
    rho_min_units: int = 1
    rho_max_units: int | None = None
    alphas: tuple[float, ...] | None = None
    rhos_units: tuple[int, ...] | None = None
    route: str = "gaussian"
    conv_bins: int = mi_model.DEFAULT_CONV_BINS
    seed: int = 0
    output_path: str | None = None
    n_episodes: int = 100_000
    feedback_mode: str = mc_simulator.ANALYTIC_FLIP
    sweep_axis: str | None = None
    sweep_values: tuple[float, ...] | None = None
    sweep_mode: str = "analyze"
    sweep_alphas: tuple[float, ...] | None = None
    workers: int | None = None

    @property
    def max_units(self) -> int:
        return self.units_total if self.rho_max_units is None else self.rho_max_units


def _parse_float(raw: str) -> float:
    return float(raw)


def _parse_int(raw: str) -> int:
    v = float(raw)
    # int() of an infinity raises OverflowError, not a bad-value ValueError
    if not math.isfinite(v) or v != int(v):
        raise ValueError(f"expected an integer, got {raw!r}")
    return int(v)


def _parse_floats(raw: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in raw.split(",") if tok.strip())


def _parse_ints(raw: str) -> tuple[int, ...]:
    return tuple(_parse_int(tok) for tok in raw.split(",") if tok.strip())


def _parse_str(raw: str) -> str:
    return raw


# key -> (RunConfig field, parser)
_KEYS = {
    "snr_d_db": ("snr_d_db", _parse_float),
    "snr_u_db": ("snr_u_db", _parse_float),
    "m_max": ("m_max", _parse_int),
    "n_b": ("n_b", _parse_int),
    "n_m": ("n_m", _parse_int),
    "units_total": ("units_total", _parse_int),
    "epsilon": ("epsilon", _parse_float),
    "rho_min_units": ("rho_min_units", _parse_int),
    "rho_max_units": ("rho_max_units", _parse_int),
    "alphas": ("alphas", _parse_floats),
    "rhos_units": ("rhos_units", _parse_ints),
    "route": ("route", _parse_str),
    "conv_bins": ("conv_bins", _parse_int),
    "seed": ("seed", _parse_int),
    "output_path": ("output_path", _parse_str),
    "mc.n_episodes": ("n_episodes", _parse_int),
    "mc.feedback_mode": ("feedback_mode", _parse_str),
    "sweep.axis": ("sweep_axis", _parse_str),
    "sweep.values": ("sweep_values", _parse_floats),
    "sweep.mode": ("sweep_mode", _parse_str),
    "sweep.alphas": ("sweep_alphas", _parse_floats),
}


def _accepted_keys() -> str:
    return ", ".join(sorted(_KEYS))


def load_config(path: str) -> RunConfig:
    """Parse and validate a flat-key config file; defaults fill the rest."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err

    fields: dict = {}
    for lineno, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {text!r}")
        key, raw = (part.strip() for part in text.split("=", 1))
        try:
            if key not in _KEYS:
                raise ConfigError(
                    f"{path}:{lineno}: unknown key {key!r}; accepted keys: "
                    f"{_accepted_keys()}"
                )
            name, parse = _KEYS[key]
            fields[name] = parse(raw)
        except ConfigError:
            raise
        except ValueError as err:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {err}") from err

    config = RunConfig(**fields)
    _validate(config)
    return config


def _require(cond: bool, field: str, bound: str, value) -> None:
    if not cond:
        raise ConfigError(f"{field}: must satisfy {bound}, got {value!r}")


def _validate(config: RunConfig) -> None:
    _require(-20.0 <= config.snr_d_db <= 10.0, "snr_d_db",
             "-20 <= snr_d_db <= 10 (moment-quadrature validity window)",
             config.snr_d_db)
    _require(math.isfinite(config.snr_u_db), "snr_u_db", "finite", config.snr_u_db)
    _require(1 <= config.m_max <= 16, "m_max", "1 <= m_max <= 16", config.m_max)
    _require(config.n_b >= 1, "n_b", "n_b >= 1", config.n_b)
    _require(config.n_m >= 1, "n_m", "n_m >= 1", config.n_m)
    _require(config.units_total >= 1, "units_total", "units_total >= 1",
             config.units_total)
    if not 0.0 < config.epsilon < 1.0:
        raise ConfigError(f"epsilon must lie in (0, 1), got {config.epsilon!r}")
    _require(
        1 <= config.rho_min_units <= config.max_units <= config.units_total,
        "rho_min_units/rho_max_units",
        "1 <= rho_min_units <= rho_max_units <= units_total",
        (config.rho_min_units, config.max_units),
    )
    if config.alphas is not None:
        _require(len(config.alphas) == config.m_max - 1, "alphas",
                 "length == m_max - 1", config.alphas)
        _require(all(math.isfinite(a) for a in config.alphas), "alphas", "finite",
                 config.alphas)
    if config.rhos_units is not None:
        _require(len(config.rhos_units) == config.m_max, "rhos_units",
                 "length == m_max", config.rhos_units)
        _require(
            all(config.rho_min_units <= u <= config.max_units
                for u in config.rhos_units),
            "rhos_units", "each within [rho_min_units, rho_max_units]",
            config.rhos_units,
        )
        _require(sum(config.rhos_units) <= config.units_total, "rhos_units",
                 "sum <= units_total", config.rhos_units)
    _require(config.route in ("gaussian", "convolution"), "route",
             "one of gaussian|convolution", config.route)
    lo, hi = mi_model.MIN_CONV_BINS, mi_model.MAX_CONV_BINS
    _require(lo <= config.conv_bins <= hi, "conv_bins", f"{lo} <= conv_bins <= {hi}",
             config.conv_bins)
    _require(config.seed >= 0, "seed", "seed >= 0", config.seed)
    _require(config.n_episodes >= 10_000, "mc.n_episodes", "n_episodes >= 10000",
             config.n_episodes)
    _require(config.feedback_mode in mc_simulator.FEEDBACK_MODES, "mc.feedback_mode",
             f"one of {'|'.join(mc_simulator.FEEDBACK_MODES)}", config.feedback_mode)
    if config.sweep_axis is not None:
        _require(config.sweep_axis in _SWEEP_AXES, "sweep.axis",
                 f"one of {'|'.join(_SWEEP_AXES)}", config.sweep_axis)
    _require(config.sweep_mode in _SWEEP_MODES, "sweep.mode",
             f"one of {'|'.join(_SWEEP_MODES)}", config.sweep_mode)
    _require(config.workers is None or config.workers >= 1, "workers",
             "workers >= 1", config.workers)


def _default_alphas(config: RunConfig) -> tuple[float, ...]:
    if config.alphas is not None:
        return config.alphas
    return (_DEFAULT_ALPHA,) * (config.m_max - 1)


def _default_units(config: RunConfig) -> tuple[int, ...]:
    if config.rhos_units is not None:
        return config.rhos_units
    base, rem = divmod(config.units_total, config.m_max)
    units = tuple(base + (1 if i < rem else 0) for i in range(config.m_max))
    if any(u < config.rho_min_units or u > config.max_units for u in units):
        raise ConfigError(
            "rhos_units: no default allocation fits the unit bounds; set rhos_units"
        )
    return units


def _policy_from(config: RunConfig) -> harq_analysis.HarqPolicy:
    # the start rates are rows of the rate grid, bit for bit
    unit = _grid_from(config).unit_rho
    return harq_analysis.HarqPolicy(
        rhos=tuple(u * unit for u in _default_units(config)),
        alphas=_default_alphas(config),
        n_b=config.n_b,
    )


def _mc_policy(config: RunConfig) -> harq_analysis.HarqPolicy:
    """The policy simulate and validate evaluate in the configured feedback
    mode. The duplicated-ACK scheme detects with zero thresholds, so there
    unset alphas are zero; explicit nonzero ones are still rejected by the
    duplicated-ACK routines."""
    policy = _policy_from(config)
    if config.feedback_mode == mc_simulator.DUPLICATED_ACK and config.alphas is None:
        policy = dataclasses.replace(policy, alphas=(0.0,) * (config.m_max - 1))
    return policy


def _grid_from(config: RunConfig) -> optimizer.RateGrid:
    # make_rate_grid's unit, built without calling into the optimizer:
    # analyze, simulate and validate read this grid for their policy too
    return optimizer.RateGrid(
        unit_rho=config.n_m / (config.units_total * config.n_b),
        min_units=config.rho_min_units,
        max_units=config.max_units,
        units_total=config.units_total,
    )


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.9g}"
    return str(value)


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
    _log.info("wrote %s (%d rows)", path, len(rows))


def _analyze_columns(config: RunConfig, dl, fb) -> tuple[list, list]:
    """Header and row of the analytic breakdown of the configured policy."""
    bins = config.conv_bins if config.route == "convolution" else None
    bd = harq_analysis.unreliable_throughput(_policy_from(config), dl, fb, bins=bins)
    m = config.m_max
    header = ["snr_d_db", "snr_u_db", "m_max", "epsilon"]
    row: list = [config.snr_d_db, config.snr_u_db, m, config.epsilon]
    for k in range(m):
        header.append(f"p_fail_{k + 1}")
        row.append(bd.p_fail[k])
    for k in range(m):
        header.append(f"p_occur_{k + 1}")
        row.append(bd.p_occur[k])
    for k in range(m):
        header.append(f"p_out_stage_{k + 1}")
        row.append(bd.p_out_stage[k])
    header += ["p_out_unreliable", "p_out_reliable", "expected_symbols", "throughput"]
    row += [bd.p_out_unreliable, bd.p_out_reliable, bd.expected_symbols,
            bd.throughput]
    return header, row


def _run_analyze(config: RunConfig, out: str) -> int:
    dl = mi_model.make_downlink_spec(config.snr_d_db)
    fb = feedback_model.make_feedback_spec(config.snr_u_db)
    header, row = _analyze_columns(config, dl, fb)
    _write_csv(out, header, [row])
    return 0


def _solution_columns(config: RunConfig,
                      sol: optimizer.Solution) -> tuple[list, list]:
    m = config.m_max
    header = ["snr_d_db", "snr_u_db", "m_max", "epsilon"]
    row: list = [config.snr_d_db, config.snr_u_db, m, config.epsilon]
    for k in range(m):
        header.append(f"rho_{k + 1}")
        row.append(sol.policy.rhos[k])
    for k in range(m - 1):
        header.append(f"alpha_{k + 1}")
        row.append(sol.policy.alphas[k])
    header += ["iterations", "converged", "feasible",
               "p_out_unreliable", "expected_symbols", "throughput"]
    row += [sol.iterations, sol.converged, sol.feasible,
            sol.breakdown.p_out_unreliable, sol.breakdown.expected_symbols,
            sol.breakdown.throughput]
    return header, row


def _run_optimize(config: RunConfig, out: str) -> int:
    dl = mi_model.make_downlink_spec(config.snr_d_db)
    fb = feedback_model.make_feedback_spec(config.snr_u_db)
    sol = optimizer.alternating_optimize(dl, fb, _policy_from(config),
                                         _grid_from(config), config.epsilon)
    header, row = _solution_columns(config, sol)
    _write_csv(out, header, [row])
    stem, ext = os.path.splitext(out)
    trace_rows = [[i + 1, v] for i, v in enumerate(sol.trace)]
    _write_csv(stem + "_trace" + (ext or ".csv"), ["iteration", "objective"],
               trace_rows)
    return 0


def _estimate_columns(config: RunConfig,
                      est: mc_simulator.SimulationEstimate) -> tuple[list, list]:
    m = config.m_max
    header = ["snr_d_db", "snr_u_db", "m_max", "n_episodes", "seed",
              "throughput", "throughput_se", "p_out", "p_out_se"]
    row: list = [config.snr_d_db, config.snr_u_db, m, est.n_episodes, est.seed,
                 est.throughput, est.throughput_se, est.p_out, est.p_out_se]
    for k in range(m):
        header += [f"p_occur_{k + 1}", f"p_occur_se_{k + 1}"]
        row += [est.p_occur[k], est.p_occur_se[k]]
    for k in range(m):
        header += [f"p_fail_{k + 1}", f"p_fail_se_{k + 1}"]
        row += [est.p_fail[k], est.p_fail_se[k]]
    return header, row


def _run_simulate(config: RunConfig, out: str) -> int:
    dl = mi_model.make_downlink_spec(config.snr_d_db)
    fb = feedback_model.make_feedback_spec(config.snr_u_db)
    est = mc_simulator.estimate_performance(
        _mc_policy(config), dl, fb, config.n_episodes, config.seed,
        config.feedback_mode
    )
    header, row = _estimate_columns(config, est)
    _write_csv(out, header, [row])
    return 0


def _z_row(name: str, analytic: float, simulated: float, se: float,
           n: int | None = None) -> list:
    """One validate row: quantity, analytic, simulated, stderr, z_score.

    With n the quantity is a proportion over n episodes. One that came out
    0 or 1 has a sample stderr of 0, so its row takes the binomial stderr
    sqrt(p (1 - p) / n) at the analytic p instead.
    """
    if n is not None and simulated in (0.0, 1.0):
        se = math.sqrt(max(analytic * (1.0 - analytic), 0.0) / n)
    if se > 0.0:
        z = (simulated - analytic) / se
    else:
        z = 0.0 if simulated == analytic else math.inf
    return [name, analytic, simulated, se, z]


def _run_validate(config: RunConfig, out: str) -> int:
    dl = mi_model.make_downlink_spec(config.snr_d_db)
    fb = feedback_model.make_feedback_spec(config.snr_u_db)
    policy = _mc_policy(config)
    analytic = (harq_analysis.duplicated_ack_performance
                if config.feedback_mode == mc_simulator.DUPLICATED_ACK
                else harq_analysis.unreliable_throughput)
    bd = analytic(policy, dl, fb, bins=config.conv_bins)
    est = mc_simulator.estimate_performance(
        policy, dl, fb, config.n_episodes, config.seed, config.feedback_mode
    )

    n = est.n_episodes
    rows = [_z_row("throughput", bd.throughput, est.throughput, est.throughput_se),
            _z_row("p_out", bd.p_out_unreliable, est.p_out, est.p_out_se, n)]
    for k in range(1, config.m_max):
        rows.append(_z_row(f"p_occur_{k + 1}", bd.p_occur[k], est.p_occur[k],
                           est.p_occur_se[k], n))
    for k in range(config.m_max):
        rows.append(_z_row(f"p_fail_{k + 1}", bd.p_fail[k], est.p_fail[k],
                           est.p_fail_se[k], n))
    worst = max(abs(row[-1]) for row in rows)
    # approximation-quality rows: z_score column carries the raw
    # gaussian-minus-convolution gap (no sampling error applies)
    gauss = mi_model.p_fail_gaussian(policy.rhos, dl)
    for k in range(config.m_max):
        rows.append([f"p_fail_gaussian_{k + 1}", gauss[k], bd.p_fail[k],
                     math.nan, gauss[k] - bd.p_fail[k]])
    _write_csv(out, ["quantity", "analytic", "simulated", "stderr", "z_score"], rows)
    if worst > _Z_LIMIT:
        print(f"validate: FAIL worst |z| = {worst:.3g} > {_Z_LIMIT:g}",
              file=sys.stderr)
        return 1
    print(f"validate: ok, worst |z| = {worst:.3g}")
    return 0


def _with_axis(config: RunConfig, value: float) -> RunConfig:
    if config.sweep_axis == "snr_u_db":
        return dataclasses.replace(config, snr_u_db=value)
    if config.sweep_axis == "snr_d_db":
        return dataclasses.replace(config, snr_d_db=value)
    # alpha axis: uniform thresholds at the swept value
    return dataclasses.replace(config, alphas=(value,) * (config.m_max - 1))


def _alpha_scan(config: RunConfig) -> tuple[float, ...]:
    if config.sweep_alphas is not None:
        return config.sweep_alphas
    return tuple(np.linspace(*optimizer.ALPHA_BOX, 50))


def _best_fixed_alpha(config: RunConfig, dl, fb, grid):
    """Best uniform threshold in the scan grid with rates re-optimized
    exactly per threshold. Returns (throughput, alpha, rhos); throughput 0
    and rhos None when every scanned threshold is infeasible."""
    best_eta, best_alpha, best_rhos = 0.0, math.nan, None
    for alpha in _alpha_scan(config):
        alphas = (float(alpha),) * (config.m_max - 1)
        rates = feedback_model.error_rates_for(fb, alphas)
        try:
            rhos, eta = optimizer.best_feasible_allocation(
                rates, dl, grid, config.epsilon
            )
        except InfeasibleError:
            continue
        if eta > best_eta:
            best_eta, best_alpha, best_rhos = eta, float(alpha), rhos
    return best_eta, best_alpha, best_rhos


def _duplicated_best_throughput(config: RunConfig, dl, fb,
                                grid) -> tuple[float, bool]:
    """Best duplicated-ACK throughput under the outage constraint; zero when
    the constraint is unreachable (the scheme has no threshold to raise)."""
    rates = harq_analysis.duplicated_ack_rates(fb.snr_linear, config.m_max)
    try:
        rhos, _ = optimizer.best_feasible_allocation(rates, dl, grid, config.epsilon)
    except InfeasibleError:
        return 0.0, False
    policy = dataclasses.replace(_policy_from(config), rhos=tuple(rhos),
                                 alphas=(0.0,) * (config.m_max - 1))
    bd = harq_analysis.duplicated_ack_performance(policy, dl, fb)
    return bd.throughput, True


def _sweep_point(args: tuple[RunConfig, float, int]) -> tuple[list[str], list]:
    base, value, index = args
    config = _with_axis(
        dataclasses.replace(base, seed=base.seed + index), value
    )
    axis = config.sweep_axis
    dl = mi_model.make_downlink_spec(config.snr_d_db)
    fb = feedback_model.make_feedback_spec(config.snr_u_db)

    if config.sweep_mode == "analyze":
        header, row = _analyze_columns(config, dl, fb)
        return [axis, *header], [value, *row]

    if config.sweep_mode == "min_outage":
        grid = _grid_from(config)
        header, row = [axis], [value]
        for alpha in (config.sweep_alphas or (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)):
            alphas = (float(alpha),) * (config.m_max - 1)
            header.append(f"min_outage_alpha_{alpha:g}")
            row.append(optimizer.min_achievable_outage(alphas, dl, fb, grid))
        return header, row

    if config.sweep_mode == "optimize":
        try:
            sol = optimizer.alternating_optimize(
                dl, fb, _policy_from(config), _grid_from(config), config.epsilon
            )
            header, row = _solution_columns(config, sol)
        except InfeasibleError as err:
            header, row = _solution_columns(config, _dummy_solution(config, dl, fb))
            row[header.index("throughput")] = 0.0
            _log.warning("sweep point %s=%g infeasible: %s", axis, value, err)
        return [axis, *header], [value, *row]

    if config.sweep_mode == "vs_duplicated":
        grid = _grid_from(config)
        dup_eta, dup_ok = _duplicated_best_throughput(config, dl, fb, grid)
        try:
            sol = optimizer.alternating_optimize(
                dl, fb, _policy_from(config), grid, config.epsilon
            )
            asym_eta, asym_ok = sol.breakdown.throughput, sol.feasible
        except InfeasibleError:
            asym_eta, asym_ok = 0.0, False
        return (
            [axis, "throughput_asymmetric", "feasible_asymmetric",
             "throughput_duplicated", "feasible_duplicated"],
            [value, asym_eta, asym_ok, dup_eta, dup_ok],
        )

    # fixed_vs_variable
    grid = _grid_from(config)
    fixed_eta, fixed_alpha, fixed_rhos = _best_fixed_alpha(config, dl, fb, grid)
    start = _policy_from(config)
    if fixed_rhos is not None:
        # warm start at the best fixed-threshold operating point: the
        # alternating loop never loses its start, so variable >= fixed
        start = dataclasses.replace(
            start, rhos=fixed_rhos, alphas=(fixed_alpha,) * (config.m_max - 1)
        )
    try:
        sol = optimizer.alternating_optimize(dl, fb, start, grid, config.epsilon)
        var_eta = sol.breakdown.throughput
    except InfeasibleError:
        var_eta = 0.0
    return (
        [axis, "throughput_fixed", "best_fixed_alpha", "throughput_variable"],
        [value, fixed_eta, fixed_alpha, var_eta],
    )


def _dummy_solution(config: RunConfig, dl, fb) -> optimizer.Solution:
    policy = _policy_from(config)
    bd = harq_analysis.unreliable_throughput(policy, dl, fb)
    return optimizer.Solution(
        policy=policy, breakdown=bd, converged=False, feasible=False, trace=(),
    )


def _run_sweep(config: RunConfig, out: str) -> int:
    if config.sweep_axis is None:
        raise ConfigError("sweep.axis: required for the sweep command")
    if not config.sweep_values:
        raise ConfigError("sweep.values: required for the sweep command")
    if config.sweep_axis == "snr_d_db":
        for v in config.sweep_values:
            _require(-20.0 <= v <= 10.0, "sweep.values",
                     "-20 <= snr_d_db <= 10", v)
    if config.sweep_mode == "fixed_vs_variable" and config.sweep_alphas:
        # the variable side searches the box only, so a fixed threshold
        # outside it could beat the search it is compared with
        lo, hi = optimizer.ALPHA_BOX
        for a in config.sweep_alphas:
            _require(lo <= a <= hi, "sweep.alphas",
                     f"{lo:g} <= alpha <= {hi:g} for sweep.mode = fixed_vs_variable", a)
    jobs = [(config, float(v), i) for i, v in enumerate(config.sweep_values)]
    workers = config.workers or os.cpu_count() or 1
    workers = min(workers, len(jobs))
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_point, jobs))
    else:
        results = [_sweep_point(job) for job in jobs]
    header = results[0][0]
    _write_csv(out, header, [row for _, row in results])
    return 0


def run(config: RunConfig) -> int:
    """Validate the config, then execute its workflow; returns the process
    exit code. A field out of bounds raises ConfigError, as in load_config."""
    if config.command not in _COMMANDS:
        raise ConfigError(f"command: one of {'|'.join(_COMMANDS)}, got "
                          f"{config.command!r}")
    _validate(config)
    optimizes = config.command == "optimize" or (
        config.command == "sweep" and config.sweep_mode != "analyze")
    if config.route == "convolution" and optimizes:
        raise ConfigError("route: the optimizer has only the Gaussian failure "
                          "table; route = convolution applies to analyze and "
                          "sweep.mode = analyze")
    out = config.output_path or f"harqopt_{config.command}.csv"
    runner = {
        "analyze": _run_analyze,
        "optimize": _run_optimize,
        "simulate": _run_simulate,
        "validate": _run_validate,
        "sweep": _run_sweep,
    }[config.command]
    return runner(config, out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="harqopt",
        description="HARQ rate/threshold analysis and optimization toolkit",
    )
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", required=True, help="flat key=value file")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default=None, help="output CSV path")
    parser.add_argument("--workers", type=int, default=None,
                        help="sweep process pool size (default: cores)")
    args = parser.parse_args(argv)

    level = os.environ.get("HARQOPT_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")

    try:
        config = load_config(args.config)
        overrides: dict = {"command": args.command}
        if args.seed is not None:
            overrides["seed"] = args.seed
        if args.out is not None:
            overrides["output_path"] = args.out
        if args.workers is not None:
            overrides["workers"] = args.workers
        config = dataclasses.replace(config, **overrides)
        return run(config)
    except ConfigError as err:
        print(f"harqopt: config error: {err}", file=sys.stderr)
        return 2
    except InfeasibleError as err:
        print(f"harqopt: infeasible: {err}", file=sys.stderr)
        return 3
    except ValueError as err:
        print(f"harqopt: input error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
