"""The benchmark's three workloads: the CLI calls each makes and the checks
on their outputs.

Every workload uses the default rate grid (M = 4, 64 units) and runs the
CLI with one worker, so all work stays in one process.

- uplink_sweep: one fixed_vs_variable sweep over five uplink SNRs at a
  single downlink SNR. All points share one downlink spec and failure
  table, so the 250 whole-grid scans of the 50-threshold fixed baseline
  dominate; table building barely shows.
- downlink_optimize: one `optimize` per downlink SNR. No table is reused
  and the fixed-threshold scan never runs, so table building, the
  feasibility bootstrap, the lambda bisection and the threshold PGD show.
- mc_validate: `validate` at the README default policy, once per feedback
  mode. The optimizer is not touched and the simulator does nearly all the
  work; the two modes use it differently (one uniform draw per feedback
  against 24 Gaussians and a complex matvec), so a gain for one mode that
  costs the other shows.

An op is one sweep point, one `optimize` call or one `validate` call. The
checks never import the program: they read its CSVs and compare against
bounds computed here.
"""

from __future__ import annotations

import csv
import math
import os
from collections.abc import Callable
from dataclasses import dataclass, field

M_MAX = 4
EPSILON = 0.01
SNR_D_DB = 3.0
SNR_U_DB = -10.0
# one-sided slack the CLI itself grants the outage budget
OUTAGE_SLACK = 1e-6
# `validate` exits 1 when some |z| exceeds this; the benchmark's own
# z-check against the exact values uses the same limit
Z_LIMIT = 4.0


@dataclass(frozen=True)
class Scale:
    """Problem sizes; the benchmark uses FULL, the smoke test a tiny one."""

    units_total: int = 64
    uplink_snrs_db: tuple[float, ...] = (-15.0, -12.5, -10.0, -7.5, -5.0)
    downlink_snrs_db: tuple[float, ...] = (2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 10.0)
    flip_episodes: int = 10_000_000
    symbol_episodes: int = 2_000_000


FULL = Scale()


@dataclass
class CallCheck:
    """What one CLI call contributed: its ops, failures and output values."""

    ops: int
    failures: list[str] = field(default_factory=list)
    etas: list[float] = field(default_factory=list)
    z_scores: dict[str, float] = field(default_factory=dict)
    z_exact: dict[str, float] = field(default_factory=dict)
    flagged: bool = False
    episodes: int = 0
    mode: str = ""
    live_draw_ratio: float | None = None


@dataclass(frozen=True)
class Call:
    """One CLI invocation: subcommand, config text and its output check."""

    label: str
    command: str
    config: str
    check: Callable[[int, str], CallCheck]  # (exit code, output CSV path)


@dataclass(frozen=True)
class Workload:
    name: str
    calls: tuple[Call, ...]
    scale: Scale


def _config(**keys) -> str:
    return "".join(f"{k} = {v}\n" for k, v in keys.items())


def _csv_list(values) -> str:
    return ", ".join(f"{v:g}" for v in values)


def _read_rows(path: str) -> list[dict[str, str]] | None:
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _finite(row: dict[str, str], keys) -> bool:
    try:
        return all(math.isfinite(float(row[k])) for k in keys)
    except (KeyError, TypeError, ValueError):
        return False


def mean_mi(snr_db: float) -> float:
    """Ergodic capacity E[log2(1 + snr g)], g ~ Exp(1), in closed form:
    log2(e) exp(1/snr) E1(1/snr). Throughput can never exceed it."""
    from scipy.special import exp1

    inv = 10.0 ** (-snr_db / 10.0)
    return math.exp(inv) * exp1(inv) / math.log(2.0)


def check_sweep(snrs, exit_code: int, out_csv: str) -> CallCheck:
    """fixed_vs_variable sweep: one op per point; variable thresholds must
    never lose to the best fixed one (acceptance criterion 8)."""
    result = CallCheck(ops=len(snrs))
    rows = _read_rows(out_csv) if exit_code == 0 else None
    if rows is None:
        result.failures = [f"snr_u_db={v:g}: exit {exit_code}, no rows" for v in snrs]
        return result
    keys = ("snr_u_db", "throughput_fixed", "best_fixed_alpha", "throughput_variable")
    by_snr = {}
    for row in rows:
        if _finite(row, keys):
            by_snr[float(row["snr_u_db"])] = row
    for v in snrs:
        row = by_snr.get(float(v))
        if row is None:
            result.failures.append(f"snr_u_db={v:g}: row missing or non-finite")
            continue
        fixed, variable = float(row["throughput_fixed"]), float(row["throughput_variable"])
        result.etas.append(variable)
        if variable < fixed:
            result.failures.append(
                f"snr_u_db={v:g}: throughput_variable {variable:.9g} < "
                f"throughput_fixed {fixed:.9g}")
    return result


def check_optimize(snr_d_db: float, exit_code: int, out_csv: str) -> CallCheck:
    """optimize: feasible, within the outage budget, below capacity
    (criterion 10), with a non-decreasing objective trace."""
    result = CallCheck(ops=1)
    tag = f"snr_d_db={snr_d_db:g}"
    rows = _read_rows(out_csv) if exit_code == 0 else None
    if not rows or len(rows) != 1 or not _finite(rows[0], rows[0].keys()):
        result.failures.append(f"{tag}: exit {exit_code}, missing or non-finite row")
        return result
    row = rows[0]
    eta = float(row["throughput"])
    result.etas.append(eta)
    if row["feasible"] != "1":
        result.failures.append(f"{tag}: feasible = {row['feasible']}")
    p_out = float(row["p_out_unreliable"])
    if p_out > EPSILON * (1.0 + OUTAGE_SLACK):
        result.failures.append(f"{tag}: p_out_unreliable {p_out:.9g} > epsilon")
    capacity = mean_mi(snr_d_db)
    if eta > capacity:
        result.failures.append(f"{tag}: throughput {eta:.9g} > mean_mi {capacity:.9g}")
    stem, ext = os.path.splitext(out_csv)
    trace = _read_rows(stem + "_trace" + ext)
    if not trace or not all(_finite(r, ("objective",)) for r in trace):
        result.failures.append(f"{tag}: trace CSV missing or non-finite")
    else:
        objective = [float(r["objective"]) for r in trace]
        if any(b < a for a, b in zip(objective, objective[1:])):
            result.failures.append(f"{tag}: objective trace decreases")
    return result


def validate_quantities(m: int) -> list[str]:
    return (["throughput", "p_out"] + [f"p_occur_{k}" for k in range(2, m + 1)]
            + [f"p_fail_{k}" for k in range(1, m + 1)])


def feedback_error_rates(snr_u_db: float, alphas) -> tuple[list[float], list[float]]:
    """NACK->ACK and ACK->NACK rates of the one-bit feedback detector,
    0.5 erfc((1 +/- alpha) sqrt(6 snr)), per threshold."""
    root = math.sqrt(6.0 * 10.0 ** (snr_u_db / 10.0))
    p_nack = [0.5 * math.erfc((1.0 + a) * root) for a in alphas]
    p_ack = [0.5 * math.erfc((1.0 - a) * root) for a in alphas]
    return p_nack, p_ack


def occurrence(p_fail, p_nack, p_ack) -> list[float]:
    """P(round k is sent), k = 1..M: every earlier round failed and each
    NACK got through, or decoding succeeded at round j < k and every
    feedback from j on was misread as NACK."""
    m = len(p_fail)
    F = [1.0, *p_fail]
    out = []
    for k in range(1, m + 1):
        total = F[k - 1] * math.prod(1.0 - pn for pn in p_nack[:k - 1])
        for j in range(1, k):
            total += ((F[j - 1] - F[j]) * math.prod(1.0 - pn for pn in p_nack[:j - 1])
                      * math.prod(p_ack[j - 1:k - 1]))
        out.append(total)
    return out


def exact_outage(p_fail, p_nack) -> float:
    """Outage with nested failures: an undecoded stop after round i means
    rounds 1..i all failed, every earlier NACK got through and NACK i was
    misread as ACK (or i = M)."""
    m = len(p_fail)
    surv = math.prod(1.0 - pn for pn in p_nack[:m - 1])
    total = p_fail[m - 1] * surv
    surv = 1.0
    for i in range(m - 1):
        total += p_nack[i] * p_fail[i] * surv
        surv *= 1.0 - p_nack[i]
    return total


def check_validate(mode: str, episodes: int, alphas, exit_code: int,
                   out_csv: str) -> CallCheck:
    """validate: one op, failed when a quantity row is missing or
    non-finite, when the exit code is not the CLI's own verdict on its rows
    (0, or 1 when some |z| > Z_LIMIT), or when a simulated value lies more
    than Z_LIMIT standard errors from the exact protocol value.

    The exact value is the CSV's analytic one, except for `p_out` and
    `throughput`: the CLI composes outage the paper's way, which
    over-counts, so the benchmark recomputes both with the nested-failure
    composition (`exact_outage`) from the CSV's analytic failure
    probabilities and the closed-form feedback error rates. Those rates are
    first checked against the CSV's analytic `p_occur_k` rows. The CLI's
    own z-scores (against the paper composition) and its verdict are
    recorded and printed as measured."""
    result = CallCheck(ops=1, episodes=episodes, mode=mode)
    rows = _read_rows(out_csv)
    by_name = {r["quantity"]: r for r in rows or ()}
    for name in validate_quantities(M_MAX):
        row = by_name.get(name)
        if row is None or not _finite(row, ("analytic", "simulated", "stderr", "z_score")):
            result.failures.append(f"{mode}: row {name} missing or non-finite")
            continue
        result.z_scores[name] = float(row["z_score"])
    if result.failures:
        return result
    value = {n: {k: float(by_name[n][k]) for k in ("analytic", "simulated", "stderr")}
             for n in validate_quantities(M_MAX)}
    verdict = int(max(abs(z) for z in result.z_scores.values()) > Z_LIMIT)
    if exit_code != verdict:
        result.failures.append(f"{mode}: exit {exit_code}, but its rows give {verdict}")
        return result
    result.flagged = bool(exit_code)

    p_nack, p_ack = feedback_error_rates(SNR_U_DB, alphas)
    p_fail = [value[f"p_fail_{k}"]["analytic"] for k in range(1, M_MAX + 1)]
    occur = occurrence(p_fail, p_nack, p_ack)
    for k in range(2, M_MAX + 1):
        reported = value[f"p_occur_{k}"]["analytic"]
        if abs(occur[k - 1] - reported) > 1e-8:
            result.failures.append(
                f"{mode}: analytic p_occur_{k} {reported:.9g} != {occur[k - 1]:.9g} "
                "from the closed-form feedback error rates")
    reference = {n: v["analytic"] for n, v in value.items()}
    paper = value["p_out"]["analytic"]
    reference["p_out"] = exact_outage(p_fail, p_nack)
    # same expected symbols, so throughput scales with 1 - p_out
    reference["throughput"] = (value["throughput"]["analytic"]
                               * (1.0 - reference["p_out"]) / (1.0 - paper))
    for name, v in value.items():
        z = (v["simulated"] - reference[name]) / v["stderr"]
        result.z_exact[name] = z
        if abs(z) > Z_LIMIT:
            result.failures.append(
                f"{mode}: simulated {name} {v['simulated']:.9g} is {z:+.2f} se "
                f"from the exact {reference[name]:.9g}")
    if not result.failures:
        result.etas.append(value["throughput"]["simulated"])
        # share of feedback draws made for episodes still running
        result.live_draw_ratio = sum(occur[1:]) / (M_MAX - 1)
    return result


def uplink_sweep(scale: Scale) -> Workload:
    snrs = scale.uplink_snrs_db
    config = _config(snr_d_db=SNR_D_DB, epsilon=EPSILON, units_total=scale.units_total,
                     **{"sweep.axis": "snr_u_db", "sweep.values": _csv_list(snrs),
                        "sweep.mode": "fixed_vs_variable"})
    call = Call("sweep", "sweep", config,
                lambda code, out: check_sweep(snrs, code, out))
    return Workload("uplink_sweep", (call,), scale)


def downlink_optimize(scale: Scale) -> Workload:
    calls = []
    for snr_d in scale.downlink_snrs_db:
        config = _config(snr_d_db=snr_d, snr_u_db=SNR_U_DB, epsilon=EPSILON,
                         units_total=scale.units_total)
        calls.append(Call(f"optimize_{snr_d:g}", "optimize", config,
                          lambda code, out, s=snr_d: check_optimize(s, code, out)))
    return Workload("downlink_optimize", tuple(calls), scale)


def mc_validate(scale: Scale) -> Workload:
    # the README default policy: four rounds of rate 1.0 (a quarter of the
    # grid each), all thresholds 0.5
    quarter = scale.units_total // M_MAX
    alphas = [0.5] * (M_MAX - 1)
    calls = []
    for mode, episodes in (("analytic-flip", scale.flip_episodes),
                           ("symbol-level", scale.symbol_episodes)):
        config = _config(snr_d_db=SNR_D_DB, snr_u_db=SNR_U_DB,
                         units_total=scale.units_total,
                         rhos_units=_csv_list([quarter] * M_MAX),
                         alphas=_csv_list(alphas),
                         **{"mc.n_episodes": episodes, "mc.feedback_mode": mode})
        calls.append(Call(f"validate_{mode}", "validate", config,
                          lambda code, out, m=mode, n=episodes:
                          check_validate(m, n, alphas, code, out)))
    return Workload("mc_validate", tuple(calls), scale)


def all_workloads(scale: Scale = FULL) -> dict[str, Workload]:
    return {w.name: w for w in (uplink_sweep(scale), downlink_optimize(scale),
                                mc_validate(scale))}
