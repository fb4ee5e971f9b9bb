"""Per-layer metrics from the traces tracer.py writes.

Each metric is listed in README.md with the end-to-end metric it should
move and on which workload.
"""

from __future__ import annotations

import math
from collections import defaultdict

from tracer import MODULES

# (function, fields) reported for the named spans and aggregates
_FUNCTION_METRICS = (
    ("optimizer.best_feasible_allocation", ("calls", "total_s")),
    ("optimizer.min_achievable_outage", ("calls", "total_s")),
    ("optimizer.solve_lambda_for_rates", ("calls", "total_s")),
    ("optimizer.optimize_thresholds_pgd", ("calls", "total_s", "self_s")),
    ("optimizer.alternating_optimize", ("calls", "total_s", "iterations")),
    ("harq_analysis.occurrence_probabilities", ("calls",)),
    ("feedback_model.nack_error_rate", ("calls",)),
    ("numerics.erfc", ("calls",)),
    ("mi_model.make_downlink_spec", ("calls", "total_s")),
    ("mi_model.p_fail_convolution", ("calls", "total_s")),
    ("mc_simulator.estimate_performance", ("calls", "total_s")),
)
# whole-grid cost/outage scans: each evaluates every allocation path
_SCANS = ("optimizer.best_feasible_allocation", "optimizer.min_achievable_outage",
          "optimizer.solve_lambda_for_rates")
_MC_MODES = ("analytic-flip", "symbol-level")
_UNITS = {"calls": "count", "iterations": "count", "total_s": "s", "self_s": "s"}


def allocation_paths(units_total: int, m: int) -> int:
    """Number of allocations with m rounds of at least one unit and at most
    units_total units in all: C(units_total, m)."""
    return math.comb(units_total, m)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class _Totals:
    """Per-function sums over every traced call of one workload."""

    def __init__(self, traces: list[dict]) -> None:
        self.fields = defaultdict(lambda: defaultdict(float))
        self.raised = defaultdict(int)
        self.episodes = defaultdict(int)
        self.mc_seconds = defaultdict(float)
        # calls of a function made directly under a given span, by name
        self.under = defaultdict(int)
        for trace in traces:
            for _, _, name, start, end, self_s, raised, extra in trace["spans"]:
                f = self.fields[name]
                f["calls"] += 1
                f["total_s"] += end - start
                f["self_s"] += self_s
                f["iterations"] += extra.get("iterations", 0)
                self.raised[name] += bool(raised)
                if "mode" in extra:
                    self.episodes[extra["mode"]] += extra["episodes"]
                    self.mc_seconds[extra["mode"]] += end - start
            for name, parent, calls, total, self_s in trace["aggregates"]:
                f = self.fields[name]
                f["calls"] += calls
                f["total_s"] += total
                f["self_s"] += self_s
                self.under[(name, parent)] += calls

    def get(self, name: str, key: str) -> float:
        return self.fields[name][key] if name in self.fields else 0.0

    def module(self, module: str, key: str) -> float:
        return sum((f[key] for name, f in self.fields.items()
                    if name.split(".", 1)[0] == module), 0.0)


def layer_metrics(traces: list[dict], units_total: int, m: int,
                  live_draw_ratio: float, trace_overhead_s: float) -> dict:
    """{name: (value, unit)} for every per-layer metric of BENCHMARK.json."""
    t = _Totals(traces)
    out: dict[str, tuple[float, str]] = {}
    for name, keys in _FUNCTION_METRICS:
        for key in keys:
            value = t.get(name, key)
            out[f"{name}.{key}"] = (int(value) if _UNITS[key] == "count" else value,
                                    _UNITS[key])
    for module in MODULES:
        out[f"{module}.calls"] = (int(t.module(module, "calls")), "count")
        out[f"{module}.self_s"] = (t.module(module, "self_s"), "s")

    bfa = "optimizer.best_feasible_allocation"
    out["optimizer.fixed_scan.feasible_ratio"] = (
        _ratio(t.get(bfa, "calls") - t.raised[bfa], t.get(bfa, "calls")), "ratio")
    out["optimizer.bootstrap_scans_per_solve"] = (
        _ratio(t.get("optimizer.min_achievable_outage", "calls"),
               t.get("optimizer.alternating_optimize", "calls")), "ratio")
    pgd = "optimizer.optimize_thresholds_pgd"
    # each objective evaluation makes exactly one occurrence_probabilities call
    out["optimizer.pgd_evals_per_call"] = (
        _ratio(t.under[("harq_analysis.occurrence_probabilities", pgd)],
               t.get(pgd, "calls")), "ratio")
    scans = sum(t.get(name, "calls") for name in _SCANS)
    out["optimizer.scan_paths_per_s"] = (
        _ratio(allocation_paths(units_total, m) * scans,
               sum(t.get(name, "total_s") for name in _SCANS)), "1/s")
    for mode in _MC_MODES:
        out[f"mc_simulator.episodes_per_s.{mode.replace('-', '_')}"] = (
            _ratio(t.episodes[mode], t.mc_seconds[mode]), "1/s")
    out["mc_simulator.live_draw_ratio"] = (live_draw_ratio, "ratio")
    out["trace_overhead_s"] = (trace_overhead_s, "s")
    return out
