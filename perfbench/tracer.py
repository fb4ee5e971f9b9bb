"""Run one harqopt CLI call with its layer functions wrapped from outside.

Usage: python3 perfbench/tracer.py TRACE.json <harqopt CLI arguments...>

Every public function of the six library modules, and cli.main, is
replaced on its module by a timing wrapper before the CLI runs. Calls
between modules go through module attributes and calls inside a module go
through its globals, so both reach the wrappers; no file of the program
changes.

Two kinds of wrapper keep the trace small:
- span functions (cli.main, every optimizer and mc_simulator function,
  and the mi_model downlink-spec and failure-curve functions) get one
  record per call: id, parent span id, name, start, end, self time,
  whether it raised;
- every other wrapped function (the scalar special functions, error rates
  and protocol formulas, called ~10^5 times per sweep) is aggregated as
  count, total and self time under the name of its nearest enclosing span.

Self time is a call's duration minus the time its wrapped callees cover.
Records stay in memory and are written to TRACE.json when the call ends.
The exit code is the CLI's.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

LIBRARY_MODULES = ("numerics", "mi_model", "feedback_model", "harq_analysis",
                   "optimizer", "mc_simulator")
MODULES = (*LIBRARY_MODULES, "cli")

# functions recorded span by span; the rest of the public API is aggregated
_SPAN_MODULES = ("optimizer", "mc_simulator")
_SPAN_FUNCTIONS = ("mi_model.make_downlink_spec", "mi_model.p_fail_gaussian",
                   "mi_model.p_fail_convolution")


def _describe_solution(bound, result) -> dict:
    return {"iterations": int(result.iterations)}


def _describe_estimate(bound, result) -> dict:
    return {"episodes": int(bound.arguments["n"]),
            "mode": str(bound.arguments["feedback_mode"])}


# span functions whose records carry extra fields taken from the call
_DESCRIBE = {
    "optimizer.alternating_optimize": _describe_solution,
    "mc_simulator.estimate_performance": _describe_estimate,
}


class Recorder:
    """In-memory span list, per-parent aggregates and the live call stack."""

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.spans: list[list] = []
        self.aggregates: dict[tuple[str, str], list] = {}
        # frame: [time covered by wrapped callees, span id, span name]
        self.stack: list[list] = [[0.0, None, "<root>"]]

    def span(self, name: str, fn):
        stack, spans, clock = self.stack, self.spans, time.perf_counter
        describe = _DESCRIBE.get(name)
        signature = inspect.signature(fn) if describe else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            sid = len(spans)
            spans.append(None)
            frame = [0.0, sid, name]
            stack.append(frame)
            raised = True
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                t1 = clock()
                stack.pop()
                parent[0] += t1 - t0
                extra = {}
                if describe is not None and not raised:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    extra = describe(bound, result)
                spans[sid] = [sid, parent[1], name, t0 - self.origin,
                              t1 - self.origin, t1 - t0 - frame[0], raised, extra]

        return wrapper

    def aggregate(self, name: str, fn):
        stack, aggregates, clock = self.stack, self.aggregates, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, parent[1], parent[2]]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent[0] += dt
                acc = aggregates.get((name, parent[2]))
                if acc is None:
                    acc = aggregates[(name, parent[2])] = [0, 0.0, 0.0]
                acc[0] += 1
                acc[1] += dt
                acc[2] += dt - frame[0]

        return wrapper

    def to_json(self) -> dict:
        return {
            "spans": self.spans,
            "aggregates": [[name, parent, *acc]
                           for (name, parent), acc in self.aggregates.items()],
        }


def _public_functions(module) -> list[str]:
    """Names of the functions a module defines and does not mark private."""
    return sorted(
        name for name, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__
        and not name.startswith("_")
    )


def install(recorder: Recorder):
    """Wrap the library's public functions in place; returns wrapped cli.main."""
    for short in LIBRARY_MODULES:
        module = importlib.import_module(f"harqopt.{short}")
        for fname in _public_functions(module):
            name = f"{short}.{fname}"
            as_span = short in _SPAN_MODULES or name in _SPAN_FUNCTIONS
            wrap = recorder.span if as_span else recorder.aggregate
            setattr(module, fname, wrap(name, getattr(module, fname)))
    cli = importlib.import_module("harqopt.cli")
    cli.main = recorder.span("cli.main", cli.main)
    return cli.main


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: tracer.py TRACE.json <harqopt arguments...>", file=sys.stderr)
        return 2
    trace_path, cli_args = argv[0], argv[1:]
    recorder = Recorder()
    cli_main = install(recorder)
    try:
        return cli_main(cli_args)
    finally:
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(recorder.to_json(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
