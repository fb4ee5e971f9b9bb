"""Outside-in benchmark of the harqopt CLI workflows.

Usage, from the root of a harqopt checkout:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

NAME is uplink_sweep, downlink_optimize, mc_validate (see workloads.py) or
all. The program runs from the checkout's own src/ in fresh interpreters,
with BLAS/OpenMP pinned to one thread and one CLI worker.

--trace 0 measures the end-to-end metrics: `setup_s`, the median over seven
fresh interpreters of the time to finish `import harqopt`; then repeats
the workload until --seconds have passed (at least once) and reports the
median `wall_s` of one repetition, the `peak_rss_mb` of its largest CLI
process and `eta_mean`, the mean throughput its outputs report.

--trace 1 runs the workload once plainly and once under tracer.py and
reports the per-layer metrics of layers.py, with `trace_overhead_s` the
difference of the two walls.

Every CLI output is checked (workloads.py). Human-readable lines come
first; the last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics, where correct means that no op failed.
The exit code is 0 when that result was printed and 2 when the benchmark
could not run.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field

import layers
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TRACER = os.path.join(HERE, "tracer.py")
SETUP_IMPORTS = 7
THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
# a CLI call still running after this long is killed and its ops fail
CALL_TIMEOUT_S = 170.0
# what the `harqopt` console script runs
CLI_STUB = "import sys; from harqopt.cli import main; sys.exit(main(sys.argv[1:]))"


@dataclass
class Rep:
    """One repetition of a workload: every CLI call once."""

    wall_s: float = 0.0
    peak_rss_kb: int = 0
    call_walls: dict[str, float] = field(default_factory=dict)
    checks: list[workloads.CallCheck] = field(default_factory=list)
    traces: list[dict] = field(default_factory=list)


def child_env(root: str) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env.pop("HARQOPT_LOG", None)
    # an installed package imports from bytecode; so does the benchmark
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    for var in THREAD_VARS:
        env[var] = str(THREADS)
    return env


def run_child(argv: list[str], env: dict, cwd: str) -> tuple[int, float, int]:
    """Run one fresh interpreter; returns (exit code, wall s, peak RSS kB)."""
    with open(os.path.join(cwd, "child.log"), "ab") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdin=subprocess.DEVNULL,
                                stdout=log, stderr=log)
        killer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            # wait4 rather than proc.wait(): it blocks without polling and
            # returns the child's own resource usage
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss


def measure_setup(root: str, env: dict, cwd: str, n: int) -> list[float]:
    """Wall times of n fresh interpreters finishing `import harqopt`, after
    one untimed import that fills the bytecode cache and proves the
    checkout's own package is the one imported."""
    src = os.path.join(root, "src", "")
    probe = ("import sys, harqopt; "
             f"sys.exit(0 if harqopt.__file__.startswith({src!r}) else 3)")
    code, _, _ = run_child([sys.executable, "-c", probe], env, cwd)
    if code != 0:
        raise RuntimeError(f"`import harqopt` from {src} failed (exit {code})")
    return [run_child([sys.executable, "-c", "import harqopt"], env, cwd)[1]
            for _ in range(n)]


def run_rep(workload: workloads.Workload, seed: int, env: dict, workdir: str,
            traced: bool) -> Rep:
    rep = Rep()
    repdir = tempfile.mkdtemp(prefix="rep-", dir=workdir)
    for call in workload.calls:
        cfg = os.path.join(repdir, f"{call.label}.cfg")
        out = os.path.join(repdir, f"{call.label}.csv")
        trace_path = os.path.join(repdir, f"{call.label}.trace.json")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write(call.config)
        args = [call.command, "--config", cfg, "--seed", str(seed), "--out", out,
                "--workers", "1"]
        prefix = [TRACER, trace_path] if traced else ["-c", CLI_STUB]
        code, wall, rss = run_child([sys.executable, *prefix, *args], env, repdir)
        if code != 0:
            with open(os.path.join(repdir, "child.log"), encoding="utf-8",
                      errors="replace") as fh:
                tail = fh.read()[-2000:]
            print(f"perfbench: {call.label} exited {code}:\n{tail}", file=sys.stderr)
        rep.wall_s += wall
        rep.call_walls[call.label] = wall
        rep.peak_rss_kb = max(rep.peak_rss_kb, rss)
        rep.checks.append(call.check(code, out))
        if traced and os.path.exists(trace_path):
            with open(trace_path, encoding="utf-8") as fh:
                rep.traces.append(json.load(fh))
    return rep


def environment(root: str) -> str:
    sha = "none"
    if os.path.isdir(os.path.join(root, ".git")):
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, check=False)
        sha = res.stdout.strip() or "none"
    versions = []
    for pkg in ("numpy", "scipy"):
        try:
            versions.append(f"{pkg}={importlib.metadata.version(pkg)}")
        except importlib.metadata.PackageNotFoundError:
            versions.append(f"{pkg}=missing")
    return (f"git={sha} python={sys.version.split()[0]} {' '.join(versions)} "
            f"nproc={os.cpu_count()} threads={THREADS} ({','.join(THREAD_VARS)})")


def _fmt(value) -> str:
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def report_checks(reps: list[Rep]) -> tuple[int, int]:
    """Print failures and z-scores; returns (attempted, failed) ops."""
    attempted = failed = 0
    for i, rep in enumerate(reps):
        for check in rep.checks:
            attempted += check.ops
            failed += min(len(check.failures), check.ops)
            for reason in check.failures:
                print(f"FAIL rep {i}: {reason}")
    for check in reps[0].checks:
        if check.z_scores:
            zs = " ".join(f"{k}={v:+.3f}" for k, v in check.z_scores.items())
            print(f"z[{check.mode}] {zs}")
        if check.z_exact:
            zs = " ".join(f"{k}={v:+.3f}" for k, v in check.z_exact.items())
            print(f"z_exact[{check.mode}] {zs}")
    validates = [c for rep in reps for c in rep.checks if c.z_scores]
    if validates:
        flagged = sum(c.flagged for c in validates)
        print(f"validate_flagged = {flagged}/{len(validates)} calls exited 1 "
              f"(CLI |z| > {workloads.Z_LIMIT:g} against its paper outage composition)")
    print(f"fail_ratio = {failed}/{attempted} ops")
    return attempted, failed


def plain_metrics(workload, reps: list[Rep], setup: list[float]) -> dict:
    n = len(reps)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(r.wall_s for r in reps), "s"),
        "peak_rss_mb": (max(r.peak_rss_kb for r in reps) / 1024.0, "MB"),
    }
    etas = [eta for r in reps for c in r.checks for eta in c.etas]
    metrics["eta_mean"] = (statistics.fmean(etas) if etas else 0.0, "bit/symbol")
    print(f"setup_s = {_fmt(metrics['setup_s'][0])} s (median of {len(setup)} imports)")
    print(f"wall_s = {_fmt(metrics['wall_s'][0])} s (median of {n} reps)")
    for label in reps[0].call_walls:
        walls = [r.call_walls[label] for r in reps]
        print(f"  {label}: {_fmt(statistics.median(walls))} s (median of {n})")
    for i, call in enumerate(workload.calls):
        check = reps[0].checks[i]
        if check.episodes:
            rates = [check.episodes / r.call_walls[call.label] for r in reps]
            name = check.mode.replace("-", "_")
            print(f"episodes_per_s.{name} = {_fmt(statistics.median(rates))} 1/s "
                  f"(median of {n}, {check.episodes} episodes per call)")
    print(f"peak_rss_mb = {_fmt(metrics['peak_rss_mb'][0])} MB (max of {n} reps)")
    print(f"eta_mean = {_fmt(metrics['eta_mean'][0])} bit/symbol "
          f"(mean of {len(etas)} op outputs)")
    return metrics


def trace_metrics(workload, plain: Rep, traced: Rep) -> dict:
    live = [c.live_draw_ratio for c in traced.checks if c.live_draw_ratio is not None]
    metrics = layers.layer_metrics(
        traced.traces, workload.scale.units_total, workloads.M_MAX,
        statistics.fmean(live) if live else 0.0, traced.wall_s - plain.wall_s)
    print(f"plain wall {_fmt(plain.wall_s)} s, traced wall {_fmt(traced.wall_s)} s, "
          f"{len(traced.traces)} traces")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {_fmt(value)} {unit}")
    return metrics


def run_workload(workload: workloads.Workload, seed: int, seconds: float,
                 trace: bool, root: str = ROOT) -> None:
    """Run, check and report one workload."""
    env = child_env(root)
    print(f"# workload={workload.name} seed={seed} seconds={seconds:g} trace={int(trace)}")
    print(f"# env {environment(root)}")
    base = os.path.join(root, ".perfbench-work")
    os.makedirs(base, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=base)
    try:
        if trace:
            reps = [run_rep(workload, seed, env, workdir, traced=False),
                    run_rep(workload, seed, env, workdir, traced=True)]
            metrics = trace_metrics(workload, *reps)
        else:
            setup = measure_setup(root, env, workdir, SETUP_IMPORTS)
            reps = []
            t0 = time.perf_counter()
            while not reps or time.perf_counter() - t0 < seconds:
                reps.append(run_rep(workload, seed, env, workdir, traced=False))
            metrics = plain_metrics(workload, reps, setup)
        attempted, failed = report_checks(reps)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass  # another run still uses it
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def main(argv=None, suite: dict[str, workloads.Workload] | None = None,
         root: str = ROOT) -> int:
    suite = suite if suite is not None else workloads.all_workloads()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*suite, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    if not os.path.isfile(os.path.join(root, "src", "harqopt", "__init__.py")):
        print(f"perfbench: no harqopt sources under {root}/src; run from a checkout",
              file=sys.stderr)
        return 2
    names = list(suite) if args.workload == "all" else [args.workload]
    try:
        for name in names:
            run_workload(suite[name], args.seed, args.seconds, bool(args.trace), root)
    except RuntimeError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
