"""harqopt runs on numpy alone: importing the package loads no scipy, and
every CLI command, and every committed experiment in experiments/ run in
full, completes in an interpreter where importing scipy raises.

Each run is a fresh subprocess, so an import made lazily deep inside a
workflow is caught as surely as one at module level.
"""

import os
import pathlib
import subprocess
import sys

import pytest

from harqopt import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
EXPERIMENTS = sorted((ROOT / "experiments").glob("*.cfg"))

# sys.modules["scipy"] = None makes every `import scipy...` raise ImportError
_RUN_BLOCKED = """
import sys
sys.modules["scipy"] = None
from harqopt import cli
sys.exit(cli.main(sys.argv[1:]))
"""

_SMALL = {"snr_d_db": 3.0, "snr_u_db": -10.0, "units_total": 16,
          "mc.n_episodes": 10000}

# name -> (command, extra config keys, accepted exit codes); validate exits
# 1 when a z-score verdict fails, which is still a completed run
CASES = {
    "analyze": ("analyze", {}, (0,)),
    "optimize": ("optimize", {}, (0,)),
    "sweep": ("sweep", {"sweep.axis": "snr_u_db", "sweep.values": "-12, -8",
                        "sweep.mode": "fixed_vs_variable"}, (0,)),
    "simulate": ("simulate", {}, (0,)),
    "validate_analytic_flip": ("validate", {"mc.feedback_mode": "analytic-flip"}, (0, 1)),
    "validate_symbol_level": ("validate", {"mc.feedback_mode": "symbol-level"}, (0, 1)),
    "validate_duplicated_ack": ("validate", {"mc.feedback_mode": "duplicated-ack"}, (0, 1)),
}


def _python(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def test_import_loads_no_scipy(tmp_path):
    proc = _python(["-c", "import sys, harqopt; assert 'scipy' not in sys.modules, "
                          "sorted(m for m in sys.modules if m.startswith('scipy'))"],
                   tmp_path)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_command_runs_with_scipy_blocked(name, tmp_path):
    command, keys, codes = CASES[name]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in {**_SMALL, **keys}.items()),
                   encoding="utf-8")
    out = tmp_path / "out.csv"
    proc = _python(["-c", _RUN_BLOCKED, command, "--config", str(cfg), "--out", str(out),
                    "--seed", "1", "--workers", "1"], tmp_path)
    assert proc.returncode in codes, proc.stderr
    assert "Traceback" not in proc.stderr, proc.stderr
    assert out.read_text(encoding="utf-8").count("\n") >= 2  # a header and rows


@pytest.mark.parametrize("cfg", EXPERIMENTS, ids=lambda p: p.stem)
def test_experiment_runs_with_scipy_blocked(cfg, tmp_path):
    # no --out: the config's own output_path lands in the working directory
    proc = _python(["-c", _RUN_BLOCKED, "sweep", "--config", str(cfg),
                    "--workers", "1"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr, proc.stderr
    rows = (tmp_path / f"{cfg.stem}.csv").read_text(encoding="utf-8").splitlines()
    # a header and one row per swept point
    assert len(rows) == 1 + len(cli.load_config(str(cfg)).sweep_values)
