"""Golden-output regression test for the CLI workflows.

Every command runs in-process on a small 16-unit grid with one worker and
a fixed seed, and its CSVs and exit code are compared against the files
in tests/golden/: headers, labels and integer or flag cells exactly,
floating-point cells to a relative 1e-7 (the last printed digits may move
with the installed numpy and the platform's floating-point kernels).

The golden files are regenerated only for an intended change of output,
and that change is logged in CHANGES.md. To regenerate, run this file as a
script from the repository root:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import json
import math
import pathlib
import re

import pytest

from harqopt import cli

GOLDEN = pathlib.Path(__file__).with_name("golden")
_EXIT_CODES = "exit_codes.json"

_BASE = {
    "snr_d_db": 3.0,
    "snr_u_db": -10.0,
    "units_total": 16,
    "seed": 11,
    "mc.n_episodes": 20000,
}

# name -> (command, extra config keys, CSV files the run writes)
CASES = {
    "analyze_gaussian": ("analyze", {}, ["analyze_gaussian.csv"]),
    "analyze_convolution": ("analyze", {"route": "convolution"},
                            ["analyze_convolution.csv"]),
    "optimize": ("optimize", {}, ["optimize.csv", "optimize_trace.csv"]),
    "validate_analytic_flip": ("validate", {"mc.feedback_mode": "analytic-flip"},
                               ["validate_analytic_flip.csv"]),
    "validate_symbol_level": ("validate", {"mc.feedback_mode": "symbol-level"},
                              ["validate_symbol_level.csv"]),
    "validate_duplicated_ack": ("validate",
                                {"mc.feedback_mode": "duplicated-ack"},
                                ["validate_duplicated_ack.csv"]),
    "sweep_fixed_vs_variable": ("sweep", {
        "sweep.axis": "snr_u_db", "sweep.values": "-12, -8",
        "sweep.mode": "fixed_vs_variable",
    }, ["sweep_fixed_vs_variable.csv"]),
    "sweep_min_outage": ("sweep", {
        "sweep.axis": "snr_u_db", "sweep.values": "-14, -10, -6",
        "sweep.mode": "min_outage",
    }, ["sweep_min_outage.csv"]),
    "sweep_optimize_alpha": ("sweep", {
        "sweep.axis": "alpha", "sweep.values": "0.3, 1.2",
        "sweep.mode": "optimize",
    }, ["sweep_optimize_alpha.csv"]),
    "sweep_vs_duplicated": ("sweep", {
        "sweep.axis": "snr_u_db", "sweep.values": "-12, -6",
        "sweep.mode": "vs_duplicated",
    }, ["sweep_vs_duplicated.csv"]),
    # the policy given is the optimizer's start point
    "optimize_seeded": ("optimize", {"rhos_units": "5, 4, 4, 3",
                                     "alphas": "1, 1, 1"},
                        ["optimize_seeded.csv", "optimize_seeded_trace.csv"]),
}

_INT = re.compile(r"-?\d+")
_FLOAT = re.compile(r"-?(\d+\.?\d*(e[-+]?\d+)?|inf|nan)")


def _run_all(out_dir: pathlib.Path) -> dict[str, int]:
    codes = {}
    for name, (command, keys, files) in CASES.items():
        cfg = out_dir / f"{name}.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in {**_BASE, **keys}.items()),
                       encoding="utf-8")
        codes[name] = cli.main([command, "--config", str(cfg),
                                "--out", str(out_dir / files[0]), "--workers", "1"])
        cfg.unlink()
    return codes


def _rows(path: pathlib.Path) -> list[list[str]]:
    return [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()]


def _cells_match(want: str, got: str) -> bool:
    # integers, flags and labels exactly; floats to a relative 1e-7
    if _INT.fullmatch(want) or not _FLOAT.fullmatch(want):
        return got == want
    if not _FLOAT.fullmatch(got):
        return False
    w, g = float(want), float(got)
    if math.isnan(w):
        return math.isnan(g)
    return math.isclose(g, w, rel_tol=1e-7, abs_tol=0.0)


@pytest.fixture(scope="module")
def produced(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("golden_run")
    return out_dir, _run_all(out_dir)


def test_exit_codes_match(produced):
    _, codes = produced
    want = json.loads((GOLDEN / _EXIT_CODES).read_text(encoding="utf-8"))
    assert codes == want


@pytest.mark.parametrize("filename", sorted(f for _, _, files in CASES.values()
                                            for f in files))
def test_csv_matches_golden(produced, filename):
    out_dir, _ = produced
    want = _rows(GOLDEN / filename)
    got = _rows(out_dir / filename)
    assert got[0] == want[0], "header changed"
    assert len(got) == len(want), "row count changed"
    for r, (w_row, g_row) in enumerate(zip(want[1:], got[1:]), start=1):
        assert len(g_row) == len(w_row), f"row {r}: column count changed"
        for col, w, g in zip(want[0], w_row, g_row):
            assert _cells_match(w, g), f"row {r}, {col}: want {w}, got {g}"


def test_golden_dir_has_no_stray_files():
    expected = {f for _, _, files in CASES.values() for f in files} | {_EXIT_CODES}
    assert {p.name for p in GOLDEN.iterdir()} == expected


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for old in GOLDEN.iterdir():
        old.unlink()
    codes = _run_all(GOLDEN)
    (GOLDEN / _EXIT_CODES).write_text(json.dumps(codes, indent=2) + "\n",
                                      encoding="utf-8")
    print(f"wrote {len(list(GOLDEN.iterdir()))} files to {GOLDEN}")


if __name__ == "__main__":
    regenerate()
