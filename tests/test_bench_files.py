"""The BENCH_*.json files at the repository root record benchmark runs.

Each is an object keyed by exactly the workload names of BENCHMARK.json.
Each value is the last-line JSON of one `perfbench/run.py --workload NAME
--trace 0` run plus its environment line: `correct`, `attempted`,
`failed`, `env` and every end-to-end metric with its unit. From BENCH_5
on, every env line of a file names the one commit it measured.
"""

import json
import math
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_bench_files_exist():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_matches_benchmark_spec(path):
    bench = json.loads(path.read_text(encoding="utf-8"))
    assert sorted(bench) == sorted(w["name"] for w in SPEC["workloads"])
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for entry in bench.values():
        assert isinstance(entry["env"], str) and entry["env"]
        assert isinstance(entry["attempted"], int) and entry["attempted"] > 0
        assert isinstance(entry["failed"], int)
        assert 0 <= entry["failed"] <= entry["attempted"]
        assert entry["correct"] is (entry["failed"] == 0)
        for name, unit in units.items():
            metric = entry["metrics"][name]
            assert metric["unit"] == unit
            assert isinstance(metric["value"], (int, float))
            assert math.isfinite(metric["value"])


@pytest.mark.parametrize("path", [p for p in BENCH_FILES
                                  if int(p.stem.split("_")[1]) >= 5],
                         ids=lambda p: p.name)
def test_bench_file_names_the_commit_it_measured(path):
    bench = json.loads(path.read_text(encoding="utf-8"))
    commits = {entry["env"].split()[0] for entry in bench.values()}
    assert len(commits) == 1
    assert re.fullmatch(r"git=[0-9a-f]{40}", commits.pop())
