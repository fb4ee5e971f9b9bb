"""The paper's experiments, committed as sweep configs under experiments/:
each loads, writes a CSV that .gitignore covers, and is the one the README
names."""

import pathlib
import re

import pytest

from harqopt import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
EXPERIMENTS = sorted((ROOT / "experiments").glob("*.cfg"))


@pytest.mark.parametrize("cfg", EXPERIMENTS, ids=lambda p: p.stem)
def test_experiment_config_loads(cfg):
    config = cli.load_config(str(cfg))
    assert config.sweep_axis == "snr_u_db" and config.sweep_values
    assert config.output_path == f"{cfg.stem}.csv"
    ignored = (ROOT / ".gitignore").read_text(encoding="utf-8").splitlines()
    assert f"/{config.output_path}" in ignored


def test_readme_names_exactly_the_experiments():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Paper experiments", 1)[1].split("\n## ", 1)[0]
    named = re.findall(r"harqopt sweep --config experiments/(\S+)\.cfg", section)
    assert sorted(named) == [p.stem for p in EXPERIMENTS]
