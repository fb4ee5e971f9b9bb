"""The example scripts under scripts/ remove the config file they write."""

import importlib.util
import os
import pathlib
import sys

import pytest

from harqopt import cli

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("name", [
    "fixed_vs_variable_thresholds",
    "outage_vs_feedback_snr",
    "throughput_vs_duplicated_ack",
])
def test_script_config_file_is_removed(name, tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    received = []

    def stub_main(argv):
        path = argv[argv.index("--config") + 1]
        received.append((path, pathlib.Path(path).read_text(encoding="utf-8")))
        return 0

    monkeypatch.setattr(cli, "main", stub_main)
    monkeypatch.setattr(sys, "argv", [name, "--out", str(tmp_path / "out.csv")])
    assert script.main() == 0
    assert len(received) == 1
    path, text = received[0]
    assert "sweep.mode = " in text
    assert not os.path.exists(path)
