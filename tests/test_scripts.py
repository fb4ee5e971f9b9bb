"""The example scripts under scripts/: the config file they hand the CLI
is removed afterwards, and their sweep grids."""

import importlib.util
import os
import pathlib
import sys

import pytest

from harqopt import cli

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, args, monkeypatch):
    """Run scripts/<name>.py with `args` against a stub CLI; returns its
    exit code and the (path, text) of every config it handed over."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    received = []

    def stub_main(argv):
        path = argv[argv.index("--config") + 1]
        received.append((path, pathlib.Path(path).read_text(encoding="utf-8")))
        return 0

    monkeypatch.setattr(cli, "main", stub_main)
    monkeypatch.setattr(sys, "argv", [name, *args])
    return script.main(), received


@pytest.mark.parametrize("name", [
    "fixed_vs_variable_thresholds",
    "outage_vs_feedback_snr",
    "throughput_vs_duplicated_ack",
])
def test_script_config_file_is_removed(name, tmp_path, monkeypatch):
    rc, received = run_script(name, ["--out", str(tmp_path / "out.csv")], monkeypatch)
    assert rc == 0
    assert len(received) == 1
    path, text = received[0]
    assert "sweep.mode = " in text
    assert not os.path.exists(path)


@pytest.mark.parametrize("name", ["outage_vs_feedback_snr",
                                  "throughput_vs_duplicated_ack"])
def test_script_point_count(name, tmp_path, monkeypatch, capsys):
    # one point is the low end of the range; fewer are refused by argparse
    out = ["--out", str(tmp_path / "out.csv"), "--snr-u-lo", "-10", "--snr-u-hi", "-5"]
    rc, received = run_script(name, [*out, "--points", "1"], monkeypatch)
    assert rc == 0
    assert "sweep.values = -10\n" in received[0][1]
    rc, received = run_script(name, [*out, "--points", "3"], monkeypatch)
    assert "sweep.values = -10, -7.5, -5\n" in received[0][1]
    with pytest.raises(SystemExit) as exc:
        run_script(name, [*out, "--points", "0"], monkeypatch)
    assert exc.value.code == 2
    assert "--points must be at least 1" in capsys.readouterr().err
