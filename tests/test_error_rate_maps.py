"""Every error rate outside feedback_model comes from a FeedbackSpec's maps.

feedback_model.nack_error_rate and ack_error_rate are the one-slot rates of
the detector at an uplink SNR. Every scheme's rates are built from them
inside feedback_model, by FeedbackSpec.nack_rate and ack_rate, so a module
that called them itself would use the one-slot rates under any scheme. The
check reads each module's syntax tree: a name, an attribute or an import
of either function counts as a reference.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "harqopt"
ONE_SLOT = {"nack_error_rate", "ack_error_rate"}
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "feedback_model.py")


def _references(tree: ast.AST) -> list[tuple[int, str]]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name
        else:
            continue
        if name in ONE_SLOT:
            found.append((getattr(node, "lineno", 0), name))
    return found


def test_the_guard_sees_every_module_and_each_kind_of_reference():
    assert {p.stem for p in MODULES} >= {"cli", "harq_analysis", "mc_simulator",
                                         "optimizer", "__init__"}
    source = ("from .feedback_model import ack_error_rate\n"
              "p = feedback_model.nack_error_rate(0.0, 1.0)\n"
              "q = nack_error_rate\n")
    assert sorted(n for _, n in _references(ast.parse(source))) == [
        "ack_error_rate", "nack_error_rate", "nack_error_rate"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_module_but_feedback_model_uses_the_one_slot_rates(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _references(tree) == [], f"{path.name} references the one-slot rates"
