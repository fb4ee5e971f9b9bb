"""The README's "Library use" example runs as printed."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_use_block_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    names: dict = {}
    exec(compile(block, "README.md", "exec"), names)
    sol = names["sol"]
    assert sol.feasible and sol.breakdown.p_out_unreliable <= 0.01 * (1 + 1e-6)
    assert names["grid"].units_total == 64
