"""The package root exports exactly the names of the README's library example."""
import re
from pathlib import Path

import elastoq

README = Path(__file__).resolve().parent.parent / "README.md"
ROOT_NAMES = ["MaterialParams", "Propagator", "TrotterStep", "build_U1",
              "build_model", "simulate", "steps_and_cost"]


def _readme_example() -> str:
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    return blocks[0]


def test_root_exports_the_example_names():
    assert sorted(elastoq.__all__) == ROOT_NAMES
    imported = re.search(r"from elastoq import \((.*?)\)", _readme_example(), flags=re.S)
    assert sorted(name.strip() for name in imported.group(1).split(",")) == ROOT_NAMES


def test_readme_example_runs(capsys):
    exec(compile(_readme_example(), str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    gate_vs_fast, fast_vs_exact = (float(x) for x in lines[0].split())
    assert gate_vs_fast < 1e-10
    assert fast_vs_exact < 1e-2
