"""The package root exports exactly the names of the README's library example,
and every code name the README quotes exists."""
import dataclasses
import importlib
import pkgutil
import re
from pathlib import Path

import elastoq
from elastoq import cli, experiments
from elastoq.circuits import GateProgram
from elastoq.experiments import INITS, ExperimentConfig
from elastoq.hamiltonian import BOUNDS, SWEEPS

README = Path(__file__).resolve().parent.parent / "README.md"
ROOT_NAMES = ["MaterialParams", "Propagator", "TrotterStep", "build_U1",
              "build_model", "simulate", "steps_and_cost"]
# backticked README tokens shaped like code names that name no code
NON_CODE_TOKENS = {"ValueError", "sigma_zz", "v_x", "v_z"}


def _readme_example() -> str:
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    return blocks[0]


def test_root_exports_the_example_names():
    assert sorted(elastoq.__all__) == ROOT_NAMES
    imported = re.search(r"from elastoq import \((.*?)\)", _readme_example(), flags=re.S)
    assert sorted(name.strip() for name in imported.group(1).split(",")) == ROOT_NAMES


def _package_names() -> set[str]:
    """Attributes of every elastoq submodule and of every class defined in one."""
    names = set()
    for info in pkgutil.iter_modules(elastoq.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"elastoq.{info.name}")
        names.update(vars(module))
        for obj in vars(module).values():
            if isinstance(obj, type) and obj.__module__.startswith("elastoq."):
                names.update(dir(obj))
    return names


def test_readme_code_names_exist():
    # a token with an underscore or an inner capital, not all caps, reads as code
    tokens = {token for token in re.findall(r"`([^`\n]+)`", README.read_text())
              if token.isidentifier() and not token.isupper()
              and ("_" in token or any(c.isupper() for c in token[1:]))}
    assert tokens, "the README quotes no code name"
    assert sorted(tokens - NON_CODE_TOKENS - _package_names()) == []


def test_readme_example_runs(capsys):
    exec(compile(_readme_example(), str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    gate_vs_fast, fast_vs_exact = (float(x) for x in lines[0].split())
    assert gate_vs_fast < 1e-10
    assert fast_vs_exact < 1e-2


def _sources() -> dict[str, str]:
    package = Path(elastoq.__file__).resolve().parent
    return {path.stem: path.read_text() for path in sorted(package.glob("*.py"))}


def _modules_with(pattern: str) -> list[str]:
    return [name for name, text in _sources().items() if re.search(pattern, text)]


def test_input_rules_live_in_one_place():
    # ranges go through media.check_real, step counts through media.whole_steps,
    # whole numbers through media.check_count
    assert _modules_with(r"<=? *math\.inf") == []
    assert _modules_with("_is_real") == ["media"]
    assert _modules_with("does not divide") == ["media"]
    assert _modules_with(r"isinstance\([^()]*\bbool\)") == ["media"]
    # the per-step CNOT account is hamiltonian.step_cnots, which a program derives
    assert _modules_with(r"\bu[12]_step_cnots\b") == []
    assert "cnot_account" not in {f.name for f in dataclasses.fields(GateProgram)}
    # one table per kind of name, with no alias tuple of its keys: hamiltonian.SWEEPS
    # (the schemes), hamiltonian.BOUNDS (the bound names) and experiments.INITS
    assert _modules_with(r'\{"u1": .*, "u2": ') == ["hamiltonian"]
    assert _modules_with(r'\{"pulse": .*, "p": .*, "s": ') == ["experiments"]
    for scheme in BOUNDS:
        assert _modules_with(f'"{scheme}"') == ["hamiltonian"]
    # one name rule, media.check_choice, and one step-count ceiling, media.step_ceiling
    assert _modules_with(r"\bin SCHEMES\b") == []
    assert _modules_with(r"math\.ceil\b") == ["media"]


def test_one_printed_record_form():
    # every "key value" text record is joined by hamiltonian.record_text, and a
    # budget prints itself, so no report function takes its inputs a second time
    assert _modules_with(r'f"\{key\} \{value\}"') == ["hamiltonian"]
    assert not {"SCHEMES", "BOUND_SCHEMES", "format_cost_report"} & _package_names()


def test_hamiltonian_imports_nothing_from_circuits():
    # circuits builds on the generator, not the other way round
    assert "from .circuits" not in _sources()["hamiltonian"]


def test_named_choices_read_their_tables():
    # a scheme, bound name or init selects its row of SWEEPS, BOUNDS or INITS; no code
    # compares one against a literal name
    names = "|".join(re.escape(name) for name in [*SWEEPS, *BOUNDS, *INITS])
    literal = rf'["\'](?:{names})["\']'
    operator = r"(?:[=!]=|(?:not\s+)?in\b)"
    assert _modules_with(rf"\b\w*(?:scheme|init)\s*{operator}\s*\(?\s*{literal}") == []
    assert _modules_with(rf"{literal}\s*{operator}\s*[\w.]*(?:scheme|init)\b") == []
    # and media.check_choice is the one membership rule for such a name
    tables = "SWEEPS|SCHEMES|BOUNDS|BOUND_SCHEMES|INITS"
    assert _modules_with(rf"(?m)^(?!\s*for\b).*\bin (?:{tables})\b") == []
    assert _modules_with(r"must be one of") == ["media"]


def test_one_job_per_run_entry_point():
    # a config holds no run mode: --dry-run picks plan_experiment over run_experiment,
    # and a file or flag may set every field; the run and the tests call one sweep
    assert cli._CONFIG_FIELDS == tuple(f.name for f in dataclasses.fields(ExperimentConfig))
    assert "dry_run" not in cli._CONFIG_FIELDS
    assert not hasattr(experiments, "_sweep")


def test_one_grid_stencil():
    # the central difference is written once, in lattice.apply_d_cell: apply_d_axis and
    # classical.coupling_map reach it, and classical builds no difference matrix
    shifted_write = r"\w\[[^\]\n]*:-\w+\] *[-+]?="  # a slice update that drops the last points
    assert {name: len(re.findall(shifted_write, text)) for name, text in _sources().items()
            if re.search(shifted_write, text)} == {"lattice": 1}
    classical = _sources()["classical"]
    assert re.search(r"from \.lattice import [^\n]*\bapply_d_axis\b", classical)
    assert not re.search(r"np\.eye\([^)]*\bk=|\bdiags\(", classical)
