"""The four benchmark workloads and the checks on their outputs.

Every workload has a `setup` (what a user pays before the first unit of
work: models, initial states, gate programs, leapfrog configs) and a `job`
(set-up, the work and the checks: the time to a checked solution).  Jobs
that go through `elastoq.cli.main` let the CLI do its own set-up; `setup`
repeats the same calls from outside so that their cost is timed.  The
program is always entered through module attributes (`circuits.simulate`,
`cli.main`, ...) so the span wrappers in spans.py see every call.

Checks compare against independent references within a tolerance: stored
values produced by the seed code (reference.json), or a second code path.
A correct reimplementation that changes the last digits of a result passes.
"""
from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from elastoq import circuits, classical, cli, experiments, hamiltonian
from elastoq.experiments import ExperimentConfig
from elastoq.media import MaterialParams

REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())

#: Default material of the paper (and of the CLI).
MATERIAL = MaterialParams(rho=1.0, E=0.646, nu=0.255)


class CheckFailed(Exception):
    """A program output disagrees with its reference."""


@dataclass
class Checker:
    """Counts checked operations; an operation fails if a check fails or it raises."""

    workload: str
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    @contextlib.contextmanager
    def operation(self, name: str):
        self.attempted += 1
        try:
            yield
        except Exception as exc:  # one failed operation must not stop the run
            self.failed += 1
            self.problems.append(f"{name}: {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            raise CheckFailed(message)

    def close(self, key: str, value: float, rtol: float = 0.0, atol: float = 0.0) -> None:
        """value must match the stored reference REFERENCE[workload][key]."""
        expected = REFERENCE[self.workload][key]
        if not abs(value - expected) <= atol + rtol * abs(expected):
            raise CheckFailed(f"{key} = {value!r}, reference {expected!r} "
                              f"(rtol {rtol:g}, atol {atol:g})")


def _quiet(argv: list[str]) -> tuple[int, str]:
    """Run the CLI in-process with its stdout captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _records(text: str) -> list[dict[str, str]]:
    """Blank-line separated blocks of "key value" lines ('#' lines skipped)."""
    blocks = []
    for chunk in text.strip().split("\n\n"):
        rows = [line.split(" ", 1) for line in chunk.splitlines()
                if line and not line.startswith("#")]
        if rows:
            blocks.append(dict(rows))
    return blocks


def _unit_states(rng: np.random.Generator, dim: int, batch: int) -> np.ndarray:
    states = rng.standard_normal((dim, batch)) + 1j * rng.standard_normal((dim, batch))
    return states / np.linalg.norm(states, axis=0)


# ---------------------------------------------------------------------------
# sweep: the paper's fidelity experiment, one config each side of the
# dense/Krylov oracle switch
# ---------------------------------------------------------------------------

SWEEP_T = 10.0
SWEEP_TAUS = (0.1, 0.2, 0.5, 1.0)
SWEEP_RUNS = {
    "n2_pulse_u2": {"n": 2, "init": "pulse", "scheme": "u2"},  # dense oracle, dim 1024
    "n3_p_u1": {"n": 3, "init": "p", "scheme": "u1"},          # Krylov oracle, dim 8192
}


def sweep_setup(rng: np.random.Generator):
    for spec in SWEEP_RUNS.values():
        config = ExperimentConfig(T=SWEEP_T, taus=SWEEP_TAUS, **spec)
        model = experiments.config_model(config)
        experiments.build_initial_state(config, model)


def sweep_job(rng: np.random.Generator, workdir: Path, check: Checker) -> int:
    """Two `elastoq run` calls; the seed orders the tau flags."""
    written = 0
    for label, spec in SWEEP_RUNS.items():
        out = workdir / label
        argv = ["run", "--n", str(spec["n"]), "--init", spec["init"],
                "--scheme", spec["scheme"], "--T", f"{SWEEP_T:g}", "--out", str(out)]
        for tau in rng.permutation(SWEEP_TAUS):
            argv += ["--tau", f"{tau:g}"]
        code, _ = _quiet(argv)
        for tau in SWEEP_TAUS:
            with check.operation(f"{label} tau={tau:g}"):
                check.expect(code == 0, f"elastoq run exited {code}")
                rows = (out / f"fidelity_tau{tau:g}.csv").read_text().split()
                check.expect(len(rows) == round(SWEEP_T / tau) + 2,
                             f"{len(rows) - 1} fidelity rows for tau={tau:g}")
                t_final, f_final = (float(x) for x in rows[-1].split(","))
                check.expect(abs(t_final - SWEEP_T) < 1e-9, f"last row at t={t_final}")
                # Krylov runs to a residual of 1e-10 per step, <= 100 steps
                check.close(f"{label}.tau{tau:g}.final_fidelity", f_final, atol=1e-7)
        if out.exists():
            written += sum(f.stat().st_size for f in out.rglob("*") if f.is_file())
            shutil.rmtree(out)
    return written


# ---------------------------------------------------------------------------
# trotter: the Trotter half of --full-scale on the n = 5 p-wave state
# ---------------------------------------------------------------------------

TROTTER_N = 5
TROTTER_TAU = 0.1
TROTTER_STEPS = 40


def trotter_setup(rng: np.random.Generator):
    config = ExperimentConfig(n=TROTTER_N, init="p", T=30.0)
    model = experiments.config_model(config)
    return model, experiments.build_initial_state(config, model)


def trotter_job(rng: np.random.Generator, workdir: Path, check: Checker) -> int:
    model, prepared = trotter_setup(rng)
    with check.operation("walk"):
        psi = prepared.psi
        for scheme in ("u1", "u2"):
            for _ in range(TROTTER_STEPS):
                psi = circuits.apply_block_fast(model, scheme, TROTTER_TAU, psi)
        fields = experiments.reconstruct_fields(model, psi, prepared.norm_factor)
        check.close("walk.norm", float(np.linalg.norm(psi)), atol=1e-10)
        for name, slc in sorted(fields.items()):
            scale = REFERENCE["trotter"][f"walk.{name}.l2"]
            check.close(f"walk.{name}.l2", float(np.linalg.norm(slc.data)), rtol=1e-9)
            check.close(f"walk.{name}.sum", float(slc.data.sum()), atol=1e-9 * scale)
    with check.operation("u2 reversibility"):
        phi = _unit_states(rng, model.dim, 1)[:, 0]
        there = circuits.apply_block_fast(model, "u2", TROTTER_TAU, phi)
        back = circuits.apply_block_fast(model, "u2", -TROTTER_TAU, there)
        dev = float(np.linalg.norm(back - phi))
        check.expect(dev < 1e-12, f"u2(-tau) u2(tau) deviates from identity by {dev:.3e}")
    return 0


# ---------------------------------------------------------------------------
# circuit: gate IR build -> text -> parse -> gate-level simulate
# ---------------------------------------------------------------------------

CIRCUIT_NS = (2, 3)
CIRCUIT_TAUS = (0.1, 0.5)
CIRCUIT_BATCH = 4


def circuit_setup(rng: np.random.Generator):
    programs = []
    for n in CIRCUIT_NS:
        model = hamiltonian.build_model(n, 1.0, MATERIAL)
        for tau in CIRCUIT_TAUS:
            programs.append((model, circuits.build_U1(model, tau)))
            programs.append((model, circuits.build_U2(model, tau)))
    return programs


def _same_program(check: Checker, built, parsed) -> None:
    for attr in ("n", "scheme", "cnot_account"):
        check.expect(getattr(parsed, attr) == getattr(built, attr), f"{attr} differs")
    check.expect(abs(parsed.tau - built.tau) <= 1e-15 * abs(built.tau), "tau differs")
    check.expect(len(parsed.gates) == len(built.gates), "gate count differs")
    for i, (a, b) in enumerate(zip(built.gates, parsed.gates)):
        same = (a.kind == b.kind and a.target == b.target and a.controls == b.controls
                and a.pattern == b.pattern and a.targets == b.targets
                and abs(a.angle - b.angle) <= 1e-15 * max(1.0, abs(a.angle)))
        if a.unitary is not None or b.unitary is not None:
            same = same and a.unitary is not None and b.unitary is not None and bool(
                np.allclose(a.unitary, b.unitary, rtol=0.0, atol=1e-15))
        check.expect(same, f"gate {i} ({a.kind}) differs after the text round trip")


def circuit_job(rng: np.random.Generator, workdir: Path, check: Checker) -> int:
    for model, program in circuit_setup(rng):
        with check.operation(f"n={program.n} {program.scheme} tau={program.tau:g}"):
            parsed = circuits.parse_program(circuits.serialize_program(program))
            _same_program(check, program, parsed)
            batch = _unit_states(rng, model.dim, CIRCUIT_BATCH)
            gate_level = circuits.simulate(parsed, batch)
            fast = circuits.apply_block_fast(model, program.scheme, program.tau, batch)
            dev = float(np.abs(gate_level - fast).max())
            check.expect(dev < 1e-12, f"simulate vs apply_block_fast: max dev {dev:.3e}")
    return 0


# ---------------------------------------------------------------------------
# certify: the classical baseline through the CLI
# ---------------------------------------------------------------------------

CERTIFY_ARGV = ["certify", "--n", "2", "--T", "2", "--tau", "0.1", "--eta", "1.0",
                "--steps", "200"]
BOUNDS_ARGV = ["bounds", "--n", "5", "--T", "30"]
COMPARE_ARGV = ["compare", "--n", "2", "--T", "10"]


def certify_setup(rng: np.random.Generator):
    model = hamiltonian.build_model(2, 1.0, MATERIAL)
    classical.make_leapfrog_config(model, tau=0.1, eta=1.0, T=2.0)
    hamiltonian.build_model(5, 1.0, MATERIAL)


def _check_certify(check: Checker, code: int, text: str) -> None:
    reports = {block.get("certificate"): block for block in _records(text)}
    for name in ("power-bound", "local-error", "global-error"):
        with check.operation(f"certificate {name}"):
            check.expect(code == 0, f"elastoq certify exited {code}")
            block = reports[name]
            check.expect(block["passed"] == "True", f"{name} certificate failed")
            check.close(f"{name}.measured", float(block["measured"]), rtol=1e-6)


def _check_budgets(check: Checker, blocks: list[dict], prefix: str) -> None:
    budgets = {block.get("scheme"): block for block in blocks}
    for scheme in ("first-norm", "first-commutator", "second"):
        for key in ("m_formula", "m", "total_cnot"):
            check.close(f"{prefix}.{scheme}.{key}", float(budgets[scheme][key]), rtol=1e-9)


def _check_bounds(check: Checker, code: int, text: str) -> None:
    with check.operation("bounds"):
        check.expect(code == 0, f"elastoq bounds exited {code}")
        _check_budgets(check, _records(text), "bounds")


def _check_compare(check: Checker, code: int, text: str) -> None:
    with check.operation("compare"):
        check.expect(code == 0, f"elastoq compare exited {code}")
        blocks = _records(text)
        cost = next(b for b in blocks if b.get("method") == "partitioned-leapfrog")
        check.close("compare.l_norm", float(cost["l_norm"]), rtol=1e-5)
        check.close("compare.tau_max", float(cost["tau_max"]), rtol=1e-5)
        check.close("compare.m_cl", float(cost["m_cl"]), rtol=1e-2)
        _check_budgets(check, blocks, "compare")


def certify_job(rng: np.random.Generator, workdir: Path, check: Checker) -> int:
    """certify, bounds and compare; the seed orders the three commands."""
    commands = [(CERTIFY_ARGV, _check_certify), (BOUNDS_ARGV, _check_bounds),
                (COMPARE_ARGV, _check_compare)]
    for i in rng.permutation(len(commands)):
        argv, check_output = commands[i]
        code, text = _quiet(argv)
        check_output(check, code, text)
    return 0


@dataclass(frozen=True)
class Workload:
    """A job returns the bytes of output files it wrote (and removed)."""

    name: str
    setup: Callable[[np.random.Generator], object]
    job: Callable[[np.random.Generator, Path, Checker], int]


# The gate-IR round trip and the classical baseline share one workload: both
# are bound by per-call overhead and use neither the oracle nor (beyond the
# circuit check's reference) the Trotter kernel.  Alone, the gate-IR job
# spread too much between 30 s runs on the reference host (a quartile
# distance of 0.18-0.27 of the median over ten runs); three workloads leave
# room for 40 s runs.
def circuit_certify_setup(rng: np.random.Generator):
    certify_setup(rng)
    return circuit_setup(rng)


def circuit_certify_job(rng: np.random.Generator, workdir: Path, check: Checker) -> int:
    circuit_job(rng, workdir, check)
    return certify_job(rng, workdir, check)


WORKLOADS = {w.name: w for w in (
    Workload("sweep", sweep_setup, sweep_job),
    Workload("trotter", trotter_setup, trotter_job),
    Workload("circuit_certify", circuit_certify_setup, circuit_certify_job),
)}
