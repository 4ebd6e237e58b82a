"""Span tracing around calls into elastoq's layers, installed from outside.

Each entry of TARGETS names a span and the module attributes it wraps, as
"module:qualname".  A wrapper replaces the attribute the caller resolves at
call time (for example `elastoq.circuits.apply_pair_rotation`, which is what
the fast path looks up), so nothing under src/ needs to know about tracing.
A target that no longer exists is skipped: its metrics read 0 calls and the
run goes on.  Wrappers are removed again when the `traced` context exits.

Spans carry their parent's id; a span's self time is its duration minus the
durations of its direct children.  The benchmark pins one thread, so one span
stack suffices.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable

LAYERS = ("media", "lattice", "hamiltonian", "circuits", "classical",
          "experiments", "cli")

# Computed traffic of one structural Trotter step: one complex128 read and
# one write of the whole state per axis sweep, three sweeps per u1 step and
# six per u2 step.  Labelled as computed; cache misses are not counted.
_COMPLEX_BYTES = 16


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _count_program_gates(counts, args, kwargs, result):
    counts["circuits.program_gates"] += len(result.gates)


def _count_gate_applications(counts, args, kwargs, result):
    counts["circuits.gate_applications"] += len(_arg(args, kwargs, 0, "program").gates)


def _count_text_bytes(counts, args, kwargs, result):
    counts["circuits.program_text_bytes"] += len(result.encode())


def _count_fast_step_bytes(counts, args, kwargs, result):
    scheme = _arg(args, kwargs, 1, "scheme")
    psi = _arg(args, kwargs, 3, "psi")
    sweeps = 3 if scheme == "u1" else 6
    counts["circuits.fast_step_bytes"] += 2 * sweeps * psi.size * _COMPLEX_BYTES


def _count_materialized_model(counts, args, kwargs, result):
    model = _arg(args, kwargs, 0, "model")
    counts.setdefault("_materialized_models", set()).add(
        (model.shape.n, model.shape.h, model.params))


@dataclass(frozen=True)
class Target:
    """One span name, the attributes it wraps, and an optional counter hook."""

    span: str
    attrs: tuple[str, ...]
    count: Callable | None = None


TARGETS = (
    Target("cli.main", ("elastoq.cli:main",)),
    Target("experiments.run_experiment", ("elastoq.cli:run_experiment",)),
    Target("hamiltonian.build_model", ("elastoq.hamiltonian:HamiltonianModel.build",)),
    Target("media.eigendecompose", ("elastoq.hamiltonian:eigendecompose_axis",)),
    Target("experiments.initial_state", ("elastoq.experiments:build_initial_state",)),
    Target("experiments.reconstruct", ("elastoq.experiments:reconstruct_fields",)),
    Target("circuits.build", ("elastoq.circuits:build_U1", "elastoq.circuits:build_U2"),
           _count_program_gates),
    Target("circuits.oracle_factor", ("elastoq.experiments:_ExactStepper.__init__",)),
    Target("circuits.oracle_step", ("elastoq.experiments:_ExactStepper.step",
                                    "elastoq.circuits:exact_evolve")),
    Target("hamiltonian.apply_H", ("elastoq.experiments:apply_H", "elastoq.circuits:apply_H")),
    Target("hamiltonian.materialize", ("elastoq.experiments:materialize_sparse_H",
                                       "elastoq.circuits:materialize_sparse_H",
                                       "elastoq.hamiltonian:materialize_sparse_H"),
           _count_materialized_model),
    Target("circuits.fast_step", ("elastoq.experiments:apply_block_fast",
                                  "elastoq.circuits:apply_block_fast"),
           _count_fast_step_bytes),
    Target("lattice.pair_rotation", ("elastoq.circuits:apply_pair_rotation",)),
    Target("lattice.d_axis", ("elastoq.hamiltonian:apply_d_axis",
                              "elastoq.classical:apply_d_axis")),
    Target("circuits.simulate", ("elastoq.circuits:simulate",), _count_gate_applications),
    Target("circuits.serialize", ("elastoq.circuits:serialize_program",), _count_text_bytes),
    Target("circuits.parse", ("elastoq.circuits:parse_program",)),
    Target("classical.leapfrog", ("elastoq.classical:leapfrog_step",)),
    Target("classical.l_norm", ("elastoq.classical:estimate_l_norm",)),
    Target("classical.power_bound", ("elastoq.cli:power_bound_certificate",
                                     "elastoq.classical:power_bound_certificate")),
    Target("classical.local", ("elastoq.cli:local_error_certificate",
                               "elastoq.classical:local_error_certificate")),
    Target("classical.global", ("elastoq.cli:global_error_certificate",
                                "elastoq.classical:global_error_certificate")),
    Target("classical.cost_model", ("elastoq.cli:cost_model",
                                    "elastoq.classical:cost_model")),
)


@dataclass
class Tracer:
    """In-memory span recorder; `spans` holds (id, parent, name, start, end, error)."""

    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=lambda: defaultdict(float))
    _stack: list = field(default_factory=list)
    _next_id: int = 1

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def traced_call(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else 0
            self._stack.append(span_id)
            error = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                error = True
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((span_id, parent, name, start, end, error))
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return traced_call

    def take(self) -> tuple[list, dict]:
        """Hand over and forget the spans and counts recorded so far."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], defaultdict(float)
        return spans, counts


def _resolve(path: str):
    """(owner, attribute name, raw attribute) for "module:qualname", or None."""
    module_name, _, qualname = path.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *outer, attr = qualname.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if raw is None:
        return None
    return owner, attr, raw


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install every wrapper in TARGETS for the duration of the block."""
    installed = []
    try:
        for target in TARGETS:
            for path in target.attrs:
                found = _resolve(path)
                if found is None:
                    continue
                owner, attr, raw = found
                if isinstance(raw, (classmethod, staticmethod)):
                    new = type(raw)(tracer.wrap(target.span, raw.__func__, target.count))
                elif callable(raw):
                    new = tracer.wrap(target.span, raw, target.count)
                else:
                    continue
                setattr(owner, attr, new)
                installed.append((owner, attr, raw))
        yield tracer
    finally:
        for owner, attr, raw in reversed(installed):
            setattr(owner, attr, raw)


def span_totals(spans: list) -> tuple[dict, dict, dict, dict]:
    """Per span name: calls, inclusive seconds, self seconds; errors per layer."""
    calls: dict = defaultdict(int)
    inclusive: dict = defaultdict(float)
    child_time: dict = defaultdict(float)
    errors: dict = defaultdict(int)
    for span_id, parent, name, start, end, error in spans:
        calls[name] += 1
        inclusive[name] += end - start
        if parent:
            child_time[parent] += end - start
        if error:
            errors[name.partition(".")[0]] += 1
    self_time: dict = defaultdict(float)
    for span_id, parent, name, start, end, error in spans:
        self_time[name] += (end - start) - child_time.get(span_id, 0.0)
    return calls, inclusive, self_time, errors


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def job_metrics(spans: list, counts: dict, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced job that took wall_s seconds."""
    calls, incl, self_s, errors = span_totals(spans)
    oracle_s = incl["circuits.oracle_factor"] + incl["circuits.oracle_step"]
    materialized_models = len(counts.get("_materialized_models", ()))
    out = {
        "hamiltonian.build_model_calls": calls["hamiltonian.build_model"],
        "hamiltonian.build_model_s": incl["hamiltonian.build_model"],
        "media.eigendecompose_s": incl["media.eigendecompose"],
        "experiments.initial_state_s": incl["experiments.initial_state"],
        "circuits.build_s": incl["circuits.build"],
        "circuits.program_gates": counts["circuits.program_gates"],
        "circuits.oracle_steps": calls["circuits.oracle_step"],
        "circuits.oracle_s": oracle_s,
        "circuits.oracle_share": _ratio(oracle_s, wall_s),
        "hamiltonian.apply_H_calls": calls["hamiltonian.apply_H"],
        "hamiltonian.apply_H_s": incl["hamiltonian.apply_H"],
        "hamiltonian.apply_H_per_oracle_step": _ratio(calls["hamiltonian.apply_H"],
                                                      calls["circuits.oracle_step"]),
        "hamiltonian.materialize_calls": calls["hamiltonian.materialize"],
        "hamiltonian.materialize_s": incl["hamiltonian.materialize"],
        "hamiltonian.factorizations_per_model": _ratio(calls["hamiltonian.materialize"],
                                                       materialized_models),
        "circuits.fast_step_calls": calls["circuits.fast_step"],
        "circuits.fast_step_s": incl["circuits.fast_step"],
        "circuits.fast_step_bytes": counts["circuits.fast_step_bytes"],
        "circuits.fast_step_gbps": _ratio(counts["circuits.fast_step_bytes"],
                                          incl["circuits.fast_step"]) / 1e9,
        "lattice.pair_rotation_calls": calls["lattice.pair_rotation"],
        "lattice.pair_rotation_s": incl["lattice.pair_rotation"],
        "lattice.pair_rotation_us": 1e6 * _ratio(incl["lattice.pair_rotation"],
                                                 calls["lattice.pair_rotation"]),
        "lattice.d_axis_calls": calls["lattice.d_axis"],
        "lattice.d_axis_s": incl["lattice.d_axis"],
        "circuits.simulate_s": incl["circuits.simulate"],
        "circuits.gate_applications": counts["circuits.gate_applications"],
        "circuits.us_per_gate": 1e6 * _ratio(incl["circuits.simulate"],
                                             counts["circuits.gate_applications"]),
        "circuits.serialize_s": incl["circuits.serialize"],
        "circuits.parse_s": incl["circuits.parse"],
        "circuits.program_text_bytes": counts["circuits.program_text_bytes"],
        "classical.leapfrog_steps": calls["classical.leapfrog"],
        "classical.leapfrog_s": incl["classical.leapfrog"],
        "classical.leapfrog_us_per_step": 1e6 * _ratio(incl["classical.leapfrog"],
                                                       calls["classical.leapfrog"]),
        "classical.l_norm_estimates": calls["classical.l_norm"],
        "classical.l_norm_s": incl["classical.l_norm"],
        "classical.power_bound_s": incl["classical.power_bound"],
        "classical.local_s": incl["classical.local"],
        "classical.global_s": incl["classical.global"],
        "classical.cost_model_s": incl["classical.cost_model"],
        "experiments.reconstruct_s": incl["experiments.reconstruct"],
        "experiments.output_s": self_s["experiments.run_experiment"],
        "cli.self_s": self_s["cli.main"],
    }
    for layer in LAYERS:
        out[f"{layer}.errors"] = float(errors[layer])
    return out
