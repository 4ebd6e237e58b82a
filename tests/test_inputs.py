"""Input contract of the library entry points: a bad value is refused by a
ValueError whose message names the field, before any work is done.

Each case was accepted, or failed late with another error or a message that
names no field, before the real-number, whole-number, step-count and state
rules (media.check_real, media.check_count, media.whole_steps,
hamiltonian.check_state) were shared.
"""
import dataclasses
import math
import re
from functools import cache

import numpy as np
import pytest

from elastoq.circuits import (
    Gate,
    GateProgram,
    TrotterStep,
    build_U1,
    build_U2,
    build_W_jk,
    build_program,
    build_script_W,
    folded_rotations,
    serialize_program,
    simulate,
)
from elastoq.classical import (
    cost_model,
    global_error_certificate,
    local_error_certificate,
    make_leapfrog_config,
)
from elastoq.experiments import (
    ExperimentConfig,
    b_weighted_norm_sq,
    build_initial_state,
    fidelity_curve,
    reconstruct_fields,
)
from elastoq.hamiltonian import (
    Propagator,
    TermKey,
    apply_H,
    build_model,
    step_cnots,
    steps_and_cost,
    term_angle,
)
from elastoq.lattice import apply_pair_rotation, s_cell_matrix
from elastoq.media import MaterialParams

REFERENCE_MEDIUM = MaterialParams(rho=1.0, E=0.646, nu=0.255)


@cache
def _model(n: int):
    return build_model(n, 1.0, REFERENCE_MEDIUM)


@cache
def _propagator():
    return Propagator(_model(2))


@cache
def _prepared():
    return build_initial_state(ExperimentConfig(n=2), _model(2))


def _with_payloads(payload: np.ndarray) -> GateProgram:
    """The n = 1 u1 program with every V4/V4DG payload replaced by one array."""
    program = build_U1(_model(1), 0.1)
    gates = tuple(dataclasses.replace(g, unitary=payload) if g.unitary is not None else g
                  for g in program.gates)
    return dataclasses.replace(program, gates=gates)


CASES = [
    # (entry point, field, call with the bad value)
    ("TrotterStep", "tau", lambda: TrotterStep(_model(1), "u1", True)),
    ("TrotterStep", "tau", lambda: TrotterStep(_model(1), "u1", "0.1")),
    ("Propagator.evolve", "t", lambda: _propagator().evolve(_prepared().psi, True)),
    ("Propagator.evolve", "psi", lambda: _propagator().evolve(np.array(1.0), 0.1)),
    ("steps_and_cost", "T", lambda: steps_and_cost(_model(1), True, 0.1, "second")),
    ("cost_model", "T", lambda: cost_model(_model(1), True, 0.1)),
    ("make_leapfrog_config", "tau", lambda: make_leapfrog_config(_model(1), True, 1.0, 1.0)),
    ("make_leapfrog_config", "eta", lambda: make_leapfrog_config(_model(1), 0.1, True, 1.0)),
    # the certificate's tau is its config's: a stable one (tau * ||L|| = 1.38 <= eta)
    # past the local bound's tau * ||L|| <= 1, and one the config refuses
    ("local_error_certificate", "tau", lambda: local_error_certificate(
        make_leapfrog_config(_model(1), 1.5, 1.9, 1.5))),
    ("local_error_certificate", "tau", lambda: local_error_certificate(
        make_leapfrog_config(_model(1), math.nan, 1.0, 1.0))),
    # T/tau = 99.999999999 misses 100 by 1.000004e-9; the certificate's own
    # tolerance, |m tau - T| <= 1e-9 max(1, T), let it through
    ("global_error_certificate", "tau", lambda: global_error_certificate(
        make_leapfrog_config(_model(1), 0.100000000001, 1.0, 10.0))),
    ("fidelity_curve", "tau", lambda: fidelity_curve(_propagator(), _prepared(), "u1", 0.4, 1.0)),
    ("fidelity_curve", "tau", lambda: fidelity_curve(_propagator(), _prepared(), "u1", 0.0, 1.0)),
    ("reconstruct_fields", "psi", lambda: reconstruct_fields(_model(2), np.zeros(5), 1.0)),
    ("b_weighted_norm_sq", "psi", lambda: b_weighted_norm_sq(_model(2), np.zeros(5), 1.0)),
    # a batch where one state is taken failed in numpy's reshape
    ("apply_H", "psi", lambda: apply_H(_model(2), np.zeros((_model(2).dim, 2)))),
    ("reconstruct_fields", "psi", lambda: reconstruct_fields(
        _model(2), np.zeros((_model(2).dim, 2)), 1.0)),
    ("b_weighted_norm_sq", "psi", lambda: b_weighted_norm_sq(
        _model(2), np.zeros((_model(2).dim, 2)), 1.0)),
    # a list failed with AttributeError on its missing ndim
    ("TrotterStep.apply", "psi", lambda: TrotterStep(_model(1), "u1", 0.1).apply(
        [0.0] * _model(1).dim)),
    ("Propagator.evolve", "psi", lambda: _propagator().evolve(list(_prepared().psi), 0.1)),
    ("simulate", "psi", lambda: simulate(build_U1(_model(1), 0.1), [0.0] * _model(1).dim)),
    # snapshot steps off the walk's grid were moved or dropped silently
    ("fidelity_curve", "snapshot_steps", lambda: fidelity_curve(
        _propagator(), _prepared(), "u1", 0.5, 1.0, snapshot_steps=(3,))),
    ("fidelity_curve", "snapshot_steps", lambda: fidelity_curve(
        _propagator(), _prepared(), "u1", 0.5, 1.0, snapshot_steps=(0.5,))),
    ("fidelity_curve", "snapshot_steps", lambda: fidelity_curve(
        _propagator(), _prepared(), "u1", 0.5, 1.0, snapshot_steps=(True,))),
    # a bool level built level 1; a float level failed late with TypeError
    ("s_cell_matrix", "k", lambda: s_cell_matrix(True, 2)),
    ("s_cell_matrix", "k", lambda: s_cell_matrix(1.5, 2)),
    ("apply_pair_rotation", "k", lambda: apply_pair_rotation(np.zeros((1, 8)), 1, 2.0, 1.0, 0.0)),
    # folded_rotations counted the rotations of a program simulate refuses
    ("folded_rotations", "pattern", lambda: folded_rotations(GateProgram(
        n=1, scheme="u1", tau=0.1, gates=(Gate("pcrz", target=5, angle=0.1),)))),
    ("folded_rotations", "qubit", lambda: folded_rotations(GateProgram(
        n=1, scheme="u1", tau=0.1, gates=(Gate("h", target=99),)))),
    # the builders wrote tau nan, inf or 1 (for True) into a program, or failed
    # late with TypeError
    ("build_U1", "tau", lambda: build_U1(_model(1), math.nan)),
    ("build_U1", "tau", lambda: build_U1(_model(1), True)),
    ("build_U1", "tau", lambda: build_U1(_model(1), None)),
    ("build_U2", "tau", lambda: build_U2(_model(1), math.inf)),
    ("build_U2", "tau", lambda: build_U2(_model(1), "0.1")),
    # a term index out of range read axis 3's angle through index -1, built
    # j = 15 for j = -1, raised IndexError, or placed a level past n on the
    # state register
    ("TermKey", "axis", lambda: TermKey(0, 15, 1)),
    ("TermKey", "axis", lambda: TermKey(4, 0, 1)),
    ("TermKey", "j", lambda: TermKey(1, -1, 1)),
    ("TermKey", "j", lambda: TermKey(1, 16, 1)),
    ("TermKey", "k", lambda: TermKey(1, 0, 0)),
    ("TermKey", "k", lambda: TermKey(1, 0, True)),
    ("term_angle", "k", lambda: term_angle(_model(1), TermKey(1, 0, 2), 0.4)),
    ("build_W_jk", "k", lambda: build_W_jk(_model(2), TermKey(1, 15, 3), 0.4)),
    ("build_script_W", "axis", lambda: build_script_W(_model(2), 0, 3, 0.4)),
    ("build_script_W", "j", lambda: build_script_W(_model(2), 1, -1, 0.4)),
    ("build_script_W", "j", lambda: build_script_W(_model(2), 1, 16, 0.4)),
    # a scheme, bound name or init that is no string is refused by name, never by the
    # TypeError of a table lookup
    ("TrotterStep", "scheme", lambda: TrotterStep(_model(1), ["u1"], 0.1)),
    ("TrotterStep", "scheme", lambda: TrotterStep(_model(1), None, 0.1)),
    ("ExperimentConfig", "scheme", lambda: ExperimentConfig(n=3, scheme=["u1"])),
    ("ExperimentConfig", "scheme", lambda: ExperimentConfig(n=3, scheme=None)),
    ("ExperimentConfig", "init", lambda: ExperimentConfig(n=3, init=["p"])),
    ("ExperimentConfig", "init", lambda: ExperimentConfig(n=3, init=None)),
    ("steps_and_cost", "scheme", lambda: steps_and_cost(_model(1), 1.0, 0.1, ["second"])),
    ("steps_and_cost", "scheme", lambda: steps_and_cost(_model(1), 1.0, 0.1, None)),
    ("build_program", "scheme", lambda: build_program(_model(1), "u3", 0.1)),
    ("build_program", "scheme", lambda: build_program(_model(1), ["u1"], 0.1)),
    # folded_rotations counted 18 folds of a program whose payloads simulate refuses
    ("folded_rotations", "payload", lambda: folded_rotations(_with_payloads(2 * np.eye(16)))),
    ("folded_rotations", "payload", lambda: folded_rotations(
        _with_payloads(np.full((16, 16), math.nan)))),
    # serialize_program wrote n and tau values that parse_program refuses, and
    # step_cnots priced n = 0 at 378 CNOTs
    ("serialize_program", "n", lambda: serialize_program(
        GateProgram(n=0, scheme="u1", tau=0.1, gates=()))),
    ("serialize_program", "n", lambda: serialize_program(
        GateProgram(n=True, scheme="u1", tau=0.1, gates=()))),
    ("serialize_program", "tau", lambda: serialize_program(
        GateProgram(n=1, scheme="u1", tau=math.nan, gates=()))),
    ("serialize_program", "tau", lambda: serialize_program(
        GateProgram(n=1, scheme="u1", tau=math.inf, gates=()))),
    ("step_cnots", "n", lambda: step_cnots("u1", 0)),
    # a NaN or negative norm factor gave all-NaN or sign-flipped fields, and a bool one
    # was read as 1
    ("reconstruct_fields", "norm_factor", lambda: reconstruct_fields(
        _model(2), _prepared().psi, math.nan)),
    ("reconstruct_fields", "norm_factor", lambda: reconstruct_fields(
        _model(2), _prepared().psi, -1.0)),
    ("b_weighted_norm_sq", "norm_factor", lambda: b_weighted_norm_sq(
        _model(2), _prepared().psi, True)),
    # a 9-row physical-sector state was taken as a second state layout
    ("Propagator.evolve", "psi", lambda: _propagator().evolve(
        np.ones(9 * _model(2).shape.points**3), 0.1)),
    ("Propagator.to_spectral", "psi", lambda: _propagator().to_spectral(
        np.ones(9 * _model(2).shape.points**3))),
    # past 2**53 steps every float T/tau is whole: 1e30 failed in the defect's
    # matrix_power with LinAlgError, 1e18 read a defect of 7.26e62
    ("global_error_certificate", "T", lambda: global_error_certificate(
        make_leapfrog_config(_model(1), 0.25, 1.0, 1e30))),
    ("global_error_certificate", "T", lambda: global_error_certificate(
        make_leapfrog_config(_model(1), 0.25, 1.0, 1e18))),
    # a step count past the float range failed with OverflowError (T**p, or the
    # ceiling of inf) or, for tau_max = 0, ZeroDivisionError
    ("steps_and_cost", "T", lambda: steps_and_cost(_model(2), 1e200, 0.1, "first-norm")),
    ("steps_and_cost", "epsilon", lambda: steps_and_cost(_model(2), 10.0, 1e-320, "first-norm")),
    ("cost_model", "epsilon", lambda: cost_model(_model(2), 1e300, 1e-300)),
]


@pytest.mark.parametrize("entry,field,call", CASES,
                         ids=[f"{entry}-{field}-{i}" for i, (entry, field, _) in enumerate(CASES)])
def test_bad_input_refused_by_name(entry, field, call):
    with pytest.raises(ValueError) as err:
        call()
    assert re.search(rf"\b{field}\b", str(err.value)), str(err.value)
