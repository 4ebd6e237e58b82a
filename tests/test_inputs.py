"""Input contract of the library entry points: a bad value is refused by a
ValueError whose message names the field, before any work is done.

Each case was accepted, or failed late with another error or a message that
names no field, before the real-number, whole-number, step-count and state
rules (media.check_real, media.check_count, media.whole_steps,
hamiltonian.check_state) were shared.
"""
import math
import re
from functools import cache

import numpy as np
import pytest

from elastoq.circuits import Gate, GateProgram, TrotterStep, build_U1, folded_rotations, simulate
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
from elastoq.hamiltonian import Propagator, apply_H, build_model, steps_and_cost
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
    ("local_error_certificate", "tau", lambda: local_error_certificate(_model(1), -0.1)),
    ("local_error_certificate", "tau", lambda: local_error_certificate(_model(1), math.nan)),
    # T/tau = 99.999999999 misses 100 by 1.000004e-9; the certificate's own
    # tolerance, |m tau - T| <= 1e-9 max(1, T), let it through
    ("global_error_certificate", "tau", lambda: global_error_certificate(
        _model(1), make_leapfrog_config(_model(1), 0.100000000001, 1.0, 10.0))),
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
]


@pytest.mark.parametrize("entry,field,call", CASES,
                         ids=[f"{entry}-{field}-{i}" for i, (entry, field, _) in enumerate(CASES)])
def test_bad_input_refused_by_name(entry, field, call):
    with pytest.raises(ValueError) as err:
        call()
    assert re.search(rf"\b{field}\b", str(err.value)), str(err.value)
