"""Trotterized quantum circuits for the 3D velocity-stress elastic wave equation.

Construction, dense statevector simulation, closed-form error and CNOT cost
accounting, and the classical partitioned-leapfrog baseline on the same
semidiscrete system.
"""

from .circuits import (
    Gate,
    GateProgram,
    apply_block_fast,
    build_U1,
    build_U2,
    build_W_jk,
    build_script_W,
    exact_evolve,
    parse_program,
    serialize_program,
    simulate,
)
from .classical import (
    PhysicalState,
    apply_K,
    apply_L,
    apply_L_adjoint,
    cost_model,
    global_error_certificate,
    leapfrog_step,
    local_error_certificate,
    make_leapfrog_config,
    power_bound_certificate,
)
from .experiments import (
    ExperimentConfig,
    FidelityCurve,
    FieldSlice,
    PreparedState,
    build_initial_state,
    fidelity_curve,
    reconstruct_fields,
    run_experiment,
    run_fidelity_sweep,
)
from .hamiltonian import (
    HamiltonianModel,
    Propagator,
    TermKey,
    apply_H,
    bound_first_order_commutator,
    bound_first_order_norm,
    bound_second_order,
    build_model,
    empirical_trotter_error,
    materialize_sparse_H,
    steps_and_cost,
    term_angle,
)
from .lattice import LatticeShape, LadderTerm, apply_d_cell
from .media import MaterialParams, build_compliance, compliance_inverse_norm

__version__ = "0.1.0"

__all__ = [
    "ExperimentConfig",
    "FidelityCurve",
    "FieldSlice",
    "Gate",
    "GateProgram",
    "HamiltonianModel",
    "LadderTerm",
    "LatticeShape",
    "MaterialParams",
    "PhysicalState",
    "PreparedState",
    "Propagator",
    "TermKey",
    "apply_H",
    "apply_K",
    "apply_L",
    "apply_L_adjoint",
    "apply_block_fast",
    "apply_d_cell",
    "bound_first_order_commutator",
    "bound_first_order_norm",
    "bound_second_order",
    "build_U1",
    "build_U2",
    "build_W_jk",
    "build_compliance",
    "build_initial_state",
    "build_model",
    "build_script_W",
    "compliance_inverse_norm",
    "cost_model",
    "empirical_trotter_error",
    "exact_evolve",
    "fidelity_curve",
    "global_error_certificate",
    "leapfrog_step",
    "local_error_certificate",
    "make_leapfrog_config",
    "materialize_sparse_H",
    "parse_program",
    "power_bound_certificate",
    "reconstruct_fields",
    "run_experiment",
    "run_fidelity_sweep",
    "serialize_program",
    "simulate",
    "steps_and_cost",
    "term_angle",
]
