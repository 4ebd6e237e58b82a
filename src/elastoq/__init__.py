"""Trotterized quantum circuits for the 3D velocity-stress elastic wave equation.

Construction, dense statevector simulation, closed-form error and CNOT cost
accounting, and the classical partitioned-leapfrog baseline on the same
semidiscrete system.  The root exports the names of the README example; the
rest of the library is imported from its submodules.
"""

from .circuits import TrotterStep, build_U1, simulate
from .hamiltonian import Propagator, build_model, steps_and_cost
from .media import MaterialParams

__version__ = "0.1.0"

__all__ = [
    "MaterialParams",
    "Propagator",
    "TrotterStep",
    "build_U1",
    "build_model",
    "simulate",
    "steps_and_cost",
]
