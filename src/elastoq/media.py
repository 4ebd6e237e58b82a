"""Cell-level material matrices for a homogeneous isotropic elastic medium.

Everything in this module lives on the 16-dimensional per-grid-point state
space: components 0..2 are the velocity vector, 3..8 the stress tensor in
Voigt order (sigma_xx, sigma_yy, sigma_zz, sigma_xy, sigma_xz, sigma_yz),
and 9..15 are zero padding that rounds the space up to four qubits.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Voigt component picked up by the divergence along each axis, one row per
# velocity component: axis 1 couples v=(x,y,z) to (sxx, sxy, sxz), etc.
_C_AXIS_COLUMNS = (
    (0, 3, 4),  # axis 1 (x)
    (3, 1, 5),  # axis 2 (y)
    (4, 5, 2),  # axis 3 (z)
)

STATE_DIM = 16
PHYSICAL_DIM = 9


def _is_real(value) -> bool:
    # concrete types: an isinstance check against numbers.Real costs a microsecond
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def check_real(name: str, value, low: float = 0.0, high: float = math.inf) -> None:
    """Refuse a value that is not a real number (bool is not) strictly in (low, high)."""
    if not (_is_real(value) and low < value < high):
        raise ValueError(f"{name} must be a real number in ({low:g}, {high:g}), got {value!r}")


def check_count(name: str, value, low: int = 1, high: int | None = None) -> None:
    """Refuse a value that is not an int (bool and numpy integers are not) in low..high."""
    if not (isinstance(value, int) and not isinstance(value, bool)
            and low <= value and (high is None or value <= high)):
        span = f">= {low}" if high is None else f"in {low}..{high}"
        raise ValueError(f"{name} must be an integer {span}, got {value!r}")


def check_choice(name: str, value, choices) -> None:
    """Refuse a value that is not one of the string names in choices (a table's keys)."""
    if not (isinstance(value, str) and value in choices):
        raise ValueError(f"{name} must be one of {', '.join(choices)}, got {value!r}")


def whole_steps(T: float, tau: float) -> int:
    """Steps of size tau in the horizon T: T/tau within 1e-9 of an integer >= 1."""
    check_real("T", T)
    check_real("tau", tau)
    steps = round(T / tau)
    if abs(T / tau - steps) > 1e-9 or steps < 1:
        raise ValueError(f"tau={tau} does not divide T={T} into an integer number of steps")
    return steps


def step_ceiling(steps: float) -> int:
    """The whole step count >= 1 that covers a real one; a relative slack of 1e-12
    keeps float noise from pushing an exact integer over the ceiling."""
    return max(1, math.ceil(steps * (1.0 - 1e-12)))


@dataclass(frozen=True)
class MaterialParams:
    """Density and isotropic elastic constants; validated on construction, types included."""

    rho: float
    E: float
    nu: float

    def __post_init__(self):
        check_real("rho", self.rho)
        check_real("E", self.E)
        check_real("nu", self.nu, -1.0, 0.5)


@dataclass(frozen=True, eq=False)
class CellMatrices:
    """The 16x16 coupling and material matrices of one grid cell.

    a_axis[i] is the symmetric coupling matrix for axis i+1, b_cell the
    positive definite material matrix, b_sqrt / b_inv_sqrt its symmetric
    square root and inverse square root.
    """

    a_axis: tuple[np.ndarray, np.ndarray, np.ndarray]
    b_cell: np.ndarray
    b_sqrt: np.ndarray
    b_inv_sqrt: np.ndarray


@dataclass(frozen=True, eq=False)
class AxisEigenSystem:
    """Eigendecomposition of b_inv_sqrt @ a_axis @ b_inv_sqrt for one axis.

    lambdas are sorted ascending; the columns of v are the corresponding
    orthonormal eigenvectors with a deterministic sign convention (largest
    magnitude entry positive).
    """

    axis: int
    lambdas: np.ndarray
    v: np.ndarray


def axis_coupling(axis: int) -> np.ndarray:
    """3x6 selection matrix coupling velocity rows to Voigt stress columns."""
    check_count("axis", axis, 1, 3)
    c = np.zeros((3, 6))
    for row, col in enumerate(_C_AXIS_COLUMNS[axis - 1]):
        c[row, col] = 1.0
    return c


def build_compliance(params: MaterialParams) -> np.ndarray:
    """6x6 isotropic compliance matrix in Voigt order, scaled by 1/E."""
    e, nu = params.E, params.nu
    s = np.zeros((6, 6))
    s[:3, :3] = -nu
    np.fill_diagonal(s[:3, :3], 1.0)
    s[3, 3] = s[4, 4] = s[5, 5] = 1.0 + nu
    return s / e


def compliance_spectrum(params: MaterialParams) -> np.ndarray:
    """Closed-form compliance eigenvalues: (1-2nu)/E once, (1+nu)/E five times."""
    e, nu = params.E, params.nu
    return np.sort(np.array([(1 - 2 * nu) / e] + [(1 + nu) / e] * 5))


def compliance_inverse_norm(params: MaterialParams) -> float:
    """Operator norm of the inverse compliance matrix (largest eigenvalue)."""
    e, nu = params.E, params.nu
    if nu >= 0:
        return e / (1 - 2 * nu)
    return e / (1 + nu)


def wave_speed_scale(params: MaterialParams) -> float:
    """The velocity-like scale sqrt(||S^-1|| / rho) entering every bound."""
    return float(np.sqrt(compliance_inverse_norm(params) / params.rho))


def build_cell_matrices(params: MaterialParams) -> CellMatrices:
    """Construct the axis couplings and the material matrix with its roots."""
    a_axis = []
    for axis in (1, 2, 3):
        a = np.zeros((STATE_DIM, STATE_DIM))
        c = axis_coupling(axis)
        a[0:3, 3:9] = c
        a[3:9, 0:3] = c.T
        a_axis.append(a)

    b = np.zeros((STATE_DIM, STATE_DIM))
    b[0:3, 0:3] = params.rho * np.eye(3)
    b[3:9, 3:9] = build_compliance(params)
    b[9:, 9:] = np.eye(7)

    # Symmetric roots via eigendecomposition; 16x16, so exactness wins.
    evals, evecs = np.linalg.eigh(b)
    if evals.min() <= 0:
        raise ValueError(f"material matrix is not positive definite (min eig {evals.min()})")
    b_sqrt = (evecs * np.sqrt(evals)) @ evecs.T
    b_inv_sqrt = (evecs / np.sqrt(evals)) @ evecs.T
    return CellMatrices(tuple(a_axis), b, b_sqrt, b_inv_sqrt)


def axis_hamiltonian_cell(cell: CellMatrices, axis: int) -> np.ndarray:
    """The 16x16 symmetric matrix b_inv_sqrt @ a_axis @ b_inv_sqrt."""
    m = cell.b_inv_sqrt @ cell.a_axis[axis - 1] @ cell.b_inv_sqrt
    return (m + m.T) / 2


def degenerate_clusters(lambdas: np.ndarray, tol: float = 1e-9) -> list[tuple[int, int]]:
    """Half-open index ranges of eigenvalue clusters with gaps below tol.

    tol is relative to the spectral scale, so exact zeros from the padding
    sector always land in a single cluster.
    """
    scale = max(1.0, float(np.max(np.abs(lambdas)))) if len(lambdas) else 1.0
    ranges = []
    start = 0
    for i in range(1, len(lambdas)):
        if lambdas[i] - lambdas[i - 1] > tol * scale:
            ranges.append((start, i))
            start = i
    ranges.append((start, len(lambdas)))
    return ranges


def _fix_signs(v: np.ndarray) -> np.ndarray:
    """Flip each column so its largest magnitude entry is positive."""
    idx = np.argmax(np.abs(v), axis=0)
    signs = np.sign(v[idx, np.arange(v.shape[1])])
    signs[signs == 0] = 1.0
    return v * signs


def eigendecompose_axis(cell: CellMatrices, axis: int) -> AxisEigenSystem:
    """Eigendecompose one axis coupling in the transformed (Hermitian) frame."""
    m = axis_hamiltonian_cell(cell, axis)
    lambdas, v = np.linalg.eigh(m)  # ascending, orthonormal columns
    return AxisEigenSystem(axis=axis, lambdas=lambdas, v=_fix_signs(v))
