"""Hamiltonian assembly, term enumeration, and error/cost accounting.

The evolution generator factorizes per axis into a 16x16 symmetric cell
matrix acting on the state register tensored with the anti-symmetric
difference operator acting on the spatial register.  Eigendecomposing the
cell matrix splits the generator into 48n rank-one-projector terms, one per
(axis, eigenindex, ladder level); those terms drive both the circuit
construction and every closed-form bound here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np
import scipy.sparse as sp

from .lattice import LatticeShape, apply_d_axis, d_axis_matrix, s_axis_matrix
from .media import (
    MaterialParams,
    AxisEigenSystem,
    CellMatrices,
    build_cell_matrices,
    check_choice,
    check_count,
    compliance_inverse_norm,
    eigendecompose_axis,
    check_real,
    step_ceiling,
    wave_speed_scale,
    PHYSICAL_DIM,
    STATE_DIM,
)

#: Each Trotter scheme's product schedule: its sweeps in time order, as (share of tau,
#: reverse).  A sweep applies every term once, axes, eigenindices j and levels k ascending,
#: or all three descending if reversed: u1 is first order, u2 symmetric second order.
SWEEPS = {"u1": ((1.0, False),), "u2": ((0.5, False), (0.5, True))}

#: Eigenvalues below this are treated as exact zeros of the padding/kernel
#: sector; the gate builders and the fast path skip them, cost accounting never does.
ZERO_EIGENVALUE_TOL = 1e-13

#: Largest n at which dense reference paths (dense eigh of H, dense sector
#: matrices, exact Trotter-defect SVD) run: 2^(3n+4) = 1024 rows at n = 2.
DENSE_MAX_N = 2


@dataclass(frozen=True)
class TermKey:
    """Identifies one product-formula term: axis, eigenindex j, ladder level k."""

    axis: int
    j: int
    k: int

    def __post_init__(self):
        check_count("axis", self.axis, 1, 3)
        check_count("eigenindex j", self.j, 0, STATE_DIM - 1)
        check_count("level k", self.k)


@dataclass(frozen=True, eq=False)
class HamiltonianModel:
    """Immutable bundle of lattice shape, material, and cell eigensystems.

    Compared and hashed by identity, like Propagator: two builds of the same
    model are distinct objects.
    """

    shape: LatticeShape
    params: MaterialParams
    cell: CellMatrices
    eigensystems: tuple[AxisEigenSystem, AxisEigenSystem, AxisEigenSystem]

    @classmethod
    def build(cls, shape: LatticeShape, params: MaterialParams) -> "HamiltonianModel":
        cell = build_cell_matrices(params)
        eigs = tuple(eigendecompose_axis(cell, axis) for axis in (1, 2, 3))
        return cls(shape, params, cell, eigs)

    @property
    def qubits(self) -> int:
        return qubit_count(self.shape.n)

    @property
    def dim(self) -> int:
        return 1 << self.qubits

    def axis_matrix(self, axis: int) -> np.ndarray:
        """16x16 transformed coupling for one axis, rebuilt from the eigensystem."""
        eig = self.eigensystems[axis - 1]
        return (eig.v * eig.lambdas) @ eig.v.T

    def term_keys(self) -> Iterator[TermKey]:
        """All 48n term keys in the fixed product order of the first-order step."""
        for axis in (1, 2, 3):
            for j in range(STATE_DIM):
                for k in range(1, self.shape.n + 1):
                    yield TermKey(axis, j, k)


def build_model(n: int, h: float, params: MaterialParams) -> HamiltonianModel:
    """Convenience constructor from plain numbers."""
    return HamiltonianModel.build(LatticeShape(n=n, h=h), params)


def term_angle(model: HamiltonianModel, key: TermKey, tau: float) -> float:
    """Rotation angle lambda_j * tau / (2h) of one term for step size tau."""
    check_count("level k", key.k, 1, model.shape.n)
    lam = model.eigensystems[key.axis - 1].lambdas[key.j]
    return float(lam * tau / (2 * model.shape.h))


def apply_H(model: HamiltonianModel, psi: np.ndarray) -> np.ndarray:
    """Matrix-free application of the Hermitian generator to a state vector."""
    check_state(psi, model.dim, batch=False)
    points = model.shape.points
    grid = psi.reshape(STATE_DIM, points, points, points)
    out = np.zeros(grid.shape, dtype=complex)
    for axis in (1, 2, 3):
        dv = apply_d_axis(axis, model.shape, grid)
        out += 1j * np.tensordot(model.axis_matrix(axis), dv, axes=(1, 0))
    return out.reshape(-1)


def operator_norm_bound(model: HamiltonianModel) -> float:
    """Closed-form upper bound 3 * sqrt(||S^-1||/rho) / h on the generator norm."""
    return 3.0 * wave_speed_scale(model.params) / model.shape.h


#: exp(i * pi/2 * r) for r = 0..3, exact; P = diag(i^j) needs no rounding.
_I_POWERS = np.array([1, 1j, -1, -1j])

#: (Re + Im) of conj(i^r) / 2: folds the real and imaginary parts of P^-1 psi,
#: for a real psi, into one real array (each cell has only one of them); the
#: exact factor 1/2 is the one of (G + G~)/2 and (G - G~)/2 (see Propagator).
_PARITY_SIGNS = np.array([0.5, -0.5, -0.5, 0.5])


def mode_blocks(model: HamiltonianModel) -> np.ndarray:
    """Physical 9x9 generator block sum_a mu_{m_a} M_a of every 3D mode.

    Shape (N, N, N, 9, 9); mu and M_a as in Propagator.  The [:3, 3:] corner
    of a block is the 3x6 velocity/stress coupling of that mode.
    """
    points = model.shape.points
    mu = -np.cos(np.pi * np.arange(1, points + 1) / (points + 1)) / model.shape.h
    m1, m2, m3 = (np.multiply.outer(mu, model.axis_matrix(axis)[:PHYSICAL_DIM, :PHYSICAL_DIM])
                  for axis in (1, 2, 3))
    return m1[:, None, None] + m2[None, :, None] + m3[None, None, :]


def mode_tables(points: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tables of the phased DST-I on N points per axis (see Propagator): the sine
    matrix Q, the per-cell diagonal i^(j1+j2+j3) of P, and its parity signs."""
    j = np.arange(points)
    powers = (j[:, None, None] + j[None, :, None] + j[None, None, :]) % 4
    k = j + 1  # outer(k, k) is symmetric, so Q is symmetric to the bit
    sine = np.sqrt(2 / (points + 1)) * np.sin(np.pi * np.outer(k, k) / (points + 1))
    return sine, _I_POWERS[powers], _PARITY_SIGNS[powers]


def _per_cell(table: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """A per-cell (N, N, N) table broadcast over the batch axes of grid."""
    return table.reshape(table.shape + (1,) * (grid.ndim - 4))


def phased_dst(grid: np.ndarray, sine: np.ndarray, phase: np.ndarray | None = None) -> np.ndarray:
    """Orthonormal DST-I of a (c, N, N, N, batch...) grid over its three spatial axes,
    after P^-1 if the phase table of P is given: Q P^-1 grid, the grid in the mode basis.

    One real GEMM per axis with the symmetric sine matrix Q; a complex grid
    is transformed on its float view, real and imaginary parts as columns.
    """
    if phase is not None:
        grid = grid * _per_cell(phase, grid).conj()
    c, points = grid.shape[0], sine.shape[0]
    x = np.ascontiguousarray(grid)
    if np.iscomplexobj(x):
        x = x.reshape(x.shape[:4] + (-1,)).view(np.float64)
    out = np.matmul(sine, x.reshape(c, points, -1))
    out = np.matmul(sine, out.reshape(c * points, points, -1))
    if x.ndim == 4:  # no column axis: x Q on the last axis is Q x, as Q is symmetric
        out = out.reshape(-1, points) @ sine
    else:
        out = np.matmul(sine, out.reshape(c * points * points, points, -1))
    out = out.reshape(x.shape)
    return (out.view(complex) if np.iscomplexobj(grid) else out).reshape(grid.shape)


@dataclass(frozen=True, eq=False, init=False)
class Propagator:
    """Exact propagator exp(-iHt) of the generator, diagonalised once.

    Conjugating the zero-ghost central difference by P = diag(i^j) gives
    -(1/2h) tridiag(1, 0, 1), which the orthonormal DST-I matrix Q
    diagonalises: i*D = P Q diag(mu) Q P^-1 with mu_m = -cos(pi m/(N+1)) / h.
    In the product mode basis H is block diagonal, one real symmetric block
    sum_a mu_{m_a} M_a per 3D mode; M_a vanishes on the padding components
    9..15, so only the 9x9 physical blocks are factored and the padding
    passes through unchanged.

    Q_jk = sqrt(2/(N+1)) sin(pi (j+1)(k+1)/(N+1)) is symmetric and orthogonal,
    so it is its own inverse.  It is built once (mode_tables), and the DST-I
    over the three spatial axes runs as three real GEMMs with it, one per axis
    (phased_dst).

    Spectral coordinates have the layout of the state: the physical part holds
    eigen-coefficients (eigenindex-major, then mode), the padding part the
    untouched amplitudes, and `eigenvalues` gives the matching generator
    eigenvalue of every entry (zero on the padding).  A state is the
    16-component register, with an optional trailing batch axis.

    A real state needs one real DST-I, not a complex one.  P^-1 psi is real on
    cells with j1 + j2 + j3 even and imaginary on odd ones, so both parts fit
    in one real array g; since sin(pi (N+1-m)(j+1)/(N+1)) = (-1)^j
    sin(pi m (j+1)/(N+1)), G = DST(g) reversed along the three mode axes is
    the DST of g with its odd cells negated, and the halves of G + G~ and
    G - G~ are the transforms of the two parts (Martucci, IEEE Trans. Signal
    Process. 42(5), 1994, on the DST-I symmetries).
    """

    model: HamiltonianModel
    eigenvalues: np.ndarray
    _vectors: np.ndarray
    _phase: np.ndarray
    _parity: np.ndarray
    _sine: np.ndarray

    def __init__(self, model: HamiltonianModel):
        points = model.shape.points
        lambdas, vectors = np.linalg.eigh(mode_blocks(model))
        eigenvalues = np.zeros((STATE_DIM, points**3))
        eigenvalues[:PHYSICAL_DIM] = lambdas.reshape(points**3, PHYSICAL_DIM).T
        sine, phase, parity = mode_tables(points)
        for name, value in (("model", model),
                            ("eigenvalues", eigenvalues.reshape(-1)),
                            ("_vectors", vectors.reshape(points**3, PHYSICAL_DIM,
                                                         PHYSICAL_DIM)),
                            ("_phase", phase),
                            ("_parity", parity),
                            ("_sine", sine)):
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            object.__setattr__(self, name, value)

    def _grid_shape(self, arr: np.ndarray) -> tuple[int, ...]:
        """Shape (components, N, N, N, batch...) of a state; checks its length."""
        points = self.model.shape.points
        check_state(arr, self.model.dim)
        return (STATE_DIM, points, points, points) + arr.shape[1:]

    def _grid(self, arr: np.ndarray) -> np.ndarray:
        """Complex copy of a state as (components, N, N, N, batch...)."""
        return np.array(arr, dtype=complex).reshape(self._grid_shape(arr))

    def _dst(self, grid: np.ndarray) -> np.ndarray:
        """Orthonormal DST-I of a (c, N, N, N, batch...) grid over its three spatial axes."""
        return phased_dst(grid, self._sine)

    def _mix(self, phys: np.ndarray, adjoint: bool) -> np.ndarray:
        """Apply each mode's 9x9 eigenvector block (or its transpose)."""
        v = self._vectors.transpose(0, 2, 1) if adjoint else self._vectors
        cells = v.shape[0]
        # the blocks are real: act on real and imaginary parts as 2b real columns
        cols = phys.reshape(PHYSICAL_DIM, cells, -1).transpose(1, 0, 2).copy()
        out = np.matmul(v, cols.view(float)).view(complex)
        return out.transpose(1, 0, 2).reshape(phys.shape)

    def to_spectral(self, psi: np.ndarray) -> np.ndarray:
        """Coordinates of psi in the eigenbasis of the generator.

        Finiteness is not checked here, since a walk calls this once per step;
        evolve checks it once per call.
        """
        if np.iscomplexobj(psi):
            grid = self._grid(psi)
            phys = phased_dst(grid[:PHYSICAL_DIM], self._sine, self._phase)
        else:
            real = np.asarray(psi, dtype=np.float64).reshape(self._grid_shape(psi))
            g = self._dst(real[:PHYSICAL_DIM] * _per_cell(self._parity, real))
            flipped = g[:, ::-1, ::-1, ::-1]
            phys = np.empty(g.shape, dtype=complex)
            np.add(g, flipped, out=phys.real)
            np.subtract(g, flipped, out=phys.imag)
            grid = np.empty(real.shape, dtype=complex)
            grid[PHYSICAL_DIM:] = real[PHYSICAL_DIM:]
        grid[:PHYSICAL_DIM] = self._mix(phys, adjoint=True)
        return grid.reshape(psi.shape)

    def from_spectral(self, coeffs: np.ndarray) -> np.ndarray:
        """Inverse of to_spectral (the DST-I is its own inverse)."""
        grid = self._grid(coeffs)
        phys = self._dst(self._mix(grid[:PHYSICAL_DIM], adjoint=False))
        grid[:PHYSICAL_DIM] = phys * _per_cell(self._phase, grid)
        return grid.reshape(coeffs.shape)

    def phases(self, t: float) -> np.ndarray:
        """exp(-i*lambda*t) for every spectral entry of a state."""
        check_real("t", t, -math.inf, math.inf)
        return np.exp(-1j * t * self.eigenvalues)

    def evolve(self, psi: np.ndarray, t: float) -> np.ndarray:
        """exp(-iHt) psi for any finite real t; no substeps.  psi must be finite."""
        phases = self.phases(t)
        if not np.isfinite(psi).all():
            raise ValueError("psi must be finite: it holds NaN or inf entries")
        coeffs = self.to_spectral(psi)  # refuses a shape check_state does not accept
        return self.from_spectral(phases.reshape(phases.shape + (1,) * (psi.ndim - 1)) * coeffs)


def materialize_sparse_H(model: HamiltonianModel) -> sp.csr_matrix:
    """Sparse Hermitian matrix of the generator (test reference only)."""
    h = sum(sp.kron(sp.csr_matrix(model.axis_matrix(axis)),
                    1j * d_axis_matrix(axis, model.shape), format="csr") for axis in (1, 2, 3))
    residual = abs(h - h.getH())
    if residual.nnz and residual.max() > 1e-14:
        raise AssertionError(f"hermiticity residual {residual.max():.3e} exceeds 1e-14")
    return ((h + h.getH()) * 0.5).tocsr()


def dense_evolve(model: HamiltonianModel, t: float, psi: np.ndarray) -> np.ndarray:
    """exp(-iHt) psi from a dense eigh of the materialized generator (test reference).

    Takes a (dim,) state or (dim, b) batch, up to n = DENSE_MAX_N.
    """
    if model.shape.n > DENSE_MAX_N:
        raise ValueError(f"dense evolution needs n <= {DENSE_MAX_N}, got n={model.shape.n}")
    check_state(psi, model.dim)
    evals, evecs = np.linalg.eigh(materialize_sparse_H(model).toarray())
    phases = np.exp(-1j * t * evals).reshape((-1,) + (1,) * (psi.ndim - 1))
    return evecs @ (phases * (evecs.conj().T @ psi.astype(complex)))


def materialize_term(model: HamiltonianModel, key: TermKey) -> sp.csr_matrix:
    """Sparse matrix of a single projector term (test reference)."""
    eig = model.eigensystems[key.axis - 1]
    phi = eig.v[:, key.j]
    proj = sp.csr_matrix(np.outer(phi, phi))
    s_mat = s_axis_matrix(key.axis, key.k, model.shape)
    coeff = 1j * eig.lambdas[key.j] / (2 * model.shape.h)
    return sp.kron(proj, coeff * s_mat, format="csr")


# ---------------------------------------------------------------------------
# closed-form one-step error bounds
# ---------------------------------------------------------------------------

def bound_first_order_norm(model: HamiltonianModel, tau: float) -> float:
    """One-step first-order bound from the product of term norms."""
    n, h = model.shape.n, model.shape.h
    s_inv = compliance_inverse_norm(model.params)
    return 81.0 * tau**2 / (2 * h**2) * s_inv / model.params.rho * n**2


def bound_first_order_commutator(model: HamiltonianModel, tau: float) -> float:
    """One-step first-order bound from commutator scaling; sharper in n."""
    n, h = model.shape.n, model.shape.h
    s_inv = compliance_inverse_norm(model.params)
    return 9.0 * tau**2 / (4 * h**2) * s_inv / model.params.rho * (5 * n - 1)


def bound_second_order(model: HamiltonianModel, tau: float) -> float:
    """One-step second-order bound 2 * arg^3.

    The underlying inequality only holds while the cubed argument stays at or
    below one, equivalently bound <= 2, the limit its BOUNDS row records.
    """
    n, h = model.shape.n, model.shape.h
    v = wave_speed_scale(model.params)
    arg = 1440.0 * n * tau * v / h
    return 2.0 * arg**3


#: The paper's one-step error bounds C * tau^p, each as (bound(model, tau), order p,
#: the scheme whose steps it prices, the largest bound value at which it holds).
BOUNDS = {"first-norm": (bound_first_order_norm, 2, "u1", math.inf),
          "first-commutator": (bound_first_order_commutator, 2, "u1", math.inf),
          "second": (bound_second_order, 3, "u2", 2.0)}


# ---------------------------------------------------------------------------
# gate accounting
# ---------------------------------------------------------------------------

def qubit_count(n: int) -> int:
    """Total qubits: 4 state-register qubits plus n per spatial axis."""
    return 3 * n + 4


def check_state(psi: np.ndarray, length: int, batch: bool = True) -> None:
    """Refuse a state that is not a (length,) array, or with batch a (length, b) one;
    callers that take one state pass batch=False."""
    array = isinstance(psi, np.ndarray)
    if not array or psi.ndim == 0 or psi.ndim > 1 and not batch or psi.shape[0] != length:
        shapes = f"({length},) or ({length}, b)" if batch else f"({length},)"
        got = psi.shape if array else f"a {type(psi).__name__}"
        raise ValueError(f"psi must be a state of length {length}: shape {shapes}, got {got}")


def step_cnots(scheme: str, n: int) -> int:
    """CNOT count of one step: 432n^2 + 378 per sweep of the scheme (ladders,
    controlled RZ, basis changes)."""
    check_choice("scheme", scheme, SWEEPS)
    check_count("n", n)
    return len(SWEEPS[scheme]) * (432 * n * n + 378)


def record_text(rows: Iterable[tuple[str, object]]) -> str:
    """Flat text record of (key, value) rows, one "key value" line each."""
    return "\n".join(f"{key} {value}" for key, value in rows)


@dataclass(frozen=True, eq=False)
class ErrorBudget:
    """Step count and CNOT totals that one bound of BOUNDS implies for a model at (T, epsilon).

    Holds the model, T and epsilon it prices, so its record cannot mix two
    calls; compared and hashed by identity, like the model it holds.
    """

    model: HamiltonianModel
    T: float
    epsilon: float
    bound: str
    constant: float
    order: int
    applicable: bool
    steps: int
    steps_formula: float
    per_step_cnot: int
    total_cnot: int
    formula_total_cnot: float

    @property
    def qubits(self) -> int:
        return self.model.qubits

    def to_text(self) -> str:
        """Flat key-value text record; its first line names the bound as `scheme`."""
        shape, p = self.model.shape, self.model.params
        return record_text([
            ("scheme", self.bound), ("n", shape.n), ("h", shape.h), ("T", self.T),
            ("epsilon", self.epsilon), ("rho", p.rho), ("E", p.E), ("nu", p.nu),
            ("C", self.constant), ("p", self.order), ("m", self.steps),
            ("m_formula", self.steps_formula), ("applicable", self.applicable),
            ("qubits", self.qubits), ("per_step_cnot", self.per_step_cnot),
            ("total_cnot", self.total_cnot), ("formula_total_cnot", self.formula_total_cnot),
        ])


def steps_and_cost(model: HamiltonianModel, T: float, epsilon: float,
                   bound: str) -> ErrorBudget:
    """Convert the one-step bound C * tau^p of BOUNDS[bound] into global step and
    CNOT counts; the budget is applicable while the bound at tau = T/m holds."""
    check_real("T", T)
    check_real("epsilon", epsilon)
    check_choice("bound", bound, BOUNDS)
    one_step, p, step_scheme, limit = BOUNDS[bound]
    c = one_step(model, 1.0)
    try:
        m_formula = (c * T**p / epsilon) ** (1.0 / (p - 1))
    except OverflowError:  # T**p past the float range
        m_formula = math.inf
    m = step_ceiling(m_formula)
    per_step = step_cnots(step_scheme, model.shape.n)
    total, formula_total = m * per_step, m_formula * per_step
    # Ceiling slack: the integer total can exceed the closed form by at most
    # one step's worth of gates.
    if not total <= formula_total + per_step:
        raise RuntimeError(
            f"total CNOT count {total} exceeds the closed form "
            f"{formula_total:.6g} by more than one step ({per_step})")
    return ErrorBudget(
        model=model, T=T, epsilon=epsilon, bound=bound, constant=c, order=p,
        applicable=one_step(model, T / m) <= limit, steps=m, steps_formula=m_formula,
        per_step_cnot=per_step, total_cnot=total, formula_total_cnot=formula_total)
