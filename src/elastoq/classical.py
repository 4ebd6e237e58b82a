"""Classical reference integrator on the physical nine-component sector.

The padded components are dynamically decoupled, so a sector state is one
(9, N, N, N) array, the physical rows of the register: velocity
q = state[:3], stress r = state[3:].  In the transformed frame the generator
is the block anti-Hermitian [[0, L], [-L*, 0]]; the partitioned leapfrog
splits it into two nilpotent halves whose exponentials are exact, giving the
familiar kick-drift-kick update (leapfrog_step, with maps from coupling_map).

The phased DST-I that diagonalises the central difference (see
hamiltonian.Propagator) makes L block diagonal: one 3x6 block per 3D mode.
Both the leapfrog and the exact flow act on each singular pair (u, v) of L
as a 2x2 map in the basis (u, 0), (0, v) and leave the kernel directions
alone, so ||L|| and the local and global defects are exact maxima over the
3 N^3 singular values.  make_leapfrog_config computes them once, and the
certificates read them, and the model, from its LeapfrogConfig alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .hamiltonian import (DENSE_MAX_N, HamiltonianModel, mode_blocks, operator_norm_bound,
                          record_text)
from .lattice import d_axis_matrix
from .media import check_count, check_real, step_ceiling, whole_steps


def velocity_coupling(model: HamiltonianModel, axis: int) -> np.ndarray:
    """3x6 cell factor of the coupling operator for one axis.

    This is the velocity/stress off-diagonal block of the transformed cell
    matrix, i.e. rho^{-1/2} C_axis S^{-1/2}.
    """
    return model.axis_matrix(axis)[0:3, 3:9]


def coupling_map(model: HamiltonianModel, adjoint: bool = False):
    """The map grid -> L grid (or L* grid), with its two small matrices built once.

    grid is (c, ..., N, N, N), real or complex: r = (6, ...) for L, q = (3, ...)
    for L*; a batch of b states rides as axis 1.  The components are
    contracted first, by one real GEMM with the three axis factors stacked
    row-wise and 1/(2h) folded in: C_a / 2h, (9, 6) in all, or -C_a^T / 2h,
    (18, 3), for the adjoint, since the difference operator is anti-Hermitian.
    Then the three unscaled central differences are added up: the last grid
    axis by one GEMM with the N x N difference matrix, the other two by
    shifted slice updates on flat views, so the ghost values stay exact zeros.
    """
    blocks = [velocity_coupling(model, axis) for axis in (1, 2, 3)]
    if adjoint:
        blocks = [-block.T for block in blocks]
    stack = np.concatenate(blocks) / (2 * model.shape.h)
    rows, points = stack.shape[0] // 3, model.shape.points
    plane, cube = points * points, points**3
    diff_t = np.eye(points, k=-1) - np.eye(points, k=1)  # (y @ diff_t)_j = y_{j+1} - y_{j-1}

    def apply(grid: np.ndarray) -> np.ndarray:
        flat = np.ascontiguousarray(grid.reshape(grid.shape[0], -1),
                                    dtype=np.result_type(grid, np.float64))
        # one real GEMM on the float view; a real grid is its own float view
        mixed = (stack @ flat.view(np.float64)).view(flat.dtype).reshape(3, -1, points)
        out = mixed[2] @ diff_t
        for axis, stride, width in ((1, points, plane), (0, plane, cube)):
            src = mixed[axis].reshape(-1, width)
            dst = out.reshape(-1, width)
            dst[:, :-stride] += src[:, stride:]
            dst[:, stride:] -= src[:, :-stride]
        return out.reshape((rows,) + grid.shape[1:])

    return apply


def coupling_singular_values(model: HamiltonianModel) -> np.ndarray:
    """All 3 N^3 singular values of the coupling L, from its per-mode 3x6 blocks."""
    return np.linalg.svd(mode_blocks(model)[..., :3, 3:], compute_uv=False).reshape(-1)


def _c_eta(eta: float) -> float:
    """C_eta = (1 - eta^2/4)^(-1/2), the leapfrog's power bound at margin eta."""
    return (1.0 - eta**2 / 4.0) ** -0.5


_COST_ETA = 1.0  # the cost model's stability margin, the largest its error bound admits


@dataclass(frozen=True, eq=False)
class LeapfrogConfig:
    """A validated leapfrog on one model: step size, stability margin, horizon, and
    the coupling's 3 N^3 singular values sigma (read-only), so ||L|| = max sigma."""

    model: HamiltonianModel
    tau: float
    eta: float
    T: float
    sigma: np.ndarray

    @property
    def l_norm(self) -> float:
        return float(self.sigma.max())

    @property
    def c_eta(self) -> float:
        return _c_eta(self.eta)


def make_leapfrog_config(model: HamiltonianModel, tau: float, eta: float,
                         T: float) -> LeapfrogConfig:
    """Build a config, enforcing the stability condition tau * ||L|| <= eta < 2."""
    check_real("eta", eta, 0.0, 2.0)
    check_real("tau", tau)
    check_real("T", T)
    sigma = coupling_singular_values(model)
    sigma.setflags(write=False)
    config = LeapfrogConfig(model=model, tau=tau, eta=eta, T=T, sigma=sigma)
    if tau * config.l_norm > eta:
        raise ValueError(
            f"stability violated: tau * ||L|| = {tau * config.l_norm:.6g} exceeds eta = {eta}")
    return config


def leapfrog_step(l_fn, lt_fn, q: np.ndarray, r: np.ndarray,
                  tau: float) -> tuple[np.ndarray, np.ndarray]:
    """One partitioned-leapfrog (kick-drift-kick) step of q and r.

    l_fn and lt_fn apply L and L*: the caller builds them once with
    coupling_map(model) and coupling_map(model, adjoint=True), or passes test
    doubles.  Each split is exact, since both halves square to zero.
    """
    q_half = q + (tau / 2) * l_fn(r)
    r_next = r - tau * lt_fn(q_half)
    q_next = q_half + (tau / 2) * l_fn(r_next)
    return q_next, r_next


def _pair_matrices(a, b, c, d) -> np.ndarray:
    """Stack of 2x2 matrices [[a, b], [c, d]] over the broadcast shape of the entries."""
    entries = np.broadcast_arrays(a, b, c, d)
    return np.stack(entries, axis=-1).reshape(entries[0].shape + (2, 2))


def m_sigma(tau: float, sigma) -> np.ndarray:
    """Restriction of one leapfrog step to a singular pair, in its 2D basis.

    Broadcasts over an array of sigma; the 2x2 axes come last.
    """
    x = tau * np.asarray(sigma, dtype=float)
    diag = 1 - x**2 / 2
    return _pair_matrices(diag, x * (1 - x**2 / 4), -x, diag)


def _flow_sigma(t: float, sigma) -> np.ndarray:
    """Restriction of the exact flow exp(tK) to a singular pair: a rotation by t*sigma."""
    x = t * np.asarray(sigma, dtype=float)
    return _pair_matrices(np.cos(x), np.sin(x), -np.sin(x), np.cos(x))


# ---------------------------------------------------------------------------
# dense references (tests only, n <= DENSE_MAX_N)
# ---------------------------------------------------------------------------

def dense_coupling(model: HamiltonianModel) -> np.ndarray:
    """Dense matrix of the coupling L (test reference)."""
    if model.shape.n > DENSE_MAX_N:
        raise ValueError(f"dense coupling needs n <= {DENSE_MAX_N}, got n={model.shape.n}")
    return sum(sp.kron(sp.csr_matrix(velocity_coupling(model, axis)),
                       d_axis_matrix(axis, model.shape), format="csr")
               for axis in (1, 2, 3)).toarray()


def dense_generator(model: HamiltonianModel) -> np.ndarray:
    """Dense block generator [[0, L], [-L*, 0]] of the exact sector flow."""
    l_mat = dense_coupling(model)
    nq, nr = l_mat.shape
    return np.block([[np.zeros((nq, nq)), l_mat], [-l_mat.T, np.zeros((nr, nr))]])


def dense_leapfrog_matrix(model: HamiltonianModel, tau: float) -> np.ndarray:
    """Dense one-step leapfrog matrix (I + tau/2 K1)(I + tau K2)(I + tau/2 K1)."""
    k = dense_generator(model)
    # the zero diagonal blocks leave L strictly above the diagonal and -L* below it
    k1, k2 = np.triu(k), np.tril(k)
    eye = np.eye(len(k))
    return (eye + tau / 2 * k1) @ (eye + tau * k2) @ (eye + tau / 2 * k1)


def dense_sector_evolve(model: HamiltonianModel, T: float, state: np.ndarray) -> np.ndarray:
    """Exact sector flow exp(T*K) of a (9, N, N, N) state by expm of the dense generator."""
    flowed = scipy.linalg.expm(T * dense_generator(model)) @ state.reshape(-1)
    return flowed.reshape(state.shape)


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CertificateReport:
    """Measured quantity vs certified bound, with the method that produced it."""

    name: str
    measured: float
    certified: float
    method: str
    details: tuple[tuple[str, float | int | str], ...] = ()

    @property
    def margin(self) -> float:
        return self.certified - self.measured

    @property
    def passed(self) -> bool:
        return self.measured <= self.certified

    def to_text(self) -> str:
        return record_text([("certificate", self.name), ("measured", self.measured),
                            ("certified", self.certified), ("margin", self.margin),
                            ("passed", self.passed), ("method", self.method), *self.details])


#: Orthonormal probes of the power bound.
POWER_BOUND_PROBES = 16


def _orthonormal_probes(dim: int, count: int) -> np.ndarray:
    rng = np.random.default_rng(0)  # fixed, so certify output is reproducible
    mat = rng.standard_normal((dim, count)) + 1j * rng.standard_normal((dim, count))
    q, _ = np.linalg.qr(mat)
    return q


def power_bound_certificate(config: LeapfrogConfig, m_max: int) -> CertificateReport:
    """Evolve orthonormal probes m_max >= 1 steps and bound the worst norm growth.

    The probes run as one batch (axis 1 of q and r).  Both coupling maps are
    built once; each step is one leapfrog_step with them.
    """
    check_count("m_max", m_max)
    points = config.model.shape.points
    probes = _orthonormal_probes(9 * points**3, POWER_BOUND_PROBES)
    # each probe column is a flat (9, N, N, N) state: q rows first, then r
    grid = np.ascontiguousarray(
        probes.T.reshape(-1, 9, points, points, points).swapaxes(0, 1))
    q, r = grid[:3], grid[3:]
    l_fn, lt_fn = coupling_map(config.model), coupling_map(config.model, adjoint=True)
    growth = 0.0
    for _ in range(m_max):
        q, r = leapfrog_step(l_fn, lt_fn, q, r, config.tau)
        norm_sq = sum(np.sum(part.real**2 + part.imag**2, axis=(0, 2, 3, 4))
                      for part in (q, r))
        growth = max(growth, float(np.sqrt(norm_sq).max()))
    certified = config.c_eta + 1e-8
    return CertificateReport(
        name="power-bound", measured=growth, certified=certified, method="probe",
        details=(("eta", config.eta), ("tau", config.tau), ("steps", m_max),
                 ("l_norm", config.l_norm), ("probes", probes.shape[1])))


def _pair_defect(sigma: np.ndarray, t: float, tau: float, steps: int) -> float:
    """||exp(tK) - leapfrog(tau)^steps||_2 as the worst 2x2 singular-pair block."""
    gap = _flow_sigma(t, sigma) - np.linalg.matrix_power(m_sigma(tau, sigma), steps)
    return float(np.linalg.norm(gap, 2, axis=(-2, -1)).max())


def local_error_certificate(config: LeapfrogConfig) -> CertificateReport:
    """One-step defect ||exp(tau K) - leapfrog|| vs (1/2) tau^3 ||L||^3 at the config's tau."""
    tau, l_norm = config.tau, config.l_norm
    if tau * l_norm > 1.0:
        raise ValueError(f"local error bound needs tau * ||L|| <= 1, got {tau * l_norm:.6g}")
    certified = 0.5 * tau**3 * l_norm**3
    return CertificateReport(name="local-error", measured=_pair_defect(config.sigma, tau, tau, 1),
                             certified=certified, method="spectral",
                             details=(("tau", tau), ("l_norm", l_norm)))


def global_error_certificate(config: LeapfrogConfig) -> CertificateReport:
    """Final-time defect ||exp(T K) - leapfrog^M|| vs (C_eta/2) T tau^2 ||L||^3."""
    if config.tau * config.l_norm > min(1.0, config.eta):
        raise ValueError("global error bound needs tau * ||L|| <= min(1, eta)")
    steps = whole_steps(config.T, config.tau)
    measured = _pair_defect(config.sigma, config.T, config.tau, steps)
    certified = config.c_eta / 2 * config.T * config.tau**2 * config.l_norm**3
    return CertificateReport(
        name="global-error", measured=measured, certified=certified, method="spectral",
        details=(("T", config.T), ("tau", config.tau), ("steps", steps),
                 ("eta", config.eta), ("l_norm", config.l_norm),
                 ("l_norm_bound", operator_norm_bound(config.model))))


# ---------------------------------------------------------------------------
# cost model
# ---------------------------------------------------------------------------

def leapfrog_flops_per_point() -> int:
    """Counted multiply-adds of one leapfrog step per grid point.

    This counts the paper's stencil (difference first, then contraction, per
    axis), not the maps of coupling_map, which contract first and difference
    after; the count is the cost model's, so it stays fixed.

    Coupling apply: per axis, 6-component central difference (2 ops each)
    plus a 3x6 contraction (33 ops) plus accumulation (3), times 3 axes.
    Adjoint apply: 3-component difference plus 6x3 contraction (30) plus
    accumulation (6).  One step runs the coupling twice, the adjoint once,
    and three axpy updates over the 9 components.
    """
    coupling = 3 * (6 * 2 + 33 + 3)
    adjoint = 3 * (3 * 2 + 30 + 6)
    axpy = 2 * (3 + 6 + 3)
    return 2 * coupling + adjoint + axpy


@dataclass(frozen=True)
class ClassicalCostReport:
    """Step count, arithmetic estimate, and memory of the leapfrog baseline."""

    n: int
    points: int
    T: float
    epsilon: float
    eta: float
    l_norm: float
    l_norm_bound: float
    tau_max: float
    steps: int
    flops_per_step: int
    total_flops: int
    memory_complex: int

    def to_text(self) -> str:
        return record_text([
            ("method", "partitioned-leapfrog"), ("n", self.n), ("N", self.points),
            ("T", self.T), ("epsilon", self.epsilon), ("eta", self.eta),
            ("l_norm", self.l_norm), ("l_norm_bound", self.l_norm_bound),
            ("tau_max", self.tau_max), ("m_cl", self.steps),
            ("flops_per_step", self.flops_per_step), ("total_flops", self.total_flops),
            ("memory_complex", self.memory_complex)])


def cost_model(model: HamiltonianModel, T: float, epsilon: float) -> ClassicalCostReport:
    """Classical work/memory for the same semidiscrete system at accuracy epsilon."""
    check_real("T", T)
    check_real("epsilon", epsilon)
    l_norm = float(coupling_singular_values(model).max())
    c_eta = _c_eta(_COST_ETA)
    tau_max = min(_COST_ETA / l_norm, math.sqrt(2 * epsilon / (c_eta * T * l_norm**3)))
    steps = step_ceiling(T / tau_max if tau_max > 0 else math.inf)
    points = model.shape.points
    per_step = leapfrog_flops_per_point() * points**3
    return ClassicalCostReport(
        n=model.shape.n, points=points, T=T, epsilon=epsilon, eta=_COST_ETA,
        l_norm=l_norm, l_norm_bound=operator_norm_bound(model), tau_max=tau_max,
        steps=steps, flops_per_step=per_step, total_flops=steps * per_step,
        memory_complex=9 * points**3)
