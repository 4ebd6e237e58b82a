"""Classical reference integrator on the physical nine-component sector.

The padded components are dynamically decoupled, so the classical baseline
works on the velocity sector q (3 components per grid point) and the stress
sector r (6 components).  In the transformed frame the generator is the
block anti-Hermitian [[0, L], [-L*, 0]]; the partitioned leapfrog splits it
into two nilpotent halves whose exponentials are exact, giving the familiar
kick-drift-kick update.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .hamiltonian import HamiltonianModel, Propagator, operator_norm_bound
from .lattice import apply_d_axis, d_axis_matrix

#: Dense-oracle cap on the 9*N^3 sector dimension (n = 2 still fits).
DENSE_SECTOR_CAP = 5000


@dataclass(frozen=True)
class PhysicalState:
    """Velocity-sector and stress-sector coefficient arrays, shape (c, N, N, N)."""

    q: np.ndarray
    r: np.ndarray

    @property
    def norm(self) -> float:
        return float(np.sqrt(np.vdot(self.q, self.q).real + np.vdot(self.r, self.r).real))

    def flat(self) -> np.ndarray:
        return np.concatenate([self.q.reshape(-1), self.r.reshape(-1)])

    @classmethod
    def from_flat(cls, vec: np.ndarray, points: int) -> "PhysicalState":
        split = 3 * points**3
        return cls(q=vec[:split].reshape(3, points, points, points).copy(),
                   r=vec[split:].reshape(6, points, points, points).copy())


def velocity_coupling(model: HamiltonianModel, axis: int) -> np.ndarray:
    """3x6 cell factor of the coupling operator for one axis.

    This is the velocity/stress off-diagonal block of the transformed cell
    matrix, i.e. rho^{-1/2} C_axis S^{-1/2}.
    """
    return model.axis_matrix(axis)[0:3, 3:9]


def apply_L(model: HamiltonianModel, r: np.ndarray) -> np.ndarray:
    """Matrix-free coupling applied to a stress-sector array (6, N, N, N)."""
    out = np.zeros((3,) + r.shape[1:], dtype=np.result_type(r.dtype, float))
    for axis in (1, 2, 3):
        dr = apply_d_axis(axis, model.shape, r)
        out += np.tensordot(velocity_coupling(model, axis), dr, axes=(1, 0))
    return out


def apply_L_adjoint(model: HamiltonianModel, q: np.ndarray) -> np.ndarray:
    """Adjoint coupling applied to a velocity-sector array (3, N, N, N)."""
    out = np.zeros((6,) + q.shape[1:], dtype=np.result_type(q.dtype, float))
    for axis in (1, 2, 3):
        dq = apply_d_axis(axis, model.shape, q)
        # the difference operator is anti-Hermitian, hence the sign flip
        out -= np.tensordot(velocity_coupling(model, axis).T, dq, axes=(1, 0))
    return out


def apply_K(model: HamiltonianModel, state: PhysicalState) -> PhysicalState:
    """Full anti-Hermitian generator: dq/dt = L r, dr/dt = -L* q."""
    return PhysicalState(q=apply_L(model, state.r), r=-apply_L_adjoint(model, state.q))


def estimate_l_norm(model: HamiltonianModel, rel_tol: float = 1e-6,
                    max_iter: int = 500, seed: int = 0) -> float:
    """Largest singular value of the coupling by power iteration on L*L."""
    points = model.shape.points
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((6, points, points, points))
    v /= np.linalg.norm(v)
    sigma2 = 0.0
    for _ in range(max_iter):
        w = apply_L_adjoint(model, apply_L(model, v))
        nw = float(np.linalg.norm(w))
        if nw == 0:
            return 0.0
        if abs(nw - sigma2) <= rel_tol * nw:
            sigma2 = nw
            break
        sigma2 = nw
        v = w / nw
    return math.sqrt(sigma2)


@dataclass(frozen=True)
class LeapfrogConfig:
    """Validated step size, stability margin, and horizon for the leapfrog."""

    tau: float
    eta: float
    T: float
    l_norm: float

    @property
    def c_eta(self) -> float:
        return (1.0 - self.eta**2 / 4.0) ** -0.5


def make_leapfrog_config(model: HamiltonianModel, tau: float, eta: float,
                         T: float) -> LeapfrogConfig:
    """Build a config, enforcing the stability condition tau * ||L|| <= eta < 2."""
    if not 0 < eta < 2:
        raise ValueError(f"eta must lie in (0, 2), got {eta}")
    if not tau > 0 or not T > 0:
        raise ValueError(f"tau and T must be positive, got tau={tau}, T={T}")
    l_norm = estimate_l_norm(model)
    if tau * l_norm > eta:
        raise ValueError(
            f"stability violated: tau * ||L|| = {tau * l_norm:.6g} exceeds eta = {eta}")
    return LeapfrogConfig(tau=tau, eta=eta, T=T, l_norm=l_norm)


def _leapfrog_core(l_fn, lt_fn, q: np.ndarray, r: np.ndarray,
                   tau: float) -> tuple[np.ndarray, np.ndarray]:
    """Kick-drift-kick update with injectable coupling (for test doubles)."""
    q_half = q + (tau / 2) * l_fn(r)
    r_next = r - tau * lt_fn(q_half)
    q_next = q_half + (tau / 2) * l_fn(r_next)
    return q_next, r_next


def leapfrog_step(model: HamiltonianModel, state: PhysicalState,
                  tau: float) -> PhysicalState:
    """One partitioned-leapfrog step; exact per split since both halves square to zero."""
    q, r = _leapfrog_core(lambda rr: apply_L(model, rr),
                          lambda qq: apply_L_adjoint(model, qq),
                          state.q, state.r, tau)
    return PhysicalState(q=q, r=r)


def m_sigma(tau: float, sigma: float) -> np.ndarray:
    """Restriction of one leapfrog step to a singular pair, in its 2D basis."""
    x = tau * sigma
    return np.array([[1 - x**2 / 2, x * (1 - x**2 / 4)],
                     [-x, 1 - x**2 / 2]])


# ---------------------------------------------------------------------------
# dense oracles (small sectors only)
# ---------------------------------------------------------------------------

def dense_coupling(model: HamiltonianModel) -> np.ndarray:
    """Dense matrix of the coupling L (oracle path, capped sector size)."""
    points = model.shape.points
    if 9 * points**3 > DENSE_SECTOR_CAP:
        raise ValueError(f"sector dimension 9*{points}^3 exceeds the dense cap")
    l_mat = None
    for axis in (1, 2, 3):
        block = sp.kron(sp.csr_matrix(velocity_coupling(model, axis)),
                        d_axis_matrix(axis, model.shape), format="csr")
        l_mat = block if l_mat is None else l_mat + block
    return l_mat.toarray()


def dense_generator(model: HamiltonianModel) -> np.ndarray:
    """Dense block generator [[0, L], [-L*, 0]] of the exact sector flow."""
    l_mat = dense_coupling(model)
    nq, nr = l_mat.shape
    k = np.zeros((nq + nr, nq + nr))
    k[:nq, nq:] = l_mat
    k[nq:, :nq] = -l_mat.T
    return k


def dense_leapfrog_matrix(model: HamiltonianModel, tau: float) -> np.ndarray:
    """Dense one-step leapfrog matrix (I + tau/2 K1)(I + tau K2)(I + tau/2 K1)."""
    l_mat = dense_coupling(model)
    nq, nr = l_mat.shape
    dim = nq + nr
    k1 = np.zeros((dim, dim))
    k1[:nq, nq:] = l_mat
    k2 = np.zeros((dim, dim))
    k2[nq:, :nq] = -l_mat.T
    eye = np.eye(dim)
    return (eye + tau / 2 * k1) @ (eye + tau * k2) @ (eye + tau / 2 * k1)


def exact_sector_evolve(model: HamiltonianModel, T: float, state: PhysicalState,
                        method: str = "auto") -> tuple[PhysicalState, str]:
    """Exact flow exp(T*K) of the sector generator.

    iK is the generator restricted to the physical components, so "auto" runs
    the spectral Propagator on the q, r layout; "dense" exponentiates the
    independently assembled dense generator (test oracle, small sectors).
    """
    points = model.shape.points
    if method == "auto":
        return PhysicalState.from_flat(Propagator(model).evolve(state.flat(), T),
                                       points), "spectral"
    if method == "dense":
        out = scipy.linalg.expm(T * dense_generator(model)) @ state.flat()
        return PhysicalState.from_flat(out, points), "dense"
    raise ValueError(f"method must be auto or dense, got {method!r}")


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
        rows = [("certificate", self.name), ("measured", self.measured),
                ("certified", self.certified), ("margin", self.margin),
                ("passed", self.passed), ("method", self.method)]
        rows += list(self.details)
        return "\n".join(f"{key} {value}" for key, value in rows)


def _orthonormal_probes(dim: int, count: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    mat = rng.standard_normal((dim, count)) + 1j * rng.standard_normal((dim, count))
    q, _ = np.linalg.qr(mat)
    return q


def power_bound_certificate(model: HamiltonianModel, config: LeapfrogConfig,
                            m_max: int, n_probes: int = 16,
                            seed: int = 0) -> CertificateReport:
    """Evolve orthonormal probes m_max steps and bound the worst norm growth."""
    points = model.shape.points
    dim = 9 * points**3
    probes = _orthonormal_probes(dim, min(n_probes, dim), seed)
    growth = 0.0
    states = [PhysicalState.from_flat(probes[:, i], points) for i in range(probes.shape[1])]
    for _ in range(m_max):
        states = [leapfrog_step(model, st, config.tau) for st in states]
        growth = max(growth, max(st.norm for st in states))
    certified = config.c_eta + 1e-8
    return CertificateReport(
        name="power-bound", measured=growth, certified=certified, method="probe",
        details=(("eta", config.eta), ("tau", config.tau), ("steps", m_max),
                 ("l_norm", config.l_norm), ("probes", probes.shape[1])))


def local_error_certificate(model: HamiltonianModel, tau: float) -> CertificateReport:
    """Dense one-step defect ||exp(tau K) - leapfrog|| vs (1/2) tau^3 ||L||^3."""
    l_norm = estimate_l_norm(model)
    if tau * l_norm > 1.0:
        raise ValueError(f"local error bound needs tau * ||L|| <= 1, got {tau * l_norm:.6g}")
    exact = Propagator(model).evolve(np.eye(9 * model.shape.points**3), tau)
    defect = float(np.linalg.norm(exact - dense_leapfrog_matrix(model, tau), 2))
    certified = 0.5 * tau**3 * l_norm**3
    return CertificateReport(name="local-error", measured=defect, certified=certified,
                             method="dense", details=(("tau", tau), ("l_norm", l_norm)))


def _adjoint_leapfrog_step(model: HamiltonianModel, state: PhysicalState,
                           tau: float) -> PhysicalState:
    """Adjoint of one leapfrog step (the split is palindromic, so same shape)."""
    r_half = state.r + (tau / 2) * apply_L_adjoint(model, state.q)
    q_next = state.q - tau * apply_L(model, r_half)
    r_next = r_half + (tau / 2) * apply_L_adjoint(model, q_next)
    return PhysicalState(q=q_next, r=r_next)


#: Above this sector dimension the global certificate switches from the exact
#: operator norm of the defect to a probe/power-iteration lower bound.
EXACT_DEFECT_NORM_CAP = 1024


def global_error_certificate(model: HamiltonianModel, config: LeapfrogConfig,
                             n_probes: int = 32, seed: int = 0,
                             power_iters: int = 12,
                             exact_cap: int = EXACT_DEFECT_NORM_CAP) -> CertificateReport:
    """Final-time defect ||exp(T K) - leapfrog^M|| vs (C_eta/2) T tau^2 ||L||^3.

    Small sectors measure the exact operator norm of the defect; larger ones
    report a lower bound from random unit probes sharpened by power iteration
    on the defect operator.
    """
    if config.tau * config.l_norm > min(1.0, config.eta):
        raise ValueError("global error bound needs tau * ||L|| <= min(1, eta)")
    steps = round(config.T / config.tau)
    if abs(steps * config.tau - config.T) > 1e-9 * max(1.0, config.T):
        raise ValueError(f"tau={config.tau} does not divide T={config.T}")
    points = model.shape.points
    dim = 9 * points**3
    detail = (("T", config.T), ("tau", config.tau), ("steps", steps),
              ("eta", config.eta), ("l_norm", config.l_norm),
              ("l_norm_bound", operator_norm_bound(model)))
    certified = config.c_eta / 2 * config.T * config.tau**2 * config.l_norm**3

    propagator = Propagator(model)
    if dim <= exact_cap:
        exact = propagator.evolve(np.eye(dim), config.T)
        psi_m = np.linalg.matrix_power(dense_leapfrog_matrix(model, config.tau), steps)
        measured = float(np.linalg.norm(exact - psi_m, 2))
        return CertificateReport(name="global-error", measured=measured,
                                 certified=certified, method="dense", details=detail)

    def defect(vec: np.ndarray, adjoint: bool = False) -> np.ndarray:
        exact = propagator.evolve(vec, -config.T if adjoint else config.T)
        st = PhysicalState.from_flat(vec, points)
        step = _adjoint_leapfrog_step if adjoint else leapfrog_step
        for _ in range(steps):
            st = step(model, st, config.tau)
        return exact - st.flat()

    probes = _orthonormal_probes(dim, min(n_probes, dim), seed)
    measured, top = 0.0, probes[:, 0]
    for i in range(probes.shape[1]):
        norm = float(np.linalg.norm(defect(probes[:, i])))
        if norm > measured:
            measured, top = norm, probes[:, i]
    # sharpen the lower bound: power iteration on the defect operator,
    # seeded with the best probe
    v = top
    for _ in range(power_iters):
        w = defect(defect(v), adjoint=True)
        nw = np.linalg.norm(w)
        if nw == 0:
            break
        v = w / nw
    measured = max(measured, float(np.linalg.norm(defect(v))))
    return CertificateReport(name="global-error", measured=measured,
                             certified=certified, method="probe", details=detail)


# ---------------------------------------------------------------------------
# cost model
# ---------------------------------------------------------------------------

def leapfrog_flops_per_point() -> int:
    """Counted multiply-adds of one leapfrog step per grid point.

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
        rows = [("method", "partitioned-leapfrog"), ("n", self.n), ("N", self.points),
                ("T", self.T), ("epsilon", self.epsilon), ("eta", self.eta),
                ("l_norm", self.l_norm), ("l_norm_bound", self.l_norm_bound),
                ("tau_max", self.tau_max), ("m_cl", self.steps),
                ("flops_per_step", self.flops_per_step),
                ("total_flops", self.total_flops),
                ("memory_complex", self.memory_complex)]
        return "\n".join(f"{key} {value}" for key, value in rows)


def cost_model(model: HamiltonianModel, T: float, epsilon: float,
               eta: float = 1.0) -> ClassicalCostReport:
    """Classical work/memory for the same semidiscrete system at accuracy epsilon."""
    if not 0 < eta <= 1:
        raise ValueError(f"eta must lie in (0, 1] for the error bound, got {eta}")
    l_norm = estimate_l_norm(model)
    c_eta = (1.0 - eta**2 / 4.0) ** -0.5
    tau_max = min(eta / l_norm, math.sqrt(2 * epsilon / (c_eta * T * l_norm**3)))
    steps = max(1, math.ceil(T / tau_max * (1.0 - 1e-12)))
    points = model.shape.points
    per_step = leapfrog_flops_per_point() * points**3
    return ClassicalCostReport(
        n=model.shape.n, points=points, T=T, epsilon=epsilon, eta=eta,
        l_norm=l_norm, l_norm_bound=operator_norm_bound(model), tau_max=tau_max,
        steps=steps, flops_per_step=per_step, total_flops=steps * per_step,
        memory_complex=9 * points**3)
