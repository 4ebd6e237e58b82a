"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines
on stdout (pytest captures them otherwise).
"""
import time

import numpy as np

from elastoq.circuits import (
    TrotterStep,
    build_U1,
    build_U2,
    empirical_trotter_error,
    simulate,
)
from elastoq.classical import (
    coupling_singular_values,
    dense_sector_evolve,
    global_error_certificate,
    local_error_certificate,
    m_sigma,
    make_leapfrog_config,
    power_bound_certificate,
)
from elastoq.experiments import (
    ExperimentConfig,
    b_weighted_norm_sq,
    build_initial_state,
    config_model,
    reconstruct_fields,
    run_fidelity_sweep,
)
from elastoq.hamiltonian import (
    BOUNDS,
    bound_first_order_commutator,
    bound_first_order_norm,
    bound_second_order,
    build_model,
    dense_evolve,
    materialize_sparse_H,
    qubit_count,
    step_cnots,
    steps_and_cost,
)
from elastoq.lattice import (
    LatticeShape,
    d_axis_matrix,
    d_cell_matrix,
    s_axis_matrix,
    s_cell_matrix,
)
from elastoq.media import (
    MaterialParams,
    build_compliance,
    compliance_spectrum,
)

REFERENCE_MEDIUM = MaterialParams(rho=1.0, E=0.646, nu=0.255)


def _report(index: int, name: str, ok: bool, started: float, limit: float) -> None:
    elapsed = time.perf_counter() - started
    print(f"\nACCEPTANCE {index} {name}: {'PASS' if ok else 'FAIL'} "
          f"({elapsed:.1f} s, limit {limit:.0f} s)")
    assert ok, f"criterion {index} ({name}) failed"
    assert elapsed < limit, f"criterion {index} exceeded its {limit:.0f} s budget"


def random_state(rng, dim):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def test_1_gate_count_reproduction():
    started = time.perf_counter()
    ok = True
    for n in range(1, 7):
        model = build_model(n, 1.0, REFERENCE_MEDIUM)
        first = steps_and_cost(model, 10.0, 0.1, "first-commutator")
        second = steps_and_cost(model, 10.0, 0.1, "second")
        ok &= first.per_step_cnot == 432 * n**2 + 378
        ok &= second.per_step_cnot == 2 * (432 * n**2 + 378)
        ok &= first.qubits == 3 * n + 4 and second.qubits == 3 * n + 4
        ok &= step_cnots("u1", n) == 432 * n**2 + 378
        ok &= step_cnots("u2", n) == 2 * (432 * n**2 + 378)
        ok &= qubit_count(n) == 3 * n + 4
    ok &= step_cnots("u1", 5) == 11178
    ok &= step_cnots("u2", 5) == 22356
    ok &= qubit_count(5) == 19
    _report(1, "gate-count reproduction", ok, started, 1.0)


def test_2_bound_dominance():
    started = time.perf_counter()
    violations = 0
    for n in (1, 2):
        for e_mod in (1.0, 0.646):
            for nu in (0.0, 0.255):
                model = build_model(n, 1.0, MaterialParams(rho=1.0, E=e_mod, nu=nu))
                for tau in (0.05, 0.1, 0.2):
                    d1 = empirical_trotter_error(model, tau, "u1")
                    comm = bound_first_order_commutator(model, tau)
                    norm = bound_first_order_norm(model, tau)
                    if not d1 <= comm <= norm:
                        violations += 1
                    d2 = empirical_trotter_error(model, tau, "u2")
                    b2 = bound_second_order(model, tau)
                    applicable = b2 <= BOUNDS["second"][3]
                    if applicable and not d2 <= b2:
                        violations += 1
    _report(2, "bound dominance", violations == 0, started, 600.0)


def test_3_convergence_orders():
    started = time.perf_counter()
    taus = (0.4, 0.2, 0.1, 0.05)
    config = ExperimentConfig(n=2, T=2.0, taus=taus, E=0.646, nu=0.255)
    model = config_model(config)
    prepared = build_initial_state(config, model)
    reference = dense_evolve(model, config.T, prepared.psi)
    slopes = {}
    for scheme in ("u1", "u2"):
        errors = []
        for tau in taus:
            psi = prepared.psi.copy()
            for _ in range(round(config.T / tau)):
                psi = TrotterStep(model, scheme, tau).apply(psi)
            errors.append(np.linalg.norm(psi - reference))
        slopes[scheme] = np.polyfit(np.log(taus), np.log(errors), 1)[0]
    ok = abs(slopes["u1"] - 1.0) <= 0.3 and abs(slopes["u2"] - 2.0) <= 0.3
    _report(3, f"convergence orders (u1 {slopes['u1']:.2f}, u2 {slopes['u2']:.2f})",
            ok, started, 900.0)


def test_4_fidelity_experiment_desk_scale():
    started = time.perf_counter()
    taus = (0.1, 0.2, 0.5, 1.0)
    config = ExperimentConfig(n=2, T=10.0, taus=taus, E=0.646, nu=0.255, scheme="u1")
    curves = run_fidelity_sweep(config)
    ok = True
    for tau in taus:
        fid = curves[tau].fidelities
        ok &= fid[0] == 1.0
        ok &= bool(np.all(fid >= 0.0) and np.all(fid <= 1.0))
    for i, fine in enumerate(taus):
        for coarse in taus[i + 1:]:
            # compare only at times both step grids hit
            for m, t in enumerate(curves[coarse].times):
                steps_fine = t / fine
                if abs(steps_fine - round(steps_fine)) < 1e-9:
                    f_fine = curves[fine].fidelities[round(steps_fine)]
                    ok &= bool(curves[coarse].fidelities[m] <= f_fine + 1e-6)
    _report(4, "fidelity step-size ordering", ok, started, 600.0)


def test_5_cross_implementation_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(42)
    worst = 0.0
    for scheme, build in (("u1", build_U1), ("u2", build_U2)):
        for n, count in ((1, 7), (2, 7), (3, 6)):
            model = build_model(n, 1.0, REFERENCE_MEDIUM)
            tau = 0.3
            program = build(model, tau)
            for _ in range(count):
                psi = random_state(rng, model.dim)
                gate_out = simulate(program, psi)
                fast_out = TrotterStep(model, scheme, tau).apply(psi)
                worst = max(worst, float(np.abs(gate_out - fast_out).max()))
    _report(5, f"gate-IR vs block application (max dev {worst:.2e})",
            worst < 1e-10, started, 600.0)


def test_6_structural_invariants():
    started = time.perf_counter()
    ok = True
    rng = np.random.default_rng(7)

    # Hermiticity of the assembled generator
    for n in (1, 2):
        h = materialize_sparse_H(build_model(n, 1.0, REFERENCE_MEDIUM))
        ok &= abs(h - h.getH()).max() < 1e-12 if abs(h - h.getH()).nnz else True

    # exact anti-Hermiticity of the difference operators
    for n in (1, 2, 3):
        shape = LatticeShape(n=n, h=0.5)
        ok &= (d_cell_matrix(shape) + d_cell_matrix(shape).T).nnz == 0
        for axis in (1, 2, 3):
            d = d_axis_matrix(axis, shape)
            ok &= (d + d.getH()).nnz == 0

    # unitarity of emitted programs
    for n in (1, 2):
        model = build_model(n, 1.0, REFERENCE_MEDIUM)
        for build in (build_U1, build_U2):
            psi = random_state(rng, model.dim)
            ok &= abs(np.linalg.norm(simulate(build(model, 0.37), psi)) - 1) < 1e-10

    # block-matrix norm identities, 100 random couplings
    for _ in range(100):
        g = rng.standard_normal((3, 6))
        f = np.zeros((9, 9))
        f[:3, 3:] = g
        f[3:, :3] = g.T
        tn = lambda m: np.sum(np.linalg.svd(m, compute_uv=False))
        ok &= np.linalg.norm(f, 2) <= max(np.linalg.norm(g, 2), np.linalg.norm(g.T, 2)) + 1e-10
        ok &= abs(tn(f) - tn(g) - tn(g.T)) < 1e-10
        ok &= abs(tn(f @ f) - 2 * tn(g.T @ g)) < 1e-10

    # compliance spectrum closed form
    for params in (REFERENCE_MEDIUM, MaterialParams(rho=1.0, E=1.0, nu=0.0),
                   MaterialParams(rho=2.0, E=0.5, nu=-0.3)):
        numeric = np.linalg.eigvalsh(build_compliance(params))
        ok &= np.abs(numeric - compliance_spectrum(params)).max() < 1e-12

    # ladder commutator facts up to n = 4
    for n in (3, 4):
        mats = {k: s_cell_matrix(k, n) for k in range(1, n + 1)}
        for k in range(2, n + 1):
            for m in range(k + 1, n + 1):
                ok &= (mats[k] @ mats[m] - mats[m] @ mats[k]).nnz == 0
        for m in range(2, n + 1):
            comm = mats[1] @ mats[m] - mats[m] @ mats[1]
            ok &= abs(np.linalg.norm(comm.toarray(), 2) - 1.0) < 1e-12
    shape = LatticeShape(n=2, h=1.0)
    sa = s_axis_matrix(1, 1, shape)
    sb = s_axis_matrix(2, 2, shape)
    ok &= (sa @ sb - sb @ sa).nnz == 0

    _report(6, "structural invariants", ok, started, 300.0)


def test_7_classical_certificates():
    started = time.perf_counter()
    model = build_model(1, 1.0, REFERENCE_MEDIUM)
    l_norm = float(coupling_singular_values(model).max())
    ok = True

    for eta in (0.5, 1.0, 1.9):
        tau = eta / l_norm * (1 - 1e-9)
        config = make_leapfrog_config(model, tau=tau, eta=eta, T=1000 * tau)
        report = power_bound_certificate(config, m_max=1000)
        ok &= report.measured <= config.c_eta + 1e-8

    local = local_error_certificate(
        make_leapfrog_config(model, tau=0.5 / l_norm, eta=1.0, T=1.0))
    ok &= local.passed

    for steps in (8, 16, 32):
        tau = 2.0 / steps
        config = make_leapfrog_config(model, tau=tau, eta=1.0, T=2.0)
        ok &= global_error_certificate(config).passed

    rng = np.random.default_rng(11)
    for _ in range(50):
        sigma = rng.uniform(0.01, 2.0)
        tau = rng.uniform(0.01, 1.999 / sigma)
        ok &= abs(np.linalg.det(m_sigma(tau, sigma)) - 1.0) < 1e-12

    _report(7, "classical certificates", ok, started, 300.0)


def test_8_quantum_classical_consistency():
    started = time.perf_counter()
    model = build_model(1, 1.0, REFERENCE_MEDIUM)
    points = model.shape.points
    rng = np.random.default_rng(13)
    q = rng.standard_normal((3, points, points, points))
    r = rng.standard_normal((6, points, points, points))
    state = np.concatenate([q, r])
    state /= np.linalg.norm(state)
    psi = np.zeros((16, points, points, points), dtype=complex)
    psi[0:9] = state
    ok = True
    for horizon in (1.0, 5.0):
        quantum = dense_evolve(model, horizon, psi.reshape(-1))
        classical = dense_sector_evolve(model, horizon, state)
        grid = quantum.reshape(16, points, points, points)
        ok &= np.abs(grid[0:3] - classical[:3]).max() < 1e-8
        ok &= np.abs(grid[3:9] - classical[3:]).max() < 1e-8
    _report(8, "quantum/classical sector consistency", ok, started, 120.0)


def test_9_field_reconstruction_sanity():
    started = time.perf_counter()
    config = ExperimentConfig(n=2, T=2.0, taus=(0.5,), E=0.646, nu=0.255)
    model = config_model(config)
    prepared = build_initial_state(config, model)
    slices = reconstruct_fields(model, prepared.psi, prepared.norm_factor)
    ok = np.abs(slices["sigma_zz"].data).max() == 0.0
    expected = np.zeros((4, 4))
    expected[1:3, 1:3] = 1 / np.sqrt(8)
    ok &= np.abs(slices["v_z"].data - expected).max() < 1e-12
    reference = b_weighted_norm_sq(model, prepared.psi, prepared.norm_factor)
    for horizon in (0.5, 1.0, 2.0):
        psi_t = dense_evolve(model, horizon, prepared.psi)
        value = b_weighted_norm_sq(model, psi_t, prepared.norm_factor)
        ok &= abs(value - reference) < 1e-8
    _report(9, "field reconstruction sanity", ok, started, 120.0)
