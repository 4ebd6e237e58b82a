import math

import numpy as np
import pytest
import scipy.linalg

from elastoq.classical import (
    PhysicalState,
    _leapfrog_core,
    _orthonormal_probes,
    apply_K,
    apply_L,
    apply_L_adjoint,
    cost_model,
    coupling_singular_values,
    dense_coupling,
    dense_generator,
    dense_leapfrog_matrix,
    dense_sector_evolve,
    estimate_l_norm,
    global_error_certificate,
    leapfrog_flops_per_point,
    leapfrog_step,
    local_error_certificate,
    m_sigma,
    make_leapfrog_config,
    power_bound_certificate,
)
from elastoq.hamiltonian import Propagator, build_model, dense_evolve, operator_norm_bound
from elastoq.media import MaterialParams

REFERENCE_MEDIUM = MaterialParams(rho=1.0, E=0.646, nu=0.255)
IDENTITY_MEDIUM = MaterialParams(rho=1.0, E=1.0, nu=0.0)


def random_sector_state(rng, points):
    q = rng.standard_normal((3, points, points, points))
    r = rng.standard_normal((6, points, points, points))
    st = PhysicalState(q=q, r=r)
    return PhysicalState(q=q / st.norm, r=r / st.norm)


class TestCoupling:
    def test_zero_in_zero_out(self):
        model = build_model(1, 1.0, REFERENCE_MEDIUM)
        out = apply_L(model, np.zeros((6, 2, 2, 2)))
        assert np.abs(out).max() == 0.0

    def test_norm_bounded(self):
        model = build_model(2, 0.5, REFERENCE_MEDIUM)
        assert estimate_l_norm(model) <= operator_norm_bound(model) + 1e-9

    @pytest.mark.parametrize("n", [1, 2])
    def test_singular_values_match_dense_svd(self, n):
        for h in (1.0, 0.7):
            model = build_model(n, h, REFERENCE_MEDIUM)
            dense = np.linalg.svd(dense_coupling(model), compute_uv=False)
            sigma = coupling_singular_values(model)
            assert sigma.shape == (3 * model.shape.points**3,)
            assert np.abs(np.sort(sigma) - np.sort(dense)).max() <= 1e-12 * dense.max()
            assert estimate_l_norm(model) == pytest.approx(dense.max(), rel=1e-12)

    def test_adjoint_pairing(self):
        model = build_model(2, 1.0, REFERENCE_MEDIUM)
        rng = np.random.default_rng(0)
        for _ in range(5):
            q = rng.standard_normal((3, 4, 4, 4)) + 1j * rng.standard_normal((3, 4, 4, 4))
            r = rng.standard_normal((6, 4, 4, 4)) + 1j * rng.standard_normal((6, 4, 4, 4))
            lhs = np.vdot(q, apply_L(model, r))
            rhs = np.vdot(apply_L_adjoint(model, q), r)
            assert abs(lhs - rhs) < 1e-12

    def test_generator_norm_identity(self):
        # the block generator has the same norm as its coupling block
        model = build_model(1, 1.0, IDENTITY_MEDIUM)
        k_norm = np.linalg.norm(dense_generator(model), 2)
        l_norm = np.linalg.norm(dense_coupling(model), 2)
        assert k_norm == pytest.approx(l_norm, abs=1e-10)

    def test_matrix_free_matches_dense(self):
        model = build_model(1, 0.7, REFERENCE_MEDIUM)
        l_mat = dense_coupling(model)
        rng = np.random.default_rng(1)
        r = rng.standard_normal((6, 2, 2, 2))
        assert np.abs(l_mat @ r.reshape(-1) - apply_L(model, r).reshape(-1)).max() < 1e-12
        q = rng.standard_normal((3, 2, 2, 2))
        assert np.abs(l_mat.T @ q.reshape(-1)
                      - apply_L_adjoint(model, q).reshape(-1)).max() < 1e-12


class TestLeapfrogStep:
    def test_zero_coupling_double_leaves_state(self):
        rng = np.random.default_rng(2)
        q = rng.standard_normal(5)
        r = rng.standard_normal(7)
        q2, r2 = _leapfrog_core(lambda rr: np.zeros(5), lambda qq: np.zeros(7),
                                q, r, 0.7)
        assert np.array_equal(q2, q)
        assert np.array_equal(r2, r)

    def test_rank_one_double_reproduces_block_matrix(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            sigma = rng.uniform(0.2, 1.8)
            tau = rng.uniform(0.1, 1.9 / sigma)
            u = rng.standard_normal(4)
            u /= np.linalg.norm(u)
            v = rng.standard_normal(6)
            v /= np.linalg.norm(v)
            a, b = rng.standard_normal(2)
            q2, r2 = _leapfrog_core(lambda rr: sigma * u * (v @ rr),
                                    lambda qq: sigma * v * (u @ qq),
                                    a * u, b * v, tau)
            coords = m_sigma(tau, sigma) @ np.array([a, b])
            assert np.abs(q2 - coords[0] * u).max() < 1e-12
            assert np.abs(r2 - coords[1] * v).max() < 1e-12

    def test_frozen_m_sigma_example(self):
        m = m_sigma(1.0, 1.0)
        assert np.array_equal(m, [[0.5, 0.75], [-1.0, 0.5]])
        assert np.linalg.det(m) == pytest.approx(1.0, abs=1e-15)

    def test_m_sigma_broadcasts(self):
        sigma = np.array([[0.1, 0.5, 1.0], [1.5, 0.0, 2.0]])
        stack = m_sigma(0.7, sigma)
        assert stack.shape == (2, 3, 2, 2)
        for idx in np.ndindex(sigma.shape):
            assert np.array_equal(stack[idx], m_sigma(0.7, float(sigma[idx])))

    def test_step_halving_richardson_ratio(self):
        # the gap between one tau-step and two tau/2-steps is O(tau^3), so it
        # shrinks ~8x when tau halves
        model = build_model(1, 1.0, REFERENCE_MEDIUM)
        rng = np.random.default_rng(4)
        st = random_sector_state(rng, 2)

        def gap(tau):
            one = leapfrog_step(model, st, tau)
            two = leapfrog_step(model, leapfrog_step(model, st, tau / 2), tau / 2)
            return np.linalg.norm(one.flat() - two.flat())

        assert 6.5 <= gap(0.4) / gap(0.2) <= 9.5
        assert 6.5 <= gap(0.2) / gap(0.1) <= 9.5

    def test_reality_preserved(self):
        model = build_model(1, 1.0, REFERENCE_MEDIUM)
        rng = np.random.default_rng(5)
        st = random_sector_state(rng, 2)
        out = leapfrog_step(model, st, 0.3)
        assert out.q.dtype.kind == "f"
        assert out.r.dtype.kind == "f"


class TestStabilityCertificates:
    def test_config_enforces_stability(self):
        model = build_model(1, 1.0, REFERENCE_MEDIUM)
        with pytest.raises(ValueError, match="stability"):
            make_leapfrog_config(model, tau=10.0, eta=1.0, T=10.0)
        with pytest.raises(ValueError, match="eta"):
            make_leapfrog_config(model, tau=0.1, eta=2.0, T=1.0)

    def test_c_eta_closed_form(self):
        model = build_model(1, 1.0, REFERENCE_MEDIUM)
        config = make_leapfrog_config(model, tau=0.1, eta=1.0, T=1.0)
        assert config.c_eta == pytest.approx(2 / math.sqrt(3), rel=1e-12)

    def test_power_bound_certificate(self):
        model = build_model(1, 1.0, REFERENCE_MEDIUM)
        config = make_leapfrog_config(model, tau=0.5, eta=1.0, T=1.0)
        report = power_bound_certificate(model, config, m_max=300)
        assert report.passed
        assert report.measured <= config.c_eta + 1e-8

    @pytest.mark.parametrize("n", [1, 2])
    def test_power_bound_batch_matches_probe_loop(self, n):
        model = build_model(n, 1.0, REFERENCE_MEDIUM)
        config = make_leapfrog_config(model, tau=0.1, eta=1.0, T=1.0)
        report = power_bound_certificate(model, config, m_max=20)
        points = model.shape.points
        probes = _orthonormal_probes(9 * points**3, 16)
        growth = 0.0
        for i in range(probes.shape[1]):
            state = PhysicalState.from_flat(probes[:, i], points)
            for _ in range(20):
                state = leapfrog_step(model, state, config.tau)
                growth = max(growth, state.norm)
        assert report.measured == pytest.approx(growth, rel=1e-12)

    @pytest.mark.parametrize("m_max", [0, -5])
    def test_power_bound_needs_a_step(self, m_max):
        # with no step the growth would read 0.0 and pass vacuously
        model = build_model(1, 1.0, REFERENCE_MEDIUM)
        config = make_leapfrog_config(model, tau=0.1, eta=1.0, T=1.0)
        with pytest.raises(ValueError, match="m_max"):
            power_bound_certificate(model, config, m_max=m_max)

    def test_near_unitary_regime(self):
        # at tau * ||L|| = 0.01 the growth envelope is C_eta(0.01) ~ 1 + 1.25e-5;
        # measured probe growth over 1000 steps sits around 1e-6
        model = build_model(1, 1.0, REFERENCE_MEDIUM)
        l_norm = estimate_l_norm(model)
        tau = 0.01 / l_norm
        config = make_leapfrog_config(model, tau=tau, eta=0.01, T=1.0)
        report = power_bound_certificate(model, config, m_max=1000)
        assert report.passed
        assert report.measured <= 1.0 + 1.3e-5

    def test_exact_flow_preserves_norm(self):
        model = build_model(1, 1.0, REFERENCE_MEDIUM)
        rng = np.random.default_rng(6)
        st = random_sector_state(rng, 2)
        out = PhysicalState.from_flat(Propagator(model).evolve(st.flat(), 4.0), 2)
        assert out.norm == pytest.approx(st.norm, abs=1e-10)

    def test_unit_circle_eigenvalues(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            sigma = rng.uniform(0.05, 1.0)
            tau = rng.uniform(0.05, 1.99 / sigma)
            eigs = np.linalg.eigvals(m_sigma(tau, sigma))
            assert np.abs(np.abs(eigs) - 1.0).max() < 1e-10

    def test_determinant_identity_50_pairs(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            sigma = rng.uniform(0.01, 2.0)
            tau = rng.uniform(0.01, 1.999 / sigma)
            assert np.linalg.det(m_sigma(tau, sigma)) == pytest.approx(1.0, abs=1e-12)


class TestErrorCertificates:
    def test_local_error(self):
        model = build_model(1, 1.0, REFERENCE_MEDIUM)
        report = local_error_certificate(model, 0.4)
        assert report.passed
        assert report.method == "spectral"

    @pytest.mark.parametrize("n", [1, 2])
    def test_local_defect_matches_dense_norm(self, n):
        for h in (1.0, 0.7):
            model = build_model(n, h, REFERENCE_MEDIUM)
            tau = 0.5 / estimate_l_norm(model)
            gap = (scipy.linalg.expm(tau * dense_generator(model))
                   - dense_leapfrog_matrix(model, tau))
            dense = np.linalg.norm(gap, 2)
            assert local_error_certificate(model, tau).measured == pytest.approx(
                dense, rel=1e-10)

    def test_local_error_precondition(self):
        model = build_model(1, 1.0, REFERENCE_MEDIUM)
        with pytest.raises(ValueError, match="tau"):
            local_error_certificate(model, 5.0)

    def test_global_error_certified(self):
        model = build_model(1, 1.0, REFERENCE_MEDIUM)
        l_norm = estimate_l_norm(model)
        tau = 0.5 / l_norm
        # snap tau onto the T grid
        steps = round(2.0 / tau)
        tau = 2.0 / steps
        config = make_leapfrog_config(model, tau=tau, eta=1.0, T=2.0)
        report = global_error_certificate(model, config)
        assert report.passed

    def test_global_error_quadratic_in_tau(self):
        model = build_model(1, 1.0, REFERENCE_MEDIUM)
        errors = []
        for steps in (8, 16, 32):
            tau = 2.0 / steps
            config = make_leapfrog_config(model, tau=tau, eta=1.0, T=2.0)
            errors.append(global_error_certificate(model, config).measured)
        # halving tau divides the measured defect by about four
        assert 3.0 <= errors[0] / errors[1] <= 5.0
        assert 3.0 <= errors[1] / errors[2] <= 5.0

    @pytest.mark.parametrize("n", [1, 2])
    def test_global_defect_matches_dense_norm(self, n):
        # ||exp(T K) - leapfrog^M||_2 from the dense matrices, M = 8
        for h in (1.0, 0.7):
            model = build_model(n, h, REFERENCE_MEDIUM)
            tau = 0.25 * h
            config = make_leapfrog_config(model, tau=tau, eta=1.0, T=8 * tau)
            gap = (scipy.linalg.expm(config.T * dense_generator(model))
                   - np.linalg.matrix_power(dense_leapfrog_matrix(model, tau), 8))
            report = global_error_certificate(model, config)
            assert report.method == "spectral"
            assert report.passed
            assert report.measured == pytest.approx(np.linalg.norm(gap, 2), rel=1e-10)

    def test_certificate_text_format(self):
        model = build_model(1, 1.0, REFERENCE_MEDIUM)
        config = make_leapfrog_config(model, tau=0.25, eta=1.0, T=2.0)
        text = global_error_certificate(model, config).to_text()
        for key in ("certificate", "measured", "certified", "margin", "passed", "method"):
            assert any(line.startswith(key + " ") for line in text.splitlines())


class TestQuantumClassicalConsistency:
    @pytest.mark.parametrize("T", [1.0, 5.0])
    def test_nine_component_sector_matches(self, T):
        model = build_model(1, 1.0, IDENTITY_MEDIUM)
        points = model.shape.points
        rng = np.random.default_rng(9)
        st = random_sector_state(rng, points)
        psi = np.zeros((16, points, points, points), dtype=complex)
        psi[0:3] = st.q
        psi[3:9] = st.r
        quantum = dense_evolve(model, T, psi.reshape(-1))
        classical = dense_sector_evolve(model, T, st)
        grid = quantum.reshape(16, points, points, points)
        assert np.abs(grid[0:3] - classical.q).max() < 1e-8
        assert np.abs(grid[3:9] - classical.r).max() < 1e-8
        assert np.abs(grid[9:]).max() < 1e-12


class TestCostModel:
    def test_memory_and_scaling(self):
        model2 = build_model(2, 1.0, REFERENCE_MEDIUM)
        model3 = build_model(3, 1.0, REFERENCE_MEDIUM)
        rep2 = cost_model(model2, 5.0, 0.1)
        rep3 = cost_model(model3, 5.0, 0.1)
        assert rep2.memory_complex == 9 * 4**3
        assert rep3.memory_complex == 9 * 8**3
        # op-count model: doubling N multiplies per-step cost by exactly 8
        assert rep3.flops_per_step == 8 * rep2.flops_per_step
        assert rep2.flops_per_step == leapfrog_flops_per_point() * 4**3

    def test_epsilon_branch_switch(self):
        model = build_model(1, 1.0, REFERENCE_MEDIUM)
        l_norm = estimate_l_norm(model)
        loose = cost_model(model, 10.0, 100.0)
        # stability-limited branch: step count set by T * ||L|| / eta
        assert loose.steps == math.ceil(10.0 * l_norm / loose.eta * (1 - 1e-12))
        tight = cost_model(model, 10.0, 1e-6)
        tighter = cost_model(model, 10.0, 2.5e-7)
        # accuracy-limited branch: quartering epsilon doubles the step count
        assert tighter.steps == pytest.approx(2 * tight.steps, rel=1e-3)

    def test_report_text(self):
        model = build_model(1, 1.0, REFERENCE_MEDIUM)
        text = cost_model(model, 2.0, 0.1).to_text()
        for key in ("m_cl", "flops_per_step", "memory_complex", "l_norm_bound"):
            assert any(line.startswith(key + " ") for line in text.splitlines())

    def test_eta_validation(self):
        model = build_model(1, 1.0, REFERENCE_MEDIUM)
        with pytest.raises(ValueError, match="eta"):
            cost_model(model, 1.0, 0.1, eta=1.5)


class TestEnergyConservation:
    def test_leapfrog_energy_bounded(self):
        model = build_model(1, 1.0, REFERENCE_MEDIUM)
        config = make_leapfrog_config(model, tau=0.4, eta=1.0, T=20.0)
        rng = np.random.default_rng(10)
        st = random_sector_state(rng, 2)
        for _ in range(50):
            st = leapfrog_step(model, st, config.tau)
            assert st.norm <= config.c_eta + 1e-8

    def test_generator_antisymmetry(self):
        model = build_model(1, 1.0, REFERENCE_MEDIUM)
        rng = np.random.default_rng(11)
        st = random_sector_state(rng, 2)
        ks = apply_K(model, st)
        inner = np.vdot(st.flat(), ks.flat())
        assert abs(inner.real) < 1e-12
