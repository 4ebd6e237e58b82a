import math

import numpy as np
import pytest
import scipy.linalg

import elastoq.classical
from elastoq.classical import (
    _orthonormal_probes,
    cost_model,
    coupling_map,
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
    velocity_coupling,
)
from elastoq.hamiltonian import Propagator, build_model, dense_evolve, operator_norm_bound
from elastoq.lattice import apply_d_axis
from elastoq.media import MaterialParams

REFERENCE_MEDIUM = MaterialParams(rho=1.0, E=0.646, nu=0.255)
IDENTITY_MEDIUM = MaterialParams(rho=1.0, E=1.0, nu=0.0)


def random_sector_state(rng, points):
    q = rng.standard_normal((3, points, points, points))
    r = rng.standard_normal((6, points, points, points))
    st = np.concatenate([q, r])
    return st / np.linalg.norm(st)


def step(model, state, tau):
    """One leapfrog step of a (9, ...) sector state, building both maps per call."""
    q, r = leapfrog_step(coupling_map(model), coupling_map(model, adjoint=True),
                         state[:3], state[3:], tau)
    return np.concatenate([q, r])


class TestCoupling:
    def test_zero_in_zero_out(self):
        model = build_model(1, 1.0, REFERENCE_MEDIUM)
        out = coupling_map(model)(np.zeros((6, 2, 2, 2)))
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
            lhs = np.vdot(q, coupling_map(model)(r))
            rhs = np.vdot(coupling_map(model, adjoint=True)(q), r)
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
        assert np.abs(l_mat @ r.reshape(-1) - coupling_map(model)(r).reshape(-1)).max() < 1e-12
        q = rng.standard_normal((3, 2, 2, 2))
        assert np.abs(l_mat.T @ q.reshape(-1)
                      - coupling_map(model, adjoint=True)(q).reshape(-1)).max() < 1e-12


    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("h", [1.0, 0.7])
    def test_single_and_batch_match_dense(self, n, h):
        # h != 1 checks the 1/(2h) folded into the stacked component matrix
        model = build_model(n, h, REFERENCE_MEDIUM)
        l_mat = dense_coupling(model)
        grid = (model.shape.points,) * 3
        rng = np.random.default_rng(2)
        r = rng.standard_normal((6,) + grid)
        q = rng.standard_normal((3,) + grid)
        scale = np.abs(l_mat).max()
        assert np.abs(coupling_map(model)(r).reshape(-1) - l_mat @ r.reshape(-1)).max() \
            <= 1e-13 * scale
        assert np.abs(coupling_map(model, adjoint=True)(q).reshape(-1)
                      - l_mat.T @ q.reshape(-1)).max() <= 1e-13 * scale
        batch = 5
        rb = rng.standard_normal((6, batch) + grid) + 1j * rng.standard_normal((6, batch) + grid)
        qb = rng.standard_normal((3, batch) + grid) + 1j * rng.standard_normal((3, batch) + grid)
        lr, ltq = coupling_map(model)(rb), coupling_map(model, adjoint=True)(qb)
        assert lr.shape == (3, batch) + grid and ltq.shape == (6, batch) + grid
        for b in range(batch):
            assert np.abs(lr[:, b].reshape(-1) - l_mat @ rb[:, b].reshape(-1)).max() \
                <= 1e-13 * scale
            assert np.abs(ltq[:, b].reshape(-1) - l_mat.T @ qb[:, b].reshape(-1)).max() \
                <= 1e-13 * scale

    def test_per_axis_sum_at_n3(self):
        # beyond the dense cap: the sum over axes of C_a (D_a r), as one
        # difference per axis followed by the component contraction
        model = build_model(3, 0.7, REFERENCE_MEDIUM)
        rng = np.random.default_rng(3)
        r = rng.standard_normal((6, 2, 8, 8, 8)) + 1j * rng.standard_normal((6, 2, 8, 8, 8))
        q = rng.standard_normal((3, 8, 8, 8))
        expect_l = sum(np.tensordot(velocity_coupling(model, a),
                                    apply_d_axis(a, model.shape, r), axes=(1, 0))
                       for a in (1, 2, 3))
        expect_lt = -sum(np.tensordot(velocity_coupling(model, a).T,
                                      apply_d_axis(a, model.shape, q), axes=(1, 0))
                         for a in (1, 2, 3))
        for got, expect in ((coupling_map(model)(r), expect_l),
                            (coupling_map(model, adjoint=True)(q), expect_lt)):
            assert got.shape == expect.shape
            assert np.abs(got - expect).max() <= 1e-13 * np.abs(expect).max()


class TestLeapfrogStep:
    def test_zero_coupling_double_leaves_state(self):
        rng = np.random.default_rng(2)
        q = rng.standard_normal(5)
        r = rng.standard_normal(7)
        q2, r2 = leapfrog_step(lambda rr: np.zeros(5), lambda qq: np.zeros(7),
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
            q2, r2 = leapfrog_step(lambda rr: sigma * u * (v @ rr),
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
            one = step(model, st, tau)
            two = step(model, step(model, st, tau / 2), tau / 2)
            return np.linalg.norm(one - two)

        assert 6.5 <= gap(0.4) / gap(0.2) <= 9.5
        assert 6.5 <= gap(0.2) / gap(0.1) <= 9.5

    def test_reality_preserved(self):
        model = build_model(1, 1.0, REFERENCE_MEDIUM)
        rng = np.random.default_rng(5)
        st = random_sector_state(rng, 2)
        q, r = leapfrog_step(coupling_map(model), coupling_map(model, adjoint=True),
                             st[:3], st[3:], 0.3)
        assert q.dtype.kind == "f"
        assert r.dtype.kind == "f"


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
            state = probes[:, i].reshape(9, points, points, points)
            for _ in range(20):
                state = step(model, state, config.tau)
                growth = max(growth, np.linalg.norm(state))
        assert report.measured == pytest.approx(growth, rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2])
    def test_power_bound_is_a_batched_leapfrog_step_loop(self, n):
        # the coupling maps are built once per certificate, not once per step:
        # the steps must still be leapfrog_step's, to the bit
        model = build_model(n, 1.0, REFERENCE_MEDIUM)
        config = make_leapfrog_config(model, tau=0.1, eta=1.0, T=1.0)
        points = model.shape.points
        probes = _orthonormal_probes(9 * points**3, 16)
        state = np.ascontiguousarray(
            probes.T.reshape(-1, 9, points, points, points).swapaxes(0, 1))
        growth = 0.0
        for _ in range(20):
            state = step(model, state, config.tau)
            norm_sq = sum(np.sum(part.real**2 + part.imag**2, axis=(0, 2, 3, 4))
                          for part in (state[:3], state[3:]))
            growth = max(growth, float(np.sqrt(norm_sq).max()))
        assert power_bound_certificate(model, config, m_max=20).measured == growth

    def test_power_bound_steps_through_leapfrog_step(self, monkeypatch):
        # every step resolves the module attribute, so a wrapper around it
        # (a tracing span, say) sees each one
        model = build_model(2, 1.0, REFERENCE_MEDIUM)
        config = make_leapfrog_config(model, tau=0.1, eta=1.0, T=1.0)
        expected = power_bound_certificate(model, config, m_max=20).measured
        calls = []

        def counting(*args):
            calls.append(args[-1])
            return leapfrog_step(*args)

        monkeypatch.setattr(elastoq.classical, "leapfrog_step", counting)
        assert power_bound_certificate(model, config, m_max=20).measured == expected
        assert calls == [config.tau] * 20

    @pytest.mark.parametrize("m_max", [0, -5, 2.5, True, "3"])
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
        # padded with seven zero rows to a register state; the physical rows carry its norm
        psi = np.concatenate([st, np.zeros((7,) + st.shape[1:])]).reshape(-1)
        out = Propagator(model).evolve(psi, 4.0)[:st.size]
        assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(st), abs=1e-10)

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

    def test_global_error_refuses_zero_steps(self):
        # round(T / tau) = 0 would compare the identity with exp(T K) and fail
        model = build_model(1, 1.0, REFERENCE_MEDIUM)
        config = make_leapfrog_config(model, tau=0.1, eta=1.0, T=1e-10)
        with pytest.raises(ValueError, match="does not divide"):
            global_error_certificate(model, config)

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
        psi[0:9] = st
        quantum = dense_evolve(model, T, psi.reshape(-1))
        classical = dense_sector_evolve(model, T, st)
        grid = quantum.reshape(16, points, points, points)
        assert np.abs(grid[0:3] - classical[:3]).max() < 1e-8
        assert np.abs(grid[3:9] - classical[3:]).max() < 1e-8
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


class TestEnergyConservation:
    def test_leapfrog_energy_bounded(self):
        model = build_model(1, 1.0, REFERENCE_MEDIUM)
        config = make_leapfrog_config(model, tau=0.4, eta=1.0, T=20.0)
        rng = np.random.default_rng(10)
        st = random_sector_state(rng, 2)
        for _ in range(50):
            st = step(model, st, config.tau)
            assert np.linalg.norm(st) <= config.c_eta + 1e-8

    def test_generator_antisymmetry(self):
        model = build_model(1, 1.0, REFERENCE_MEDIUM)
        rng = np.random.default_rng(11)
        st = random_sector_state(rng, 2)
        ks = np.concatenate([coupling_map(model)(st[3:]),
                             -coupling_map(model, adjoint=True)(st[:3])])
        inner = np.vdot(st, ks)
        assert abs(inner.real) < 1e-12
