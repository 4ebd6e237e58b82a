import dataclasses

import numpy as np
import pytest

from elastoq import circuits, hamiltonian
from elastoq.circuits import empirical_trotter_error
from elastoq.hamiltonian import (
    BOUNDS,
    TermKey,
    apply_H,
    bound_first_order_commutator,
    bound_first_order_norm,
    bound_second_order,
    build_model,
    materialize_sparse_H,
    materialize_term,
    operator_norm_bound,
    qubit_count,
    step_cnots,
    steps_and_cost,
    term_angle,
)
from elastoq.lattice import s_cell_matrix
from elastoq.media import MaterialParams

REFERENCE_MEDIUM = MaterialParams(rho=1.0, E=0.646, nu=0.255)
IDENTITY_MEDIUM = MaterialParams(rho=1.0, E=1.0, nu=0.0)


def random_state(rng, dim):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


class TestModel:
    def test_counts(self):
        model = build_model(3, 1.0, REFERENCE_MEDIUM)
        assert model.qubits == 13
        assert model.dim == 2**13
        assert len(list(model.term_keys())) == 144

    def test_identity_semantics(self):
        # like Propagator: hashable, equal only to itself
        model = build_model(1, 1.0, REFERENCE_MEDIUM)
        twin = build_model(1, 1.0, REFERENCE_MEDIUM)
        assert model == model and model != twin
        assert hash(model) == hash(model)
        assert len({model, twin, model}) == 2

    def test_term_angle(self):
        model = build_model(2, 1.0, REFERENCE_MEDIUM)
        zero_j = int(np.argmin(np.abs(model.eigensystems[0].lambdas)))
        assert term_angle(model, TermKey(1, zero_j, 1), 0.7) == pytest.approx(0.0, abs=1e-13)
        assert term_angle(model, TermKey(1, 15, 1), 0.0) == 0.0
        # direct arithmetic with an injected eigenvalue
        lam = model.eigensystems[2].lambdas[15]
        assert term_angle(model, TermKey(3, 15, 2), 0.1) == pytest.approx(lam * 0.05)

    def test_term_angle_direct_value(self):
        # lambda=1.2, tau=0.1, h=1 -> 0.06, checked through a synthetic system
        model = build_model(1, 1.0, IDENTITY_MEDIUM)
        eig = model.eigensystems[0]
        lams = eig.lambdas.copy()
        lams[-1] = 1.2
        synthetic = type(eig)(axis=1, lambdas=lams, v=eig.v)
        patched = dataclasses.replace(
            model, eigensystems=(synthetic, *model.eigensystems[1:]))
        assert term_angle(patched, TermKey(1, 15, 1), 0.1) == pytest.approx(0.06)


class TestApplyH:
    def test_padding_sector_annihilated(self):
        model = build_model(1, 1.0, REFERENCE_MEDIUM)
        rng = np.random.default_rng(0)
        points = model.shape.points
        grid = np.zeros((16, points, points, points), dtype=complex)
        grid[9:] = rng.standard_normal((7, points, points, points))
        out = apply_H(model, grid.reshape(-1))
        assert np.abs(out).max() < 1e-14

    def test_quadratic_form_real(self):
        model = build_model(1, 1.0, REFERENCE_MEDIUM)
        rng = np.random.default_rng(1)
        for _ in range(5):
            v = random_state(rng, model.dim)
            val = np.vdot(v, apply_H(model, v))
            assert abs(val.imag) < 1e-12

    def test_norm_bounded_by_closed_form(self):
        model = build_model(2, 0.5, REFERENCE_MEDIUM)
        rng = np.random.default_rng(2)
        for _ in range(5):
            v = random_state(rng, model.dim)
            assert np.linalg.norm(apply_H(model, v)) <= operator_norm_bound(model) + 1e-10

    def test_length_mismatch(self):
        model = build_model(1, 1.0, REFERENCE_MEDIUM)
        with pytest.raises(ValueError, match="length"):
            apply_H(model, np.zeros(7))


class TestMaterializedH:
    def test_agrees_with_matrix_free(self):
        model = build_model(1, 0.7, REFERENCE_MEDIUM)
        h = materialize_sparse_H(model)
        rng = np.random.default_rng(3)
        for _ in range(20):
            v = random_state(rng, model.dim)
            assert np.abs(h @ v - apply_H(model, v)).max() < 1e-12

    def test_hermitian_and_traceless(self):
        model = build_model(1, 1.0, IDENTITY_MEDIUM)
        h = materialize_sparse_H(model)
        assert h.shape == (128, 128)
        assert abs(h - h.getH()).nnz == 0
        assert abs(h.diagonal().sum()) < 1e-12

    def test_spectrum_symmetric_and_bounded(self):
        model = build_model(1, 1.0, IDENTITY_MEDIUM)
        evals = np.linalg.eigvalsh(materialize_sparse_H(model).toarray())
        assert np.abs(np.sort(evals) + np.sort(-evals)[::-1]).max() < 1e-10
        assert np.abs(evals).max() <= operator_norm_bound(model) + 1e-10

    @pytest.mark.parametrize("n", [1, 2])
    def test_sum_of_terms_matches(self, n):
        model = build_model(n, 0.9, REFERENCE_MEDIUM)
        total = None
        for key in model.term_keys():
            term = materialize_term(model, key)
            total = term if total is None else total + term
        diff = abs(total - materialize_sparse_H(model))
        assert diff.max() < 1e-10 if diff.nnz else True

    def test_cap(self):
        model = build_model(5, 1.0, IDENTITY_MEDIUM)
        with pytest.raises(ValueError, match="cap"):
            materialize_sparse_H(model)

    def test_termwise_norm_sum_identity(self):
        # sum over terms of ||H_jk|| equals (n/2h) * sum of |lambda_j|
        model = build_model(2, 0.8, REFERENCE_MEDIUM)
        n, h = model.shape.n, model.shape.h
        s_norms = {k: np.linalg.norm(s_cell_matrix(k, n).toarray(), 2) for k in (1, 2)}
        termwise = 0.0
        for key in model.term_keys():
            lam = model.eigensystems[key.axis - 1].lambdas[key.j]
            termwise += abs(lam) / (2 * h) * s_norms[key.k]
        closed = n / (2 * h) * sum(np.abs(e.lambdas).sum() for e in model.eigensystems)
        assert termwise == pytest.approx(closed, rel=1e-9)


class TestBounds:
    def test_zero_tau(self):
        model = build_model(2, 1.0, REFERENCE_MEDIUM)
        assert bound_first_order_norm(model, 0.0) == 0.0
        assert bound_first_order_commutator(model, 0.0) == 0.0
        bound = bound_second_order(model, 0.0)
        assert bound == 0.0 and bound <= hamiltonian.BOUNDS["second"][3]

    def test_norm_scaling_value(self):
        model = build_model(5, 1.0, REFERENCE_MEDIUM)
        expected = 40.5 * 0.01 * (0.646 / 0.49) * 25
        assert bound_first_order_norm(model, 0.1) == pytest.approx(expected, rel=1e-12)
        assert bound_first_order_norm(model, 0.1) == pytest.approx(13.348, abs=5e-4)

    def test_norm_scaling_quadruples_with_n(self):
        b1 = bound_first_order_norm(build_model(2, 1.0, REFERENCE_MEDIUM), 0.3)
        b2 = bound_first_order_norm(build_model(4, 1.0, REFERENCE_MEDIUM), 0.3)
        assert b2 == pytest.approx(4 * b1, rel=1e-12)

    def test_commutator_scaling_value(self):
        model = build_model(2, 1.0, IDENTITY_MEDIUM)
        assert bound_first_order_commutator(model, 0.5) == pytest.approx(5.0625, rel=1e-12)

    def test_commutator_below_norm_bound(self):
        for n in range(1, 11):
            model = build_model(n, 1.0, REFERENCE_MEDIUM)
            assert (bound_first_order_commutator(model, 0.2)
                    < bound_first_order_norm(model, 0.2))

    def test_second_order_value_and_applicability(self):
        model = build_model(1, 1.0, IDENTITY_MEDIUM)
        limit = hamiltonian.BOUNDS["second"][3]
        bound = bound_second_order(model, 1e-4)
        assert bound == pytest.approx(2 * 1440**3 * 1e-12, rel=1e-12)
        assert bound <= limit
        model5 = build_model(5, 1.0, IDENTITY_MEDIUM)
        assert not bound_second_order(model5, 0.1) <= limit


class TestStepsAndCost:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_per_step_formulas(self, n):
        assert step_cnots("u1", n) == 432 * n**2 + 378
        assert step_cnots("u2", n) == 2 * (432 * n**2 + 378)
        assert qubit_count(n) == 3 * n + 4

    @pytest.mark.parametrize("scheme", ["block", "second", "U1", None])
    def test_step_cnots_refuses_other_schemes(self, scheme):
        with pytest.raises(ValueError, match="scheme"):
            step_cnots(scheme, 2)

    def test_n5_budget(self):
        model = build_model(5, 1.0, REFERENCE_MEDIUM)
        first = steps_and_cost(model, 10.0, 0.1, "first-commutator")
        assert first.per_step_cnot == 11178
        assert first.qubits == 19
        second = steps_and_cost(model, 10.0, 0.1, "second")
        assert second.per_step_cnot == 22356

    def test_commutator_total_closed_form(self):
        # n=3, T=10, eps=0.1, identity medium: m is exactly the formula value
        model = build_model(3, 1.0, IDENTITY_MEDIUM)
        budget = steps_and_cost(model, 10.0, 0.1, "first-commutator")
        assert budget.steps == 31500
        assert budget.per_step_cnot == 4266
        assert budget.total_cnot == 31500 * 4266
        closed_form = (9 * 10.0**2 / (2 * 1.0**2 * 0.1)) * 1.0 * (
            1080 * 27 - 216 * 9 + 945 * 3 - 189)
        assert budget.total_cnot <= closed_form + budget.per_step_cnot
        assert budget.formula_total_cnot == pytest.approx(closed_form, rel=1e-9)

    def test_ceiling_slack_reported(self):
        model = build_model(2, 1.0, REFERENCE_MEDIUM)
        budget = steps_and_cost(model, 7.0, 0.03, "first-norm")
        assert budget.steps >= budget.steps_formula - 1e-6
        assert budget.steps - budget.steps_formula < 1.0

    def test_ceiling_violation_raises(self, monkeypatch):
        # a corrupted per-step count breaks the slack check (which is no assert,
        # so it also runs under python -O)
        monkeypatch.setattr(hamiltonian, "step_cnots", lambda scheme, n: -1)
        model = build_model(2, 1.0, REFERENCE_MEDIUM)
        with pytest.raises(RuntimeError, match="CNOT"):
            steps_and_cost(model, 7.0, 0.03, "first-norm")

    def test_validation(self):
        model = build_model(1, 1.0, REFERENCE_MEDIUM)
        with pytest.raises(ValueError, match="T"):
            steps_and_cost(model, 0.0, 0.1, "first-norm")
        with pytest.raises(ValueError, match="epsilon"):
            steps_and_cost(model, 1.0, 0.0, "first-norm")
        with pytest.raises(ValueError, match="bound must be one of"):
            steps_and_cost(model, 1.0, 0.1, "third")
        with pytest.raises(ValueError, match="bound must be one of"):
            steps_and_cost(model, 1.0, 0.1, "u1")

    def test_report_record(self):
        model = build_model(2, 1.0, REFERENCE_MEDIUM)
        text = steps_and_cost(model, 5.0, 0.2, "second").to_text()
        for key in ("scheme", "n", "h", "T", "epsilon", "rho", "E", "nu",
                    "C", "p", "m", "qubits", "per_step_cnot", "total_cnot"):
            assert any(line.startswith(key + " ") for line in text.splitlines())

    @pytest.mark.parametrize("bound", BOUNDS)
    def test_record_prints_the_model_it_prices(self, bound):
        # the budget holds its model, T and epsilon, so its record cannot print
        # one call's inputs next to another call's figures
        b = build_model(3, 0.5, MaterialParams(rho=2.0, E=30.0, nu=0.1))
        budget = steps_and_cost(b, 5.0, 0.2, bound)
        assert (budget.model, budget.T, budget.epsilon, budget.bound) == (b, 5.0, 0.2, bound)
        record = dict(line.split(" ", 1) for line in budget.to_text().splitlines())
        assert record["scheme"] == bound
        assert [record[key] for key in ("n", "h", "rho", "E", "nu", "T", "epsilon")] == [
            "3", "0.5", "2.0", "30.0", "0.1", "5.0", "0.2"]
        assert budget.qubits == 13 and record["qubits"] == "13"
        assert record["per_step_cnot"] == str(step_cnots(BOUNDS[bound][2], 3))


class TestEmpiricalError:
    def test_zero_tau(self):
        model = build_model(1, 1.0, REFERENCE_MEDIUM)
        assert empirical_trotter_error(model, 0.0, "u1") < 1e-12

    def test_richardson_ratio_first_order(self):
        model = build_model(1, 1.0, REFERENCE_MEDIUM)
        tau = 0.08
        e1 = empirical_trotter_error(model, tau, "u1")
        e2 = empirical_trotter_error(model, tau / 2, "u1")
        assert 3.4 <= e1 / e2 <= 4.6

    @pytest.mark.parametrize("n", [1, 2])
    def test_dominated_by_commutator_bound(self, n):
        model = build_model(n, 1.0, REFERENCE_MEDIUM)
        for tau in (0.05, 0.15):
            measured = empirical_trotter_error(model, tau, "u1")
            assert measured <= bound_first_order_commutator(model, tau)

    def test_refuses_past_dense_cap(self, monkeypatch):
        # refused before any propagator is built: there is no estimate past the cap
        def no_propagator(model):
            raise AssertionError("Propagator built")
        model = build_model(3, 1.0, REFERENCE_MEDIUM)
        monkeypatch.setattr(circuits, "Propagator", no_propagator)
        with pytest.raises(ValueError, match=r"n=3"):
            empirical_trotter_error(model, 0.05, "u1")


class TestSectorNormIdentity:
    def test_h_norm_equals_coupling_norm(self):
        # the full generator's norm equals the off-diagonal coupling's norm
        from elastoq.classical import dense_coupling, dense_generator

        model = build_model(1, 1.0, IDENTITY_MEDIUM)
        h_norm = np.linalg.norm(materialize_sparse_H(model).toarray(), 2)
        k_norm = np.linalg.norm(dense_generator(model), 2)
        l_norm = np.linalg.norm(dense_coupling(model), 2)
        assert k_norm == pytest.approx(l_norm, abs=1e-10)
        assert h_norm == pytest.approx(l_norm, abs=1e-10)
