"""The spectral (DST-I) exact propagator against independent references."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elastoq.circuits import exact_evolve
from elastoq.classical import PhysicalState, dense_generator, exact_sector_evolve
from elastoq.hamiltonian import Propagator, apply_H, build_model
from elastoq.media import MaterialParams

REFERENCE_MEDIUM = MaterialParams(rho=1.0, E=0.646, nu=0.255)


def random_states(rng, dim, batch=None):
    shape = (dim,) if batch is None else (dim, batch)
    v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return v / np.linalg.norm(v, axis=0)


def spectral_H(prop: Propagator, psi: np.ndarray) -> np.ndarray:
    return prop.from_spectral(prop.eigenvalues * prop.to_spectral(psi))


class TestAgainstDense:
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("T", [0.1, 30.0])
    def test_matches_dense_oracle(self, n, T):
        model = build_model(n, 1.0, REFERENCE_MEDIUM)
        psi = random_states(np.random.default_rng(n), model.dim)
        dense = exact_evolve(model, T, psi, method="dense").state
        assert np.abs(Propagator(model).evolve(psi, T) - dense).max() <= 1e-12

    def test_batch_columns(self):
        model = build_model(1, 0.7, REFERENCE_MEDIUM)
        batch = random_states(np.random.default_rng(3), model.dim, batch=3)
        dense = exact_evolve(model, 2.0, batch, method="dense").state
        assert np.abs(Propagator(model).evolve(batch, 2.0) - dense).max() <= 1e-12


class TestGenerator:
    @pytest.mark.parametrize("n", [3, 4])
    def test_spectral_H_matches_apply_H(self, n):
        model = build_model(n, 0.5, REFERENCE_MEDIUM)
        psi = random_states(np.random.default_rng(n), model.dim)
        expected = apply_H(model, psi)
        got = spectral_H(Propagator(model), psi)
        assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_padding_passes_through(self):
        model = build_model(2, 1.0, REFERENCE_MEDIUM)
        prop = Propagator(model)
        grid = np.zeros((16, model.shape.points**3), dtype=complex)
        grid[9:] = random_states(np.random.default_rng(4), 7 * model.shape.points**3
                                 ).reshape(7, -1)
        psi = grid.reshape(-1)
        assert np.array_equal(prop.to_spectral(psi), psi)
        assert np.array_equal(prop.evolve(psi, 3.0), psi)
        assert np.all(prop.eigenvalues.reshape(16, -1)[9:] == 0.0)

    def test_immutable(self):
        prop = Propagator(build_model(1, 1.0, REFERENCE_MEDIUM))
        with pytest.raises(AttributeError):
            prop.model = None
        with pytest.raises(ValueError):
            prop.eigenvalues[0] = 1.0

    def test_length_mismatch(self):
        prop = Propagator(build_model(1, 1.0, REFERENCE_MEDIUM))
        with pytest.raises(ValueError, match="state length"):
            prop.evolve(np.zeros(100, dtype=complex), 1.0)
        with pytest.raises(ValueError, match="state length"):
            prop.to_spectral(np.zeros(100))

    @pytest.mark.parametrize("t", [np.inf, -np.inf, np.nan])
    def test_rejects_nonfinite_time(self, t):
        prop = Propagator(build_model(1, 1.0, REFERENCE_MEDIUM))
        with pytest.raises(ValueError, match="t must be finite"):
            prop.phases(t)
        with pytest.raises(ValueError, match="t must be finite"):
            prop.evolve(np.ones(prop.model.dim) / np.sqrt(prop.model.dim), t)


class TestRealInput:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_real_transform_matches_complex(self, n):
        # one real DST-I (parity folding) against the complex transform
        model = build_model(n, 1.0, REFERENCE_MEDIUM)
        prop = Propagator(model)
        rng = np.random.default_rng(30 + n)
        sector = 9 * model.shape.points**3
        for shape in ((model.dim,), (sector,), (model.dim, 3), (sector, 2)):
            psi = rng.standard_normal(shape)
            psi /= np.linalg.norm(psi, axis=0)
            real = prop.to_spectral(psi)
            assert real.dtype == complex and real.shape == shape
            assert np.abs(real - prop.to_spectral(psi.astype(complex))).max() <= 1e-15

    def test_evolve_real_state(self):
        model = build_model(2, 1.0, REFERENCE_MEDIUM)
        psi = np.random.default_rng(8).standard_normal(model.dim)
        psi /= np.linalg.norm(psi)
        dense = exact_evolve(model, 2.5, psi, method="dense").state
        assert np.abs(Propagator(model).evolve(psi, 2.5) - dense).max() <= 1e-12


class TestGroupLaw:
    def setup_method(self):
        self.model = build_model(2, 1.0, REFERENCE_MEDIUM)
        self.prop = Propagator(self.model)
        self.psi = random_states(np.random.default_rng(5), self.model.dim)

    def test_composition(self):
        two_steps = self.prop.evolve(self.prop.evolve(self.psi, 1.3), 2.4)
        assert np.abs(two_steps - self.prop.evolve(self.psi, 3.7)).max() <= 1e-12

    def test_inverse(self):
        back = self.prop.evolve(self.prop.evolve(self.psi, 7.0), -7.0)
        assert np.abs(back - self.psi).max() <= 1e-12

    def test_zero_time_and_norm(self):
        assert np.abs(self.prop.evolve(self.psi, 0.0) - self.psi).max() <= 1e-14
        for t in (0.5, 30.0, -12.0):
            assert np.linalg.norm(self.prop.evolve(self.psi, t)) == pytest.approx(
                1.0, abs=1e-13)


class TestSectorFlow:
    @pytest.mark.parametrize("n", [1, 2])
    def test_matches_dense_generator_eigh(self, n):
        model = build_model(n, 1.0, REFERENCE_MEDIUM)
        points = model.shape.points
        evals, evecs = np.linalg.eigh(1j * dense_generator(model))
        vec = random_states(np.random.default_rng(6), 9 * points**3)
        for T in (0.4, 10.0):
            expected = evecs @ (np.exp(-1j * evals * T) * (evecs.conj().T @ vec))
            state = PhysicalState.from_flat(vec, points)
            flowed, method = exact_sector_evolve(model, T, state)
            assert method == "spectral"
            assert np.abs(flowed.flat() - expected).max() <= 1e-12


@settings(max_examples=25, deadline=None)
@given(rho=st.floats(0.1, 10.0), E=st.floats(0.1, 10.0), nu=st.floats(-0.9, 0.45),
       h=st.floats(0.1, 2.0))
def test_property_valid_media(rho, E, nu, h):
    model = build_model(2, h, MaterialParams(rho=rho, E=E, nu=nu))
    prop = Propagator(model)
    psi = random_states(np.random.default_rng(7), model.dim)
    expected = apply_H(model, psi)
    assert np.linalg.norm(spectral_H(prop, psi) - expected) <= (
        1e-12 * np.linalg.norm(expected))
    forward = prop.evolve(psi, 1.5)
    assert np.linalg.norm(forward) == pytest.approx(1.0, abs=1e-12)
    assert np.abs(prop.evolve(forward, -1.5) - psi).max() <= 1e-12
