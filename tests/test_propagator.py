"""The spectral (DST-I) exact propagator against independent references."""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

import elastoq
from elastoq.classical import PhysicalState, dense_generator
from elastoq.hamiltonian import Propagator, apply_H, build_model, dense_evolve
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
        dense = dense_evolve(model, T, psi)
        assert np.abs(Propagator(model).evolve(psi, T) - dense).max() <= 1e-12

    def test_batch_columns(self):
        model = build_model(1, 0.7, REFERENCE_MEDIUM)
        batch = random_states(np.random.default_rng(3), model.dim, batch=3)
        dense = dense_evolve(model, 2.0, batch)
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_rejects_nonfinite_state(self, bad, dtype):
        # one bad entry would come back spread over whole sectors
        prop = Propagator(build_model(2, 1.0, REFERENCE_MEDIUM))
        psi = np.zeros(prop.model.dim, dtype=dtype)
        psi[5] = bad
        with pytest.raises(ValueError, match="psi must be finite"):
            prop.evolve(psi, 1.0)


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
        dense = dense_evolve(model, 2.5, psi)
        assert np.abs(Propagator(model).evolve(psi, 2.5) - dense).max() <= 1e-12


class TestMatrixDST:
    """The three-GEMM DST-I against pocketfft's, which only the tests import."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_scipy_dstn(self, n):
        prop = Propagator(build_model(n, 1.0, REFERENCE_MEDIUM))
        points = prop.model.shape.points
        rng = np.random.default_rng(40 + n)
        for shape in ((16, points, points, points), (16, points, points, points, 4)):
            real = rng.standard_normal(shape)
            for grid in (real, real + 1j * rng.standard_normal(shape)):
                got = prop._dst(grid)
                expected = scipy.fft.dstn(grid, type=1, axes=(1, 2, 3), norm="ortho")
                assert got.dtype == grid.dtype and got.shape == grid.shape
                assert np.abs(got - expected).max() <= 1e-13 * np.abs(grid).max()
                assert np.abs(prop._dst(got) - grid).max() <= 1e-13 * np.abs(grid).max()

    def test_sine_matrix_is_read_only(self):
        prop = Propagator(build_model(2, 1.0, REFERENCE_MEDIUM))
        assert np.array_equal(prop._sine, prop._sine.T)
        with pytest.raises(ValueError):
            prop._sine[0, 0] = 1.0

    def test_run_imports_no_scipy_fft(self, tmp_path):
        src = Path(elastoq.__file__).resolve().parent.parent
        script = ("import sys\n"
                  "from elastoq.cli import main\n"
                  "argv = ['run', '--n', '3', '--init', 'p', '--T', '1', '--tau', '0.5']\n"
                  "assert main(argv + ['--out', sys.argv[1]]) == 0\n"
                  "assert 'scipy.fft' not in sys.modules, 'scipy.fft imported'\n")
        done = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                              env={**os.environ, "PYTHONPATH": str(src)},
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert (tmp_path / "manifest.json").exists()


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
            flowed = PhysicalState.from_flat(Propagator(model).evolve(state.flat(), T), points)
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
