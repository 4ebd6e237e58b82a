import re

import numpy as np
import pytest

from elastoq.media import (
    MaterialParams,
    axis_coupling,
    axis_hamiltonian_cell,
    build_cell_matrices,
    build_compliance,
    check_count,
    compliance_inverse_norm,
    compliance_spectrum,
    degenerate_clusters,
    eigendecompose_axis,
)

REFERENCE_MEDIUM = MaterialParams(rho=1.0, E=0.646, nu=0.255)
IDENTITY_MEDIUM = MaterialParams(rho=1.0, E=1.0, nu=0.0)

MEDIA = [
    IDENTITY_MEDIUM,
    REFERENCE_MEDIUM,
    MaterialParams(rho=2.5, E=1.3, nu=-0.4),
    MaterialParams(rho=0.7, E=3.0, nu=0.49),
]


def trace_norm(m):
    return float(np.sum(np.linalg.svd(m, compute_uv=False)))


class TestMaterialParams:
    @pytest.mark.parametrize("kwargs,field", [
        (dict(rho=0.0, E=1.0, nu=0.1), "rho"),
        (dict(rho=-1.0, E=1.0, nu=0.1), "rho"),
        (dict(rho=1.0, E=0.0, nu=0.1), "E"),
        (dict(rho=1.0, E=1.0, nu=0.5), "nu"),
        (dict(rho=1.0, E=1.0, nu=-1.0), "nu"),
    ])
    def test_invalid_named(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            MaterialParams(**kwargs)

    @pytest.mark.parametrize("kwargs,field", [
        (dict(rho=float("inf"), E=1.0, nu=0.1), "rho"),
        (dict(rho=float("nan"), E=1.0, nu=0.1), "rho"),
        (dict(rho=1.0, E=float("inf"), nu=0.1), "E"),
        (dict(rho=1.0, E=float("nan"), nu=0.1), "E"),
        (dict(rho=1.0, E=1.0, nu=float("nan")), "nu"),
    ])
    def test_nonfinite_named(self, kwargs, field):
        with pytest.raises(ValueError, match=f"^{field} must"):
            MaterialParams(**kwargs)

    def test_boundary_values_accepted(self):
        MaterialParams(rho=1e-9, E=1e-9, nu=0.499999)
        MaterialParams(rho=1.0, E=1.0, nu=-0.999999)


class TestCheckCount:
    @pytest.mark.parametrize("value", [0, -1, True, 2.0, "3", np.int64(2), None])
    def test_refused_by_name(self, value):
        message = f"count must be an integer >= 1, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            check_count("count", value)

    def test_accepts_ints_in_range(self):
        check_count("count", 1)
        check_count("count", 10**20)
        check_count("m", 0, 0, 2)
        check_count("m", 2, 0, 2)
        with pytest.raises(ValueError, match=r"^m must be an integer in 0\.\.2, got 3$"):
            check_count("m", 3, 0, 2)


class TestCompliance:
    def test_identity_case(self):
        assert np.array_equal(build_compliance(IDENTITY_MEDIUM), np.eye(6))

    def test_reference_medium_entries(self):
        s = build_compliance(REFERENCE_MEDIUM)
        diag = np.array([1, 1, 1, 1.255, 1.255, 1.255]) / 0.646
        assert np.allclose(np.diag(s), diag, atol=1e-15)
        off = -0.255 / 0.646
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert s[i, j] == pytest.approx(off, abs=1e-15)
        assert np.count_nonzero(s[:3, 3:]) == 0

    def test_near_incompressible_smallest_eigenvalue(self):
        s = build_compliance(MaterialParams(rho=1.0, E=1.0, nu=0.499))
        # independent oracle: numerical eigensolve of the constructed matrix
        assert np.linalg.eigvalsh(s).min() == pytest.approx(0.002, abs=1e-12)

    @pytest.mark.parametrize("params", MEDIA)
    def test_symmetric_positive_definite(self, params):
        s = build_compliance(params)
        assert np.abs(s - s.T).max() < 1e-12
        assert np.linalg.eigvalsh(s).min() > 0

    @pytest.mark.parametrize("params", MEDIA)
    def test_closed_form_spectrum(self, params):
        numeric = np.linalg.eigvalsh(build_compliance(params))
        assert np.abs(numeric - compliance_spectrum(params)).max() < 1e-12


class TestComplianceInverseNorm:
    @pytest.mark.parametrize("params,expected", [
        (IDENTITY_MEDIUM, 1.0),
        (REFERENCE_MEDIUM, 0.646 / 0.49),
        (MaterialParams(rho=1.0, E=2.0, nu=-0.5), 4.0),
    ])
    def test_closed_form(self, params, expected):
        assert compliance_inverse_norm(params) == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("params", MEDIA)
    def test_matches_numerical_inverse_norm(self, params):
        oracle = np.linalg.norm(np.linalg.inv(build_compliance(params)), 2)
        assert compliance_inverse_norm(params) == pytest.approx(oracle, rel=1e-10)


class TestCellMatrices:
    @pytest.mark.parametrize("params", MEDIA)
    def test_coupling_nonzero_structure(self, params):
        # each velocity row couples to exactly one stress column per axis,
        # so 3 ones in the coupling block and 3 in its transpose
        cell = build_cell_matrices(params)
        for a in cell.a_axis:
            nz = a[a != 0]
            assert len(nz) == 6
            assert np.all(nz == 1.0)
            assert np.abs(a - a.T).max() == 0.0
        total = sum(np.count_nonzero(a) for a in cell.a_axis)
        assert total == 18  # nine derivative slots, doubled by symmetry

    def test_identity_medium_gives_identity(self):
        cell = build_cell_matrices(IDENTITY_MEDIUM)
        assert np.allclose(cell.b_cell, np.eye(16), atol=1e-15)
        assert np.allclose(cell.b_inv_sqrt, np.eye(16), atol=1e-12)

    def test_heavy_medium_inverse_sqrt_block(self):
        cell = build_cell_matrices(MaterialParams(rho=4.0, E=1.0, nu=0.0))
        assert np.allclose(cell.b_inv_sqrt[:3, :3], 0.5 * np.eye(3), atol=1e-12)

    @pytest.mark.parametrize("params", MEDIA)
    def test_inverse_sqrt_identity(self, params):
        cell = build_cell_matrices(params)
        residual = cell.b_inv_sqrt @ cell.b_inv_sqrt @ cell.b_cell - np.eye(16)
        assert np.abs(residual).max() < 1e-12
        residual = cell.b_sqrt @ cell.b_inv_sqrt - np.eye(16)
        assert np.abs(residual).max() < 1e-12

    @pytest.mark.parametrize("params", MEDIA)
    def test_hermiticity(self, params):
        cell = build_cell_matrices(params)
        for m in (build_compliance(params), cell.b_cell, *cell.a_axis):
            assert np.abs(m - m.T).max() < 1e-12
        for axis in (1, 2, 3):
            m = axis_hamiltonian_cell(cell, axis)
            assert np.abs(m - m.T).max() < 1e-12


class TestAxisEigenSystem:
    @pytest.mark.parametrize("axis", [1, 2, 3])
    def test_identity_medium_spectrum(self, axis):
        eig = eigendecompose_axis(build_cell_matrices(IDENTITY_MEDIUM), axis)
        lam = eig.lambdas
        assert np.count_nonzero(np.abs(lam) < 1e-12) == 10
        assert np.abs(np.sort(lam) + np.sort(-lam)[::-1]).max() < 1e-10  # +/- pairing

    @pytest.mark.parametrize("params", MEDIA)
    @pytest.mark.parametrize("axis", [1, 2, 3])
    def test_diagonalization(self, params, axis):
        cell = build_cell_matrices(params)
        eig = eigendecompose_axis(cell, axis)
        assert np.all(np.diff(eig.lambdas) >= 0)
        assert np.abs(eig.v.T @ eig.v - np.eye(16)).max() < 1e-12
        m = axis_hamiltonian_cell(cell, axis)
        recon = eig.v.T @ m @ eig.v
        assert np.abs(recon - np.diag(eig.lambdas)).max() < 1e-10
        assert np.count_nonzero(np.abs(eig.lambdas) < 1e-12) >= 7
        assert np.sum(eig.lambdas) == pytest.approx(0.0, abs=1e-12)  # traceless

    @pytest.mark.parametrize("params", MEDIA)
    @pytest.mark.parametrize("axis", [1, 2, 3])
    def test_sign_convention(self, params, axis):
        eig = eigendecompose_axis(build_cell_matrices(params), axis)
        for col in eig.v.T:
            assert col[np.argmax(np.abs(col))] > 0

    @pytest.mark.parametrize("params", MEDIA)
    def test_projector_resolution(self, params):
        for axis in (1, 2, 3):
            eig = eigendecompose_axis(build_cell_matrices(params), axis)
            total = sum(np.outer(eig.v[:, j], eig.v[:, j]) for j in range(16))
            assert np.abs(total - np.eye(16)).max() < 1e-12

    @pytest.mark.parametrize("params", MEDIA)
    @pytest.mark.parametrize("axis", [1, 2, 3])
    def test_norm_and_trace_norm_bounds(self, params, axis):
        cell = build_cell_matrices(params)
        m = axis_hamiltonian_cell(cell, axis)
        s_inv_sqrt_norm = np.sqrt(compliance_inverse_norm(params))
        scale = s_inv_sqrt_norm / np.sqrt(params.rho)
        assert np.linalg.norm(m, 2) <= scale + 1e-12
        # stated with equality for the trace norm but proven as an inequality;
        # we check the inequality and the measured ratio stays within it
        assert trace_norm(m) <= 6 * scale + 1e-10
        assert trace_norm(m @ m) <= 6 * compliance_inverse_norm(params) / params.rho + 1e-10

    def test_eigenvalue_sum_matches_trace_norm(self):
        cell = build_cell_matrices(REFERENCE_MEDIUM)
        for axis in (1, 2, 3):
            eig = eigendecompose_axis(cell, axis)
            m = axis_hamiltonian_cell(cell, axis)
            assert np.sum(np.abs(eig.lambdas)) == pytest.approx(trace_norm(m), abs=1e-10)


class TestBlockNormIdentities:
    def test_random_block_matrices(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            g = rng.standard_normal((3, 6))
            f = np.zeros((9, 9))
            f[:3, 3:] = g
            f[3:, :3] = g.T
            assert np.linalg.norm(f, 2) <= max(np.linalg.norm(g, 2),
                                               np.linalg.norm(g.T, 2)) + 1e-10
            assert trace_norm(f) == pytest.approx(trace_norm(g) + trace_norm(g.T),
                                                  abs=1e-10)
            assert trace_norm(f @ f) == pytest.approx(2 * trace_norm(g.T @ g), abs=1e-10)


class TestDegenerateClusters:
    def test_padding_zeros_form_one_cluster(self):
        eig = eigendecompose_axis(build_cell_matrices(REFERENCE_MEDIUM), 1)
        clusters = degenerate_clusters(eig.lambdas)
        sizes = {eig.lambdas[a]: b - a for a, b in clusters
                 if abs(eig.lambdas[a]) < 1e-12}
        assert list(sizes.values()) == [10]

    def test_isotropic_shear_degeneracy(self):
        # the transverse eigenvalues come in multiplicity-2 clusters
        eig = eigendecompose_axis(build_cell_matrices(REFERENCE_MEDIUM), 1)
        clusters = degenerate_clusters(eig.lambdas)
        sizes = sorted(b - a for a, b in clusters)
        assert sizes == [1, 1, 2, 2, 10]

    def test_axis_validation(self):
        with pytest.raises(ValueError, match="axis"):
            axis_coupling(4)
