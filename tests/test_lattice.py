import numpy as np
import pytest

from elastoq.lattice import (
    LatticeShape,
    apply_d_axis,
    apply_d_cell,
    apply_pair_rotation,
    d_axis_matrix,
    d_cell_matrix,
    s_axis_matrix,
    s_cell_matrix,
)
from elastoq.media import MaterialParams


def random_complex(rng, size):
    v = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return v / np.linalg.norm(v)


class TestShapeValidation:
    def test_rejects_bad_n(self):
        with pytest.raises(ValueError, match="n"):
            LatticeShape(n=0, h=1.0)

    def test_rejects_bad_h(self):
        with pytest.raises(ValueError, match="h"):
            LatticeShape(n=2, h=0.0)

    @pytest.mark.parametrize("h", [float("inf"), float("nan")])
    def test_rejects_nonfinite_h(self, h):
        with pytest.raises(ValueError, match="h must be a real number in"):
            LatticeShape(n=2, h=h)

    def test_points(self):
        assert LatticeShape(n=3, h=1.0).points == 8


@pytest.mark.parametrize("build,args,field", [
    (LatticeShape, (True, 1.0), "n"),
    (LatticeShape, (1, True), "h"),
    (LatticeShape, (1, "1"), "h"),
    (LatticeShape, (1, None), "h"),
    (MaterialParams, (True, 1.0, 0.25), "rho"),
    (MaterialParams, (1.0, 1.0, False), "nu"),
])
def test_value_types_refuse_bool_and_non_real_by_field(build, args, field):
    with pytest.raises(ValueError, match=f"^{field} must"):
        build(*args)


class TestLadderCell:
    def test_single_qubit_action(self):
        out = s_cell_matrix(1, 1) @ np.array([1.0, 0.0])
        assert np.array_equal(out, [0.0, -1.0])

    def test_two_qubit_low_level(self):
        e0 = np.zeros(4)
        e0[0] = 1.0
        out = s_cell_matrix(1, 2) @ e0
        expected = np.zeros(4)
        expected[1] = -1.0
        assert np.array_equal(out, expected)

    def test_level_out_of_range(self):
        with pytest.raises(ValueError, match="level"):
            s_cell_matrix(3, 2)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_norm_at_most_one(self, n):
        rng = np.random.default_rng(n)
        for k in range(1, n + 1):
            v = random_complex(rng, 2**n)
            assert np.linalg.norm(s_cell_matrix(k, n) @ v) <= 1.0 + 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_tensor_definition(self, n):
        # oracle: build S_k from its kron structure directly
        s01 = np.array([[0.0, 1.0], [0.0, 0.0]])
        s10 = s01.T
        eye = np.eye(2)
        for k in range(1, n + 1):
            mats = [eye] * (n - k) + [s01] + [s10] * (k - 1)
            dense = mats[0]
            for m in mats[1:]:
                dense = np.kron(dense, m)
            mats = [eye] * (n - k) + [s10] + [s01] * (k - 1)
            second = mats[0]
            for m in mats[1:]:
                second = np.kron(second, m)
            dense = dense - second
            assert np.abs(s_cell_matrix(k, n).toarray() - dense).max() == 0.0


class TestDifferenceCell:
    def test_n1_example(self):
        shape = LatticeShape(n=1, h=1.0)
        out = apply_d_cell(shape, np.array([1.0, 0.0]))
        assert np.allclose(out, [0.0, -0.5], atol=1e-15)

    def test_n2_example(self):
        shape = LatticeShape(n=2, h=0.5)
        out = apply_d_cell(shape, np.array([0.0, 1.0, 0.0, 0.0]))
        assert np.allclose(out, [1.0, 0.0, -1.0, 0.0], atol=1e-15)

    def test_constant_vector_interior_vanishes(self):
        shape = LatticeShape(n=3, h=0.7)
        out = apply_d_cell(shape, np.ones(8))
        assert np.abs(out[1:-1]).max() == 0.0
        assert out[0] != 0.0 and out[-1] != 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            apply_d_cell(LatticeShape(n=2, h=1.0), np.zeros(5))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_mpo_sum_consistency(self, n):
        shape = LatticeShape(n=n, h=0.3)
        rng = np.random.default_rng(n)
        for _ in range(5):
            v = random_complex(rng, 2**n)
            total = sum(s_cell_matrix(k, n) @ v for k in range(1, n + 1)) / (2 * shape.h)
            assert np.abs(total - apply_d_cell(shape, v)).max() < 1e-12
        # the same identity D = sum_k S_k / 2h on the matrices themselves
        ladder_sum = sum(s_cell_matrix(k, n) for k in range(1, n + 1)) / (2 * shape.h)
        assert np.abs((ladder_sum - d_cell_matrix(shape)).toarray()).max() < 1e-12


class TestAxisLift:
    def test_product_state_factorization(self):
        shape = LatticeShape(n=2, h=1.0)
        rng = np.random.default_rng(0)
        a, b, c = (random_complex(rng, 4) for _ in range(3))
        v = np.kron(np.kron(a, b), c)
        out = s_axis_matrix(2, 1, shape) @ v
        expected = np.kron(np.kron(a, s_cell_matrix(1, 2) @ b), c)
        assert np.abs(out - expected).max() < 1e-12

    def test_delta_stencil_along_x(self):
        # a delta at j_x contributes +1/2h to the output at j_x - 1 and
        # -1/2h at j_x + 1 (the stencil reads neighbors, not writes them)
        shape = LatticeShape(n=2, h=0.5)
        grid = np.zeros((4, 4, 4))
        grid[2, 1, 3] = 1.0
        out = apply_d_axis(1, shape, grid)
        expected = np.zeros((4, 4, 4))
        expected[1, 1, 3] = 1.0
        expected[3, 1, 3] = -1.0
        assert np.abs(out - expected).max() < 1e-15

    @pytest.mark.parametrize("axis", [1, 2, 3])
    def test_ladder_sum_norm_at_most_two(self, axis):
        shape = LatticeShape(n=3, h=1.0)
        rng = np.random.default_rng(axis)
        for _ in range(5):
            v = random_complex(rng, 8**3)
            total = sum(s_axis_matrix(axis, k, shape) @ v
                        for k in range(1, 4))
            assert np.linalg.norm(total) <= 2.0 + 1e-12

    def test_validation(self):
        shape = LatticeShape(n=2, h=1.0)
        with pytest.raises(ValueError, match="axis"):
            s_axis_matrix(4, 1, shape)
        with pytest.raises(ValueError, match="axis"):
            d_axis_matrix(0, shape)
        with pytest.raises(ValueError, match="level"):
            s_axis_matrix(1, 3, shape)


class TestMaterialization:
    def test_agrees_with_matrix_free(self):
        shape = LatticeShape(n=2, h=0.4)
        rng = np.random.default_rng(5)
        for axis in (1, 2, 3):
            for k in (1, 2):
                mat = s_axis_matrix(axis, k, shape)
                cell = s_cell_matrix(k, 2).toarray()
                for _ in range(20):
                    v = random_complex(rng, 64)
                    # the 1D cell operator contracted along one grid axis
                    lifted = np.moveaxis(
                        np.tensordot(cell, v.reshape(4, 4, 4), axes=(1, axis - 1)),
                        0, axis - 1)
                    assert np.abs(mat @ v - lifted.reshape(-1)).max() < 1e-12
            dmat = d_axis_matrix(axis, shape)
            for _ in range(5):
                v = random_complex(rng, 64)
                grid = v.reshape(4, 4, 4)
                assert np.abs(dmat @ v - apply_d_axis(axis, shape, grid).reshape(-1)).max() < 1e-12

    def test_d_axis_n1_structure(self):
        shape = LatticeShape(n=1, h=0.25)
        mat = d_axis_matrix(1, shape)
        assert mat.shape == (8, 8)
        assert mat.nnz == 8
        assert np.all(np.abs(mat.data) == 1 / (2 * shape.h))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_d_cell_antisymmetric_with_expected_nnz(self, n):
        mat = d_cell_matrix(LatticeShape(n=n, h=1.0))
        assert (mat + mat.T).nnz == 0
        assert mat.nnz == 2 * (2**n - 1)

    def test_axis_operators_anti_hermitian(self):
        shape = LatticeShape(n=2, h=1.0)
        for axis in (1, 2, 3):
            d = d_axis_matrix(axis, shape)
            assert (d + d.getH()).nnz == 0
            for k in (1, 2):
                s = s_axis_matrix(axis, k, shape)
                assert (s + s.getH()).nnz == 0

    def test_cap_enforced(self):
        with pytest.raises(ValueError, match="cap"):
            d_axis_matrix(1, LatticeShape(n=6, h=1.0))


class TestNormFacts:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_difference_norm_bounded(self, n):
        shape = LatticeShape(n=n, h=0.5)
        norm = np.linalg.norm(d_cell_matrix(shape).toarray(), 2)
        assert norm <= 1 / shape.h + 1e-9

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("h", [0.5, 1.0])
    def test_difference_norm_closed_form(self, n, h):
        shape = LatticeShape(n=n, h=h)
        closed = np.cos(np.pi / (shape.points + 1)) / h
        assert abs(np.linalg.norm(d_cell_matrix(shape).toarray(), 2) - closed) <= 1e-12

    @pytest.mark.parametrize("axis", [1, 2, 3])
    def test_lifted_difference_norm_bounded(self, axis):
        shape = LatticeShape(n=2, h=0.25)
        norm = np.linalg.norm(d_axis_matrix(axis, shape).toarray(), 2)
        assert norm <= 1 / shape.h + 1e-9

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_ladder_norm_one(self, n):
        for k in range(1, n + 1):
            assert np.linalg.norm(s_cell_matrix(k, n).toarray(), 2) == pytest.approx(1.0, abs=1e-9)


class TestCommutatorFacts:
    @pytest.mark.parametrize("n", [3, 4])
    def test_same_axis_commutators(self, n):
        mats = {k: s_cell_matrix(k, n) for k in range(1, n + 1)}
        for k in range(2, n + 1):
            for m in range(k + 1, n + 1):
                comm = mats[k] @ mats[m] - mats[m] @ mats[k]
                assert comm.nnz == 0  # levels above one commute exactly
        for m in range(2, n + 1):
            comm = mats[1] @ mats[m] - mats[m] @ mats[1]
            assert np.linalg.norm(comm.toarray(), 2) == pytest.approx(1.0, abs=1e-12)

    def test_cross_axis_commute_exactly(self):
        shape = LatticeShape(n=2, h=1.0)
        s1 = s_axis_matrix(1, 2, shape)
        s2 = s_axis_matrix(2, 1, shape)
        assert (s1 @ s2 - s2 @ s1).nnz == 0


class TestPairRotation:
    def test_matches_expm(self):
        import scipy.linalg
        n = 3
        rng = np.random.default_rng(11)
        for k in (1, 2, 3):
            theta = rng.uniform(-1, 1)
            rot = scipy.linalg.expm(theta * s_cell_matrix(k, n).toarray())
            v = random_complex(rng, 8)
            arr = v.copy().reshape(8)
            apply_pair_rotation(arr[None, :], 1, k, np.cos(theta), np.sin(theta))
            assert np.abs(arr - rot @ v).max() < 1e-12

    def test_per_slice_angles(self):
        # array cos/sin give each leading slice its own angle
        import scipy.linalg
        n, k = 3, 2
        rng = np.random.default_rng(12)
        thetas = rng.uniform(-1, 1, size=4)
        arr = rng.standard_normal((4, 8))
        expected = np.stack([scipy.linalg.expm(t * s_cell_matrix(k, n).toarray()) @ row
                             for t, row in zip(thetas, arr)])
        apply_pair_rotation(arr, 1, k, np.cos(thetas)[:, None], np.sin(thetas)[:, None])
        assert np.abs(arr - expected).max() < 1e-12

    def test_slices_match_gathered_pairs(self):
        # the strided-slice pairs against the gather/scatter form, bit for bit,
        # for every level of every axis, with scalar and per-slice angles
        rng = np.random.default_rng(13)
        base = rng.standard_normal((4, 8, 16))
        for axis in range(3):
            for k in range(1, base.shape[axis].bit_length()):
                theta = rng.uniform(-1, 1, size=np.moveaxis(base, axis, -1).shape[:-1])
                for cos_t, sin_t in ((np.cos(theta[(0,) * theta.ndim]),
                                      np.sin(theta[(0,) * theta.ndim])),
                                     (np.cos(theta)[..., None], np.sin(theta)[..., None])):
                    arr, expected = base.copy(), base.copy()
                    apply_pair_rotation(arr, axis, k, cos_t, sin_t)
                    _gathered_rotation(expected, axis, k, cos_t, sin_t)
                    assert np.array_equal(arr, expected)

    def test_updates_a_moved_view_in_place(self):
        rng = np.random.default_rng(14)
        base = rng.standard_normal((8, 6, 4))
        view = np.moveaxis(base, 0, -1)  # non-contiguous, rotated axis last
        assert not view.flags.c_contiguous
        expected = view.copy()
        _gathered_rotation(expected, 2, 2, np.cos(0.3), np.sin(0.3))
        apply_pair_rotation(view, 2, 2, np.cos(0.3), np.sin(0.3))
        assert np.array_equal(np.moveaxis(base, 0, -1), expected)

    @pytest.mark.parametrize("k", [0, 4])
    def test_rejects_level_outside_axis(self, k):
        arr = np.arange(8.0)[None, :]
        with pytest.raises(ValueError, match=f"level k must be an integer in 1..3, got {k}"):
            apply_pair_rotation(arr, 1, k, 1.0, 0.0)
        assert np.array_equal(arr[0], np.arange(8.0))


def _gathered_rotation(arr, axis, k, cos_t, sin_t):
    """Pair rotation by fancy-index gather and scatter (reference form)."""
    view = np.moveaxis(arr, axis, -1)
    hi = np.arange(1 << (k - 1), arr.shape[axis], 1 << k)
    lo = hi - 1
    a = view[..., lo]
    b = view[..., hi]
    view[..., lo] = cos_t * a + sin_t * b
    view[..., hi] = -sin_t * a + cos_t * b
