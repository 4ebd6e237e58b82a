"""Ladder operators of the central-difference stencil on a 2^n grid.

The grid derivative (q_{j+1} - q_{j-1}) / 2h with ghost values q_{-1} = q_N = 0
splits into n anti-symmetric ladder terms S_k, k = 1..n.  S_k couples exactly
the index pairs (j-1, j) with j = 2^(k-1) mod 2^k, acting as [[0, 1], [-1, 0]]
on each pair; every pair of adjacent grid indices is covered by exactly one k.
Application is index arithmetic on arrays (apply_pair_rotation, apply_d_axis);
sparse materialization exists only for test references.

Register layout used throughout the package: the spatial index of a 3D grid
point is j = j_x * N^2 + j_y * N + j_z (axis 1 = x most significant), and
within one axis the level-k ladder acts on the k lowest bits of that axis
index.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .media import check_count, check_real

#: Largest n at which sparse 3D operators (2^(3n) rows per axis lift, and
#: the 2^(3n+4)-row generator built from them) are materialized.
MATERIALIZE_MAX_N = 4


@dataclass(frozen=True)
class LatticeShape:
    """Grid resolution (n qubits per axis, N = 2^n points) and spacing h; validated."""

    n: int
    h: float

    def __post_init__(self):
        check_count("n", self.n)
        check_real("h", self.h)

    @property
    def points(self) -> int:
        return 1 << self.n


def _pair_indices(k: int, points: int) -> np.ndarray:
    """Upper members j of the (j-1, j) pairs coupled by level k."""
    return np.arange(1 << (k - 1), points, 1 << k)


def apply_d_cell(shape: LatticeShape, v: np.ndarray) -> np.ndarray:
    """Apply the 1D central difference with ghost zeros, (q_{j+1}-q_{j-1})/2h, along v's
    first axis; the output keeps v's memory layout.  The package's one stencil."""
    if v.shape[0] != shape.points:
        raise ValueError(f"vector length {v.shape[0]} != 2^{shape.n}")
    out = np.zeros_like(v, dtype=np.result_type(v.dtype, float))
    out[:-1] = v[1:]
    out[1:] -= v[:-1]
    out /= 2 * shape.h
    return out


def apply_pair_rotation(arr: np.ndarray, axis: int, k: int, cos_t, sin_t) -> None:
    """Rotate each (j-1, j) pair of level k along one array axis, in place.

    Realizes exp(theta * S_k) on that axis for cos_t = cos(theta),
    sin_t = sin(theta): new[j-1] = c*old[j-1] + s*old[j].  cos_t and sin_t
    may be arrays broadcasting against arr with that axis moved last, which
    gives each slice its own angle.  The pairs are strided views of arr.
    """
    points = arr.shape[axis]
    check_count("level k", k, 1, (points - 1).bit_length())  # log2(N) levels on a 2^n axis
    view = np.moveaxis(arr, axis, -1)
    half = 1 << (k - 1)
    a = view[..., half - 1:-1:2 * half]
    b = view[..., half::2 * half]
    new_a = cos_t * a + sin_t * b
    b[...] = -sin_t * a + cos_t * b
    a[...] = new_a


def apply_d_axis(axis: int, shape: LatticeShape, grid: np.ndarray) -> np.ndarray:
    """Central difference along one axis of an array of grid shape (..., N, N, N).

    The three trailing axes are the spatial grid; leading axes (components,
    batches) are carried through untouched.  apply_d_cell runs on the chosen
    axis moved to the front.
    """
    nd_axis = grid.ndim - 3 + (axis - 1)
    return np.moveaxis(apply_d_cell(shape, np.moveaxis(grid, nd_axis, 0)), 0, nd_axis)


def _check_materialize_cap(n: int) -> None:
    if n > MATERIALIZE_MAX_N:
        raise ValueError(f"materializing 3D operators for n={n} exceeds the cap "
                         f"n<={MATERIALIZE_MAX_N}")


def s_cell_matrix(k: int, n: int) -> sp.csr_matrix:
    """Sparse 2^n x 2^n matrix of the 1D level-k ladder operator."""
    check_count("level k", k, 1, n)
    points = 1 << n
    hi = _pair_indices(k, points)
    rows = np.concatenate([hi - 1, hi])
    cols = np.concatenate([hi, hi - 1])
    data = np.concatenate([np.ones(len(hi)), -np.ones(len(hi))])
    return sp.csr_matrix((data, (rows, cols)), shape=(points, points))


def d_cell_matrix(shape: LatticeShape) -> sp.csr_matrix:
    """Sparse 1D central-difference matrix with ghost zeros."""
    points = shape.points
    off = np.ones(points - 1) / (2 * shape.h)
    return sp.diags([off, -off], [1, -1], format="csr")


def _lift(axis: int, cell, shape: LatticeShape) -> sp.csr_matrix:
    """Sparse 2^{3n} x 2^{3n} lift of the 1D operator cell() onto the given axis.

    cell runs after the checks, so a grid past the cap allocates nothing.
    """
    check_count("axis", axis, 1, 3)
    _check_materialize_cap(shape.n)
    points = shape.points
    left = sp.identity(points ** (axis - 1), format="csr")
    right = sp.identity(points ** (3 - axis), format="csr")
    out = sp.kron(sp.kron(left, cell()), right, format="csr")
    out.eliminate_zeros()  # kron with identities stores explicit zeros
    return out


def s_axis_matrix(axis: int, k: int, shape: LatticeShape) -> sp.csr_matrix:
    """Sparse 2^{3n} x 2^{3n} lift of the level-k ladder S_k onto the given axis."""
    return _lift(axis, lambda: s_cell_matrix(k, shape.n), shape)


def d_axis_matrix(axis: int, shape: LatticeShape) -> sp.csr_matrix:
    """Sparse 2^{3n} x 2^{3n} central difference along the given axis."""
    return _lift(axis, lambda: d_cell_matrix(shape), shape)
