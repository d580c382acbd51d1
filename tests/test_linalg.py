"""Dense-matrix primitive, and the reference elimination, against numpy as
the independent reference."""

import random

import numpy as np
import pytest

from conftest import SingularMatrix, gauss_jordan_full, inverse
from fixedgain import Matrix
from fixedgain.errors import DimensionMismatch


def _random_matrix(rng, n, m=None):
    m = n if m is None else m
    return [[rng.uniform(-2.0, 2.0) for _ in range(m)] for _ in range(n)]


def test_construction_and_access():
    m = Matrix([[1, 2], [3, 4]])
    assert (m.rows, m.cols) == (2, 2)
    assert m[1, 0] == 3.0
    assert m.row(0) == (1.0, 2.0)
    assert m.col(1) == (2.0, 4.0)
    assert m.flat() == (1.0, 2.0, 3.0, 4.0)


def test_ragged_rows_rejected():
    with pytest.raises(DimensionMismatch):
        Matrix([[1, 2], [3]])


def test_empty_rejected():
    with pytest.raises(DimensionMismatch):
        Matrix([])
    with pytest.raises(DimensionMismatch):
        Matrix([[]])


def test_size_cap_enforced():
    big = [[0.0] * 9 for _ in range(9)]
    with pytest.raises(DimensionMismatch):
        Matrix(big)


def test_identity_row_column_helpers():
    assert Matrix.identity(2).data == ((1.0, 0.0), (0.0, 1.0))
    assert Matrix.row_vector([1, 2, 3]).data == ((1.0, 2.0, 3.0),)
    assert Matrix.column([1, 2]).data == ((1.0,), (2.0,))


def test_matmul_matches_numpy():
    rng = random.Random(11)
    for _ in range(20):
        n, k, m = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)
        a = _random_matrix(rng, n, k)
        b = _random_matrix(rng, k, m)
        got = (Matrix(a) @ Matrix(b)).data
        want = np.array(a) @ np.array(b)
        assert float(np.max(np.abs(np.array(got) - want))) < 1e-13


def test_matmul_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        Matrix([[1, 2]]) @ Matrix([[1, 2]])


def test_add_sub_scaled():
    a = Matrix([[1, 2], [3, 4]])
    b = Matrix([[5, 6], [7, 8]])
    assert (b - a).data == ((4.0, 4.0), (4.0, 4.0))
    with pytest.raises(DimensionMismatch):
        a - Matrix([[1, 2]])


def test_inverse_matches_numpy():
    rng = random.Random(22)
    checked = 0
    while checked < 20:
        n = rng.randint(1, 6)
        a = _random_matrix(rng, n)
        if abs(np.linalg.det(np.array(a))) < 1e-3:
            continue
        checked += 1
        got = np.array(inverse(Matrix(a)).data)
        want = np.linalg.inv(np.array(a))
        scale = float(np.max(np.abs(want))) + 1.0
        assert float(np.max(np.abs(got - want))) < 1e-10 * scale


def test_inverse_roundtrip_to_identity():
    rng = random.Random(33)
    a = Matrix(_random_matrix(rng, 4))
    prod = np.array((a @ inverse(a)).data)
    assert float(np.max(np.abs(prod - np.eye(4)))) < 1e-10


def test_singular_matrix_raises():
    with pytest.raises(SingularMatrix):
        inverse(Matrix([[1.0, 2.0], [2.0, 4.0]]))


def test_near_singular_relative_pivot():
    # Uniform scaling must not change singularity detection: the pivot test
    # is relative to the row magnitude, not absolute.
    with pytest.raises(SingularMatrix):
        inverse(Matrix([[1e-200, 2e-200], [2e-200, 4e-200]]))
    tiny = Matrix([[1e-150, 0.0], [0.0, 1e-150]])
    got = inverse(tiny)
    assert got[0, 0] == pytest.approx(1e150, rel=1e-12)


def test_inverse_of_non_square_rejected():
    with pytest.raises(DimensionMismatch):
        inverse(Matrix([[1, 2]]))


def test_solve_is_the_inverse_column_for_column():
    # Each right-hand column is eliminated with the same pivots and factors,
    # so the reference elimination against a unit column gives that column
    # of the inverse bit for bit.
    rng = random.Random(34)
    for n in range(1, 9):
        a = Matrix(_random_matrix(rng, n))
        inv = inverse(a)
        for j in range(n):
            unit = Matrix.column([1.0 if i == j else 0.0 for i in range(n)])
            assert gauss_jordan_full(a, unit).col(0) == inv.col(j)
    b = Matrix(_random_matrix(rng, 3, 2))
    x = gauss_jordan_full(Matrix(_random_matrix(rng, 3)), b)
    assert (x.rows, x.cols) == (3, 2)
