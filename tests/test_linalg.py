"""The realizations' matrix carrier, and the reference product and
elimination, against numpy as the independent reference."""

import os
import random
import subprocess
import sys
from functools import reduce
from operator import add, mul

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import fixedgain
from conftest import SingularMatrix, gauss_jordan_full, inverse, matmul
from fixedgain import Matrix
from fixedgain.errors import DimensionMismatch
from fixedgain.linalg import _dot


def _random_matrix(rng, n, m=None):
    m = n if m is None else m
    return [[rng.uniform(-2.0, 2.0) for _ in range(m)] for _ in range(n)]


def test_construction_and_access():
    m = Matrix([[1, 2], [3, 4]])
    assert len(m.data) == 2
    assert m.data[1][0] == 3.0
    assert m.row(0) == (1.0, 2.0)
    assert m.col(1) == (2.0, 4.0)
    assert m.data == ((1.0, 2.0), (3.0, 4.0))


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


def test_matrix_refuses_arithmetic():
    # A Matrix only carries a realization's rows: the package computes on the
    # row tuples, and the tests multiply by conftest's matmul.  Its entries are
    # read through ``data``: ``m[i, j]`` and ``rows`` are gone too.
    a = Matrix([[1, 2], [3, 4]])
    with pytest.raises(TypeError):
        a @ a
    with pytest.raises(TypeError):
        a - a
    with pytest.raises(TypeError):
        a[0, 0]
    assert not [name for name in ("identity", "row_vector", "column", "flat", "cols", "rows")
                if hasattr(Matrix, name)]


def test_matmul_matches_numpy():
    rng = random.Random(11)
    for _ in range(20):
        n, k, m = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)
        a = _random_matrix(rng, n, k)
        b = _random_matrix(rng, k, m)
        got = matmul(a, b)
        want = np.array(a) @ np.array(b)
        assert float(np.max(np.abs(np.array(got) - want))) < 1e-13


def test_inverse_matches_numpy():
    rng = random.Random(22)
    checked = 0
    while checked < 20:
        n = rng.randint(1, 6)
        a = _random_matrix(rng, n)
        if abs(np.linalg.det(np.array(a))) < 1e-3:
            continue
        checked += 1
        got = np.array(inverse(a))
        want = np.linalg.inv(np.array(a))
        scale = float(np.max(np.abs(want))) + 1.0
        assert float(np.max(np.abs(got - want))) < 1e-10 * scale


def test_inverse_roundtrip_to_identity():
    rng = random.Random(33)
    a = _random_matrix(rng, 4)
    prod = np.array(matmul(a, inverse(a)))
    assert float(np.max(np.abs(prod - np.eye(4)))) < 1e-10


def test_singular_matrix_raises():
    with pytest.raises(SingularMatrix):
        inverse([[1.0, 2.0], [2.0, 4.0]])


def test_near_singular_relative_pivot():
    # Uniform scaling must not change singularity detection: the pivot test
    # is relative to the row magnitude, not absolute.
    with pytest.raises(SingularMatrix):
        inverse([[1e-200, 2e-200], [2e-200, 4e-200]])
    tiny = [[1e-150, 0.0], [0.0, 1e-150]]
    got = inverse(tiny)
    assert got[0][0] == pytest.approx(1e150, rel=1e-12)


def test_inverse_of_non_square_rejected():
    with pytest.raises(DimensionMismatch):
        inverse([[1, 2]])


def test_solve_is_the_inverse_column_for_column():
    # Each right-hand column is eliminated with the same pivots and factors,
    # so the reference elimination against a unit column gives that column
    # of the inverse bit for bit.
    rng = random.Random(34)
    for n in range(1, 9):
        a = _random_matrix(rng, n)
        inv = inverse(a)
        for j in range(n):
            unit = [[1.0 if i == j else 0.0] for i in range(n)]
            assert [v for v, in gauss_jordan_full(a, unit)] == [row[j] for row in inv]
    b = _random_matrix(rng, 3, 2)
    x = gauss_jordan_full(_random_matrix(rng, 3), b)
    assert (len(x), len(x[0])) == (3, 2)


# --- the compiled dot product --------------------------------------------------

# nan, the infinities, signed zeros, subnormals and the extremes whose
# products overflow to inf (and inf - inf to nan) or underflow to zero.
EDGE_FLOATS = (float("nan"), float("inf"), float("-inf"), 0.0, -0.0, 5e-324, -5e-324,
               2.2250738585072014e-308, 1.7976931348623157e308, -1e308, 1e200, -1e-200)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 8).flatmap(lambda k: st.lists(
    st.tuples(*[st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())] * 2),
    min_size=k, max_size=k)))
@example([(-0.0, 5.0)])  # 0.0 + -0.0 is 0.0: the sum starts from 0.0
@example([(1.0, 1.0), (1e-16, 1.0), (-1.0, 1.0)])  # 0.0 left to right, 1.1e-16 right to left
@example([(1e308, 10.0), (5e-324, 0.5), (-1e308, 10.0)])  # inf + -inf: nan
def test_compiled_dot_is_the_left_to_right_sum(pairs):
    # _dot(k) is the package's summation rule written out: the same terms,
    # in the same order, from the same 0.0, so repr agrees bit for bit.
    a, b = map(list, zip(*pairs))
    assert repr(_dot(len(a))(a, b)) == repr(reduce(add, map(mul, a, b), 0.0))
    assert repr(_dot(len(a))(tuple(a), b)) == repr(reduce(add, map(mul, a, b), 0.0))


@pytest.mark.parametrize("k", [0, 9, -1, 100_000])
def test_compiled_dot_refuses_a_length_outside_the_order_cap(k):
    with pytest.raises(DimensionMismatch, match=f"^no dot product of length {k}: the cap is 8$"):
        _dot(k)


def test_compiled_dot_refuses_a_sequence_of_another_length():
    dot = _dot(3)
    for a, b in (([1.0] * 3, [1.0] * 2), ([1.0] * 3, [1.0] * 4), ([1.0] * 2, [1.0] * 3),
                 ([1.0] * 3, [1.0] * 100_000)):
        with pytest.raises(ValueError, match="unpack"):
            dot(a, b)


def test_importing_the_package_compiles_no_dot_product():
    code = ("import fixedgain, fixedgain.cli; from fixedgain import linalg; "
            "print(linalg._dot.cache_info().currsize)")
    root = os.path.dirname(os.path.dirname(fixedgain.__file__))
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": path})
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\n", "")
