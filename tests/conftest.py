"""Shared constants, closed-form oracles and helpers for the test suite.

The frozen numbers here are the standing reference points the suite checks
against: a third-order design whose every intermediate is known in closed
form, the second-order noise-gain benchmark grid, and the matching
optimal-lag row.  Beside them sit the closed forms they follow from (gains
for orders 1-3, the order-2 transfer function and noise gain), which the
pipeline must reproduce, and exact Fraction solves of the noise gain of a
coefficient pair and of a realization's matrices, the integer step-down
without its exact divisions, the exact Cayley-Hamilton numerator of a
realization, the exact transfer pair of a design's loop and the exact
impulse-response moments of a coefficient pair.  Three float
routes the package no longer takes are oracles here too: the Lyapunov
doubling of a realization's noise gain, the characteristic polynomial read
off the PCF rotation of the loop, and the multiplicity residual of a
polynomial at the requested poles.  So are the routes by which the process
model once built its rows: the whole transition, the measurement row times
it, and the complex product for (z - 1)**K.  So is a full-width Gauss-Jordan
elimination, the reference for the one-vector elimination the observable
form runs, and the inverse it gives against the identity.  So is the matrix
product ``Matrix @`` once took, summed left to right (:func:`matmul`), and
Horner's rule from the leading coefficient (:func:`horner`), whose order of
operations the frequency response keeps.
Unit tests check them piecewise; the acceptance module re-checks them end to
end at its own tolerances.
"""

from __future__ import annotations

import argparse
import cmath
import math
from fractions import Fraction
from functools import reduce
from operator import add, mul, sub

import pytest
from hypothesis import strategies as st

from fixedgain import (
    Matrix,
    ObserverSpec,
    ProcessModel,
    design,
    extract_kinematic,
    initialize_state,
    read_output,
    step,
)
from fixedgain.errors import (
    DimensionMismatch,
    FixedGainError,
    NonConvergent,
    NonFiniteValue,
    NonPositiveSamplingPeriod,
    UnstablePoles,
)
from fixedgain import _grammar, cli
from fixedgain.linalg import identity_rows
from fixedgain.poly import from_roots
from fixedgain.realize import pcf_transform

# --- the reference third-order design: K=3, Ts=0.04, repeated pole 0.8,
#     read-out lagged two samples ---------------------------------------

REF_ORDER = 3
REF_TS = 0.04
REF_POLE = 0.8
REF_LAG = 2.0

# Gain column in companion coordinates and in kinematic coordinates.
REF_GAIN_PCF = (0.488, -1.080, 0.600)
REF_GAIN_KIN = (0.4880, 2.7000, 5.0000)

# Observer characteristic polynomial (z - 0.8)**3, descending powers.
REF_CHAR = (1.0, -2.400, 1.920, -0.512)

# Closed-loop transition in kinematic coordinates, exact rational entries.
REF_CLOSED_LOOP = (
    (0.512, 0.02048, 0.0004096),
    (-2.7, 0.892, 0.03784),
    (-5.0, -0.2, 0.996),
)
# Same matrix rounded to four decimals (how the constants are usually quoted).
REF_CLOSED_LOOP_4DP = (
    (0.5120, 0.0205, 0.0004),
    (-2.7000, 0.8920, 0.0378),
    (-5.0000, -0.2000, 0.9960),
)

# Similarity from companion to kinematic coordinates and its inverse.
REF_KIN_FROM_PCF = (
    (1.0, 0.0, 0.0),
    (-37.5, -12.5, 12.5),
    (625.0, 625.0, 625.0),
)
REF_PCF_FROM_KIN = (
    (1.0, 0.0, 0.0),
    (-2.0, -0.04, 0.0008),
    (1.0, 0.04, 0.0008),
)

# Input-gain column of the observable canonical form and the transfer
# numerator it induces (descending powers, constant term structurally zero).
REF_GAIN_OCF = (0.2000, -0.4800, 0.2880)
REF_NUMERATOR = (0.288, -0.480, 0.200, 0.000)

# First column of the kinematic-to-OCF transform (doubles as the OCF state
# that holds a unit first sample).
REF_OCF_FROM_KIN_COL0 = (0.7120, -1.6880, 1.0000)


@pytest.fixture
def reference_design():
    model = ProcessModel(REF_ORDER, REF_TS)
    return design(ObserverSpec.repeated(model, REF_POLE, lag=REF_LAG))


def closed_form_gains(order: int, pole: float, ts: float) -> tuple[float, ...]:
    """Kinematic gains for a repeated real pole, orders 1-3, in closed form.
    The pipeline's gains must match them to roundoff."""
    p = float(pole)
    ts = float(ts)
    if not 0.0 <= p < 1.0:
        raise UnstablePoles(f"repeated pole must satisfy 0 <= p < 1, got {p!r}")
    if not ts > 0.0:
        raise NonPositiveSamplingPeriod(f"sampling period must be > 0, got {ts!r}")
    if order == 1:
        gains = [1.0 - p]
    elif order == 2:
        gains = [1.0 - p * p, (1.0 - p) ** 2 / ts]
    elif order == 3:
        gains = [
            1.0 - p ** 3,
            1.5 * (1.0 - p) ** 2 * (1.0 + p) / ts,
            (1.0 - p) ** 3 / (ts * ts),
        ]
    else:
        raise ValueError(f"closed-form gains cover orders 1-3, got {order}")
    return tuple(gains)


def second_order_transfer(pole: float, lag: float) -> tuple[tuple, tuple]:
    """Closed-form numerator/denominator of the order-2 smoother with both
    poles at ``pole`` and read-out lag ``lag`` (which may be fractional), as
    ``transfer_coefficients`` of the pipeline design must give them."""
    p = float(pole)
    q = float(lag)
    if not 0.0 <= p < 1.0:
        raise UnstablePoles(f"repeated pole must satisfy 0 <= p < 1, got {p!r}")
    num = (
        (q * p + p - q + 1.0) * (1.0 - p),
        -(q * p + 2.0 * p - q) * (1.0 - p),
        0.0,
    )
    den = (1.0, -2.0 * p, p * p)
    return num, den


def white_noise_gain_k2(pole: float, lag: float) -> float:
    """Closed-form white-noise gain of the order-2 smoother with both poles
    at ``pole`` and read-out lag ``lag``."""
    p = float(pole)
    q = float(lag)
    if not 0.0 <= p < 1.0:
        raise UnstablePoles(f"repeated pole must satisfy 0 <= p < 1, got {p!r}")
    d = p + p * q - q
    u = 1.0 + p
    return (1.0 - p) * (1.0 / u + 2.0 * d / u**2 + 2.0 * d * d / u**3)


def _fraction_solve(rows: list[list[Fraction]]) -> list[Fraction]:
    """Solution of the square system whose augmented rows are ``rows``, by
    Gauss-Jordan elimination in Fractions (the rows are overwritten)."""
    n = len(rows)
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                f = rows[r][col] / rows[col][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return [rows[i][n] / rows[i][i] for i in range(n)]


def noise_gain_fraction(num, den) -> float:
    """Exact white-noise gain sum h[n]**2 of the coefficients given, rounded
    once: r_0 of the autocorrelation equations sum_j a_j r_|k-j| = c_k,
    k = 0..K, with c_k = sum_i b_i h_(i-k), solved in Fractions.  The shorter
    polynomial is padded with zeros in powers of z^-1, as the direct
    recursion reads it.  Coefficients may be Fractions; the denominator must
    be stable."""
    b = [Fraction(c) for c in num]
    a = [Fraction(c) for c in den]
    n = max(len(a), len(b))
    b += [Fraction(0)] * (n - len(b))
    a += [Fraction(0)] * (n - len(a))
    h: list[Fraction] = []
    for m in range(n):
        h.append((b[m] - sum(a[j] * h[m - j] for j in range(1, m + 1))) / a[0])
    rows = []
    for k in range(n):
        row = [Fraction(0)] * n
        for j in range(n):
            row[abs(k - j)] += a[j]
        rows.append(row + [sum(b[i] * h[i - k] for i in range(k, n))])
    return float(_fraction_solve(rows)[0])


def step_down_unreduced(nums: list[int], dens: list[int], shift: int = 0) -> float:
    """The integer step-down of ``analyze._step_down`` with no exact division:
    every step multiplies entries of equal width, so the integers double in
    width each step.  Same rational, same rounding, same errors."""
    width = max(len(nums), len(dens))
    nums = nums + [0] * (width - len(nums))
    dens = dens + [0] * (width - len(dens))
    top, scale = 0, dens[0]
    for k in range(width - 1, 0, -1):
        a0, ak, bk = dens[0], dens[k], nums[k]
        if not abs(ak) < a0:
            raise NonConvergent(f"denominator has a pole on or outside the unit circle (step {k})")
        top = top * a0 + bk * bk
        scale *= a0
        nums = [a0 * nums[i] - bk * dens[k - i] for i in range(k)]
        dens = [a0 * dens[i] - ak * dens[k - i] for i in range(k)]
    try:
        return (top * dens[0] + nums[0] * nums[0]) / (scale * dens[0] << shift)
    except OverflowError:
        raise NonFiniteValue("white-noise gain overflows") from None


def lyapunov_noise_gain_fraction(ss) -> float:
    """Exact noise gain c P c' of a realization's float matrices, rounded
    once: P from (I - A kron A) vec P = vec(b b') solved in Fractions."""
    return _lyapunov_fraction([[Fraction(v) for v in row] for row in ss.transition.data],
                              [Fraction(v) for v in ss.input_gain.col(0)],
                              [Fraction(v) for v in ss.output_row.row(0)])


def _lyapunov_fraction(a, b, c) -> float:
    k = len(b)
    rows = [[int(i == j) - a[i // k][j // k] * a[i % k][j % k] for j in range(k * k)]
            + [b[i // k] * b[i % k]] for i in range(k * k)]
    p = _fraction_solve(rows)
    return float(sum(c[i] * c[j] * p[i * k + j] for i in range(k) for j in range(k)))


def _row_times(row, matrix) -> list:
    return [sum(x * m[j] for x, m in zip(row, matrix)) for j in range(len(matrix[0]))]


def _chain_fraction(order: int, t: Fraction) -> list[list[Fraction]]:
    """Integrator-chain transition over the exact time ``t``."""
    return [[t ** (j - i) / math.factorial(j - i) if j >= i else Fraction(0)
             for j in range(order)] for i in range(order)]


def ackermann_gains_fraction(poles, ts) -> list[Fraction]:
    """Exact kinematic gain column placing the float ``poles`` for the
    integrator chain sampled every float ``ts``: Ackermann's formula
    k = D(F) O^-1 e_K, with D = prod (z - p) expanded in Gaussian rationals,
    F the exact transition and O the observability stack of the predictor
    row h = e_1' F.  The pole set must be exactly conjugate-closed."""
    k = len(poles)
    acc = [(Fraction(1), Fraction(0))]
    for p in map(complex, poles):
        re, im = Fraction(p.real), Fraction(p.imag)
        nxt = acc + [(Fraction(0), Fraction(0))]
        for i, (x, y) in enumerate(acc):
            nxt[i + 1] = (nxt[i + 1][0] - (x * re - y * im), nxt[i + 1][1] - (x * im + y * re))
        acc = nxt
    assert all(y == 0 for _, y in acc)
    f = _chain_fraction(k, Fraction(ts))
    phi = [[acc[0][0] * (i == j) for j in range(k)] for i in range(k)]
    for coeff, _ in acc[1:]:
        phi = [_row_times(row, f) for row in phi]
        for i in range(k):
            phi[i][i] += coeff
    stack, h = [], f[0]
    for i in range(k):
        stack.append(h + [Fraction(int(i == k - 1))])
        h = _row_times(h, f)
    x = _fraction_solve(stack)
    return [sum(v * w for v, w in zip(row, x)) for row in phi]


def companion_pair_fraction(row, transition, column) -> tuple[list, list]:
    """``(kin_from_form, form_from_kin)`` of the companion builder run
    exactly on its float inputs: Horner's rows t_(K-1) = c,
    t_(i-1) = t_i A - g_i c, and the Krylov matrix [x, Ax, ..] of the x
    that solves c A^i x = [i == K-1], all in Fractions."""
    a = [[Fraction(v) for v in r] for r in transition]
    c = [Fraction(v) for v in row]
    k = len(c)
    stack, h = [], c
    for i in range(k):
        stack.append(h + [Fraction(int(i == k - 1))])
        h = _row_times(h, a)
    krylov = [_fraction_solve(stack)]
    for _ in range(k - 1):
        krylov.append([sum(v * w for v, w in zip(r, krylov[-1])) for r in a])
    horner = [c]
    for g in column[:0:-1]:
        horner.append([v - Fraction(g) * w for v, w in zip(_row_times(horner[-1], a), c)])
    return [list(r) for r in zip(*krylov)], horner[::-1]


def impulse_moments_fraction(num, den, count: int) -> list[Fraction]:
    """Exact moments sum_n n**k h[n], k < count, of the impulse response of
    ``num / den`` (float coefficients, descending powers of z): with
    theta = -z d/dz, each is theta**k H at z = 1, and theta**k H = P_k / D**(k+1)
    with P_0 = N and P_(k+1) = theta(P_k) D - (k+1) P_k theta(D), in Fractions."""
    def theta(p):
        return [-(len(p) - 1 - j) * c for j, c in enumerate(p)]

    def times(p, q):
        out = [Fraction(0)] * (len(p) + len(q) - 1)
        for i, v in enumerate(p):
            for j, w in enumerate(q):
                out[i + j] += v * w
        return out

    p, d = [Fraction(v) for v in num], [Fraction(v) for v in den]
    moments = []
    for k in range(count):
        moments.append(sum(p) / sum(d) ** (k + 1))
        p = [v - (k + 1) * w for v, w in zip(times(theta(p), d), times(p, theta(d)))]
    return moments


def exact_design_noise_gain(spec) -> float:
    """Noise gain of the filter that places ``spec``'s poles exactly, rounded
    once: the exact Ackermann gains closed against the exact predictor row,
    read out by the exact row of F(-lag ts)."""
    model = spec.process
    k, t = model.order, Fraction(model.ts)
    gains = ackermann_gains_fraction(spec.poles, model.ts)
    f = _chain_fraction(k, t)
    a = [[f[i][j] - gains[i] * f[0][j] for j in range(k)] for i in range(k)]
    c = _chain_fraction(k, -Fraction(spec.lag) * t)[spec.deriv]
    return _lyapunov_fraction(a, gains, c)


@st.composite
def placed_specs(draw):
    """Specs over every order, sampling period, lag and derivative, with
    repeated, distinct, negative or complex-pair poles."""
    order = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["repeated", "distinct", "negative", "complex"]))
    if kind == "repeated":
        poles = [draw(st.floats(0.0, 0.999))] * order
    elif kind == "negative":
        poles = draw(st.lists(st.floats(-0.999, -0.001), min_size=order, max_size=order))
    else:
        poles = draw(st.lists(st.floats(-0.999, 0.999), min_size=order, max_size=order,
                              unique=True))
        if kind == "complex" and order >= 2:
            z = cmath.rect(draw(st.floats(0.0, 0.999)), draw(st.floats(0.01, 3.13)))
            poles[:2] = [z, z.conjugate()]
    ts = draw(st.floats(1e-3, 10.0))
    return ObserverSpec(ProcessModel(order, ts), poles, lag=draw(st.floats(-1.0, 3.0)),
                        deriv=draw(st.integers(0, order - 1)))


def _numerator_recursion(a, b, c, char_coeffs) -> tuple[float, ...]:
    """n_j = c r_j with r_0 = b and r_j = A r_(j-1) + a_j b, a_j the
    characteristic coefficients, run exactly in Fractions and rounded once,
    with the structurally zero constant term."""
    r = b
    num = [sum(x * y for x, y in zip(c, r))]
    for a_j in char_coeffs[1:-1]:
        r = [sum(x * y for x, y in zip(row, r)) + Fraction(a_j) * b_i
             for row, b_i in zip(a, b)]
        num.append(sum(x * y for x, y in zip(c, r)))
    return (*map(float, num), 0.0)


def transfer_numerator_fraction(ss, char_poly) -> tuple[float, ...]:
    """Transfer numerator of a realization's float matrices by the
    Cayley-Hamilton recursion on the float coefficients of ``char_poly``."""
    return _numerator_recursion([[Fraction(v) for v in row] for row in ss.transition.data],
                                [Fraction(v) for v in ss.input_gain.col(0)],
                                [Fraction(v) for v in ss.output_row.row(0)], char_poly)


def loop_transfer_fraction(result) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Numerator and denominator of the loop A = F - k p the design runs, in
    Fractions from the float F, k, p and c, rounded once: the characteristic
    polynomial by Faddeev-LeVerrier (c_m = -tr(A M_m) / m, M_(m+1) = A M_m +
    c_m I) and the numerator by the Cayley-Hamilton recursion on it, so no
    step is shared with the pair's Sherman-Morrison form."""
    model = result.spec.process
    k = [Fraction(v) for v in result.gains.kin]
    p = [Fraction(v) for v in model.transition_matrix[0]]
    a = [[Fraction(v) - g * w for v, w in zip(row, p)]
         for row, g in zip(model.transition_matrix, k)]
    order, coeffs = len(k), [Fraction(1)]
    m = [[Fraction(int(i == j)) for j in range(order)] for i in range(order)]
    for step in range(1, order + 1):
        am = [[sum(x * y for x, y in zip(row, col)) for col in zip(*m)] for row in a]
        coeffs.append(-sum(am[i][i] for i in range(order)) / step)
        m = [[v + coeffs[-1] * (i == j) for j, v in enumerate(row)] for i, row in enumerate(am)]
    c = [Fraction(v) for v in result.ss_kin.output_row.row(0)]
    return _numerator_recursion(a, k, c, coeffs), tuple(map(float, coeffs))


# --- second-order noise-gain benchmark: memory lengths l = 2,4,8,12,16
#     (pole p = exp(-1/l)), read-out lags q = 1, 0, -1 -------------------

BENCH_MEMORIES = (2.0, 4.0, 8.0, 12.0, 16.0)
BENCH_POLES_4DP = (0.6065, 0.7788, 0.8825, 0.9200, 0.9394)

# White-noise gain, rows indexed by lag q = 1, 0, -1; columns by memory.
BENCH_WNG = {
    1.0: (0.3185, 0.2268, 0.1338, 0.0940, 0.0724),
    0.0: (0.4997, 0.2809, 0.1484, 0.1007, 0.0762),
    -1.0: (0.7396, 0.3428, 0.1640, 0.1076, 0.0801),
}

# Noise-minimizing lag per memory column, and the gain achieved there.
BENCH_OPTIMAL_LAG = (3.58, 7.54, 15.52, 23.51, 31.51)
BENCH_OPTIMAL_WNG = (0.1225, 0.0622, 0.0312, 0.0208, 0.0156)

# A smoother whose noise gain rises with the pole: K = 2, lag 2, repeated pole
# p -> the exact gain (5/27 at p = 0.5), against "random error falls as p -> 1".
SMOOTHER_WNG_K2_LAG2 = {0.5: 0.18518518518518517, 0.66: 0.19994333554278082}


def max_abs_diff(got, expected) -> float:
    got = list(got)
    expected = list(expected)
    assert len(got) == len(expected)
    return max(abs(complex(g) - complex(e)) for g, e in zip(got, expected))


def horner(coeffs, z):
    """``coeffs`` (descending powers) at ``z`` by Horner's rule from the leading
    coefficient, c0 * z + c1 first; only a constant is promoted to z's type.
    The frequency response keeps this order of operations bit for bit."""
    acc = coeffs[0]
    for c in coeffs[1:]:
        acc = acc * z + c
    return acc if len(coeffs) > 1 else acc * (z * 0 + 1)


def noisy_polynomial(rng, order: int, rows: int) -> list[float]:
    """A noisy polynomial of degree order - 1 over the rows, amplitude about
    1, as the benchmark's stream files draw it."""
    coeffs = [rng.uniform(-1.0, 1.0) for _ in range(order)]
    return [sum(c * (n / rows) ** j for j, c in enumerate(coeffs)) + 0.05 * rng.gauss(0.0, 1.0)
            for n in range(rows)]


def rows_of(m) -> tuple:
    """The row tuples of a realization's ``Matrix`` field, or of rows given as such."""
    return m.data if isinstance(m, Matrix) else tuple(map(tuple, m))


def matmul(a, b) -> tuple[tuple[float, ...], ...]:
    """The rows of the product a b of two matrices given by their rows (or as
    realization fields), each entry summed left to right from 0.0 by the
    package's rule, ``reduce(add, map(mul, row, col), 0.0)``: the reference a
    realization's steps and maps meet bit for bit."""
    columns = tuple(zip(*rows_of(b)))
    a = rows_of(a)
    assert len(a[0]) == len(columns[0]), "inner dimensions differ"
    return tuple([tuple([reduce(add, map(mul, row, col), 0.0) for col in columns])
                  for row in a])


def matrix_recursion_columns(ss, xs) -> list[list[float]]:
    """The columns y, state0, .., state(K-1) of the recursion of ``ss``
    written with :func:`matmul` over ``xs``: w <- G w + h x from the first
    sample's state, y = c w, kinematic state = T w."""
    w = matmul(ss.form_from_kin, [[xs[0]]] + [[0.0]] * (ss.order - 1))
    rows = []
    for n, x in enumerate(xs):
        if n:
            moved = [m for m, in matmul(ss.transition, w)]
            w = [[m + h * x] for m, h in zip(moved, ss.input_gain.col(0))]
        rows.append((matmul(ss.output_row, w)[0][0], *[v for v, in matmul(ss.kin_from_form, w)]))
    return [list(column) for column in zip(*rows)]


def stepped_columns(ss, xs) -> list[list[float]]:
    """The columns y, state0, .., state(K-1) of ``ss`` run over ``xs`` by
    ``initialize_state``, ``read_output``/``step`` and ``extract_kinematic``."""
    state = initialize_state(ss, xs[0])
    rows = [(read_output(ss, state), *extract_kinematic(ss, state))]
    rows += [(step(ss, state, x), *extract_kinematic(ss, state)) for x in xs[1:]]
    return [list(column) for column in zip(*rows)]


def column_gap(got, want) -> float:
    """The largest gap of two lists of columns, each relative to the largest
    magnitude of its ``want`` column."""
    return max(max(map(abs, map(sub, g, w))) / max(map(abs, w)) for g, w in zip(got, want))


class SingularMatrix(FixedGainError):
    """:func:`gauss_jordan_full` hit a pivot too small to trust; the matrix
    has no usable inverse."""


def inverse(m) -> tuple[tuple[float, ...], ...]:
    """The rows of ``m`` (rows, or a Matrix) inverted by :func:`gauss_jordan_full`
    against the identity; a non-square ``m`` raises DimensionMismatch, a
    singular one SingularMatrix."""
    return gauss_jordan_full(m, identity_rows(len(rows_of(m))))


def gauss_jordan_full(a, rhs) -> tuple[tuple[float, ...], ...]:
    """The rows of the X with ``a @ X == rhs`` (each given by its rows, or as a
    Matrix) by Gauss-Jordan elimination of the rows of
    ``a`` extended by those of ``rhs``: partial pivoting on the largest
    magnitude, a pivot refused when it is at most 1e-12 times the largest
    magnitude its row had before elimination, multiplication by the
    reciprocal pivot, and every step updating every column of the extended
    rows, those left of its pivot included.  A singular ``a`` raises
    SingularMatrix naming the pivot column."""
    a, rhs = rows_of(a), rows_of(rhs)
    n = len(a)
    if len(a[0]) != n or len(rhs) != n:
        raise DimensionMismatch("solve needs a square matrix and a right side of its height")
    ext = [list(row + extra) for row, extra in zip(a, rhs)]
    row_scale = [max(map(abs, row)) for row in a]
    for col in range(n):
        pivot_row = max(range(col, n), key=lambda r: abs(ext[r][col]))
        pivot = ext[pivot_row][col]
        if abs(pivot) <= 1e-12 * row_scale[pivot_row]:
            raise SingularMatrix(f"no usable pivot in column {col}")
        ext[col], ext[pivot_row] = ext[pivot_row], ext[col]
        row_scale[col], row_scale[pivot_row] = row_scale[pivot_row], row_scale[col]
        inv_p = 1.0 / pivot
        ext[col] = pivot_vals = [v * inv_p for v in ext[col]]
        for r in range(n):
            f = ext[r][col]
            if r != col and f != 0.0:
                ext[r] = [v - f * w for v, w in zip(ext[r], pivot_vals)]
    return tuple([tuple(row[n:]) for row in ext])


def transfer_pair_fraction(result) -> tuple[list[Fraction], list[Fraction]]:
    """z P(z - 1) and D(z - 1) of the design's loop F - k p read by c, in
    Fractions from the float F, k, p and c: D(u) = u^K + sum_j (p N^j k)
    u^(K-1-j) and P(u) = sum_j (c N^j k) u^(K-1-j), N = F - I, each then
    expanded in z by binomials."""
    model = result.spec.process
    f = [[Fraction(v) for v in row] for row in model.transition_matrix]
    k = [Fraction(v) for v in result.gains.kin]
    p = f[0]
    c = [Fraction(v) for v in result.ss_kin.output_row.row(0)]
    n = [[v - (i == j) for j, v in enumerate(row)] for i, row in enumerate(f)]
    order, v, d_u, p_u = len(k), k, [Fraction(1)], []
    for _ in range(order):
        d_u.append(sum(x * y for x, y in zip(p, v)))
        p_u.append(sum(x * y for x, y in zip(c, v)))
        v = [sum(x * y for x, y in zip(row, v)) for row in n]

    def in_z(u_coeffs):  # sum_m c_m (z - 1)^(deg - m)
        deg = len(u_coeffs) - 1
        return [sum(a * math.comb(deg - m, deg - i) * (-1) ** (i - m)
                    for m, a in enumerate(u_coeffs[:i + 1])) for i in range(deg + 1)]

    return in_z(p_u) + [Fraction(0)], in_z(d_u)


def loop_noise_gain_fraction(result) -> float:
    """Exact noise gain of the design's loop F - k p, read by c, from the
    float F, k, p and c, rounded once (the Lyapunov solve in Fractions)."""
    model = result.spec.process
    f = [[Fraction(v) for v in row] for row in model.transition_matrix]
    k = [Fraction(v) for v in result.gains.kin]
    a = [[v - g * w for v, w in zip(row, f[0])] for row, g in zip(f, k)]
    return _lyapunov_fraction(a, k, [Fraction(v) for v in result.ss_kin.output_row.row(0)])


def _realization_noise_gain(ss) -> float:
    """Noise gain c P c' of a realization, P = sum_n A^n b b' A'^n the Lyapunov
    series summed by doubling (Smith, SIAM J. Appl. Math. 16(1), 1968):
    P <- P + A^m P A'^m, A^m <- A^2m, until the added term no longer moves
    c P c' and A^m has decayed by 1e-12.  Raises NonConvergent when A^m has
    not decayed after 64 doublings or stops being finite."""
    am = ss.transition.data
    col = ss.input_gain.data
    out = ss.output_row.data[0]
    p = matmul(col, [ss.input_gain.col(0)])

    def quad(m) -> float:  # c m c'
        return sum(map(mul, out, [sum(map(mul, r, out)) for r in m]))

    def peak(m) -> float:
        return max(abs(v) for row in m for v in row)

    top = peak(am)

    for _ in range(64):
        step = matmul(matmul(am, p), zip(*am))
        p = tuple([tuple(map(add, x, y)) for x, y in zip(p, step)])
        am = matmul(am, am)
        total = quad(p)
        if not math.isfinite(total):
            break
        if abs(quad(step)) <= 1e-17 * abs(total) and peak(am) <= 1e-12 * top:
            return total
    raise NonConvergent("transition does not contract: the noise-gain series does not converge")


def realized_char_poly(result) -> tuple[float, ...]:
    """Characteristic polynomial of the assembled closed loop, recovered by
    rotating the kinematic transition into companion coordinates and reading
    its last column.  Agrees with ``result.char_poly`` up to roundoff."""
    kin_from_pcf, pcf_from_kin = pcf_transform(result.spec.process)
    rotated = matmul(matmul(pcf_from_kin, result.ss_kin.transition), kin_from_pcf)
    return (1.0, *[-row[-1] for row in reversed(rotated)])


def placement_residual(char, poles) -> float:
    """Largest scaled magnitude of ``char`` (and its derivatives, up to each
    pole's multiplicity) over the requested pole set.  Zero means the
    polynomial vanishes exactly where it should."""
    counts: dict[complex, int] = {}
    for p in poles:
        p = complex(p)
        counts[p] = counts.get(p, 0) + 1
    worst = 0.0
    for pole, mult in counts.items():
        d = char
        for _ in range(mult):
            scale = max(1.0, max(abs(c) for c in d))
            worst = max(worst, abs(horner(d, pole)) / scale)
            d = tuple([(len(d) - 1 - k) * c for k, c in enumerate(d[:-1])] or [0.0])
    return worst


# --- the process model's rows by the routes it once stored them -------------

def taylor_transition(order: int, t: float) -> tuple[tuple[float, ...], ...]:
    """The rows of the whole K x K transition over ``t``: t**(j-i) / (j-i)! for j >= i."""
    return tuple([tuple([t ** (j - i) / math.factorial(j - i) if j >= i else 0.0
                         for j in range(order)]) for i in range(order)])


def process_char_poly_product(order: int) -> tuple[float, ...]:
    """(z - 1)**K as the complex product over K roots at 1."""
    return from_roots([1.0] * order)


def predictor_row_product(model) -> tuple[float, ...]:
    """The measurement row e0 times the whole one-step transition."""
    e0 = [[1.0] + [0.0] * (model.order - 1)]
    return matmul(e0, taylor_transition(model.order, model.ts))[0]


def output_row_of_transition(model, lag: float, deriv: int) -> tuple[float, ...]:
    """Row ``deriv`` of the whole transition over -lag * ts."""
    return taylor_transition(model.order, -float(lag) * model.ts)[deriv]


# --- the argparse parser the CLI once built ----------------------------------

def _add_design_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--order", type=int, required=True, metavar="K",
                        help="filter order (number of tracked states)")
    parser.add_argument("--ts", type=float, default=1.0, metavar="SEC",
                        help="sampling period in seconds (default 1.0)")
    where = parser.add_mutually_exclusive_group(required=True)
    where.add_argument("--pole", type=float, metavar="P",
                       help="repeated real pole in [0, 1)")
    where.add_argument("--memory", type=float, metavar="L",
                       help="memory length in samples; sets the pole to exp(-1/L)")
    # Its help once added "write a list that starts with '-' as --poles=-0.5,-0.5",
    # which the CLI's own parser no longer needs.
    where.add_argument("--poles", type=_grammar._pole_list, metavar="LIST",
                       help="comma-separated pole list (complex ok, e.g. '0.5,0.4+0.2j,0.4-0.2j')")
    parser.add_argument("--lag", type=float, default=0.0, metavar="Q",
                        help="read-out lag in samples (fractional/negative ok, default 0)")
    parser.add_argument("--deriv", type=int, default=0, metavar="D",
                        help="derivative order of the output (0 = position)")


def argparse_reference_parser() -> argparse.ArgumentParser:
    """The CLI's grammar as argparse parsed it: ``parse_args(argv)`` gives the
    namespace ``cli.build_parser().parse_args(argv)`` must equal, attribute for
    attribute, and exits 2 on what that must refuse.  It differs on purpose
    where a value starts with '-' and is not a plain negative number (argparse
    reads ``--lag -1e-3`` and ``--poles -0.5,-0.5`` as a missing value)."""
    parser = argparse.ArgumentParser(
        prog="fixedgain",
        description="Design and analyze fixed-gain tracking filters by pole placement.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_design = sub.add_parser("design", help="run a design, print the JSON document")
    _add_design_args(p_design)
    p_design.add_argument("--form", choices=["kin", "pcf", "ocf", "ccf", "all"],
                          default="all", help="which realizations to include (default all)")
    p_design.set_defaults(func=cli.cmd_design)

    p_analyze = sub.add_parser("analyze", help="CSV response analyses of a design")
    _add_design_args(p_analyze)
    what = p_analyze.add_mutually_exclusive_group(required=True)
    what.add_argument("--wng", action="store_true", help="white-noise gain")
    what.add_argument("--freq", action="store_true",
                      help="frequency response on 1024 points over [0, 0.5] cycles/sample")
    what.add_argument("--step", type=int, metavar="N",
                      help="unit step from a matched start through sample N: the state"
                           " holds at (1, 0, ...), each row its read-out")
    what.add_argument("--impulse", action="store_true", help="impulse response until truncation")
    what.add_argument("--flatness", action="store_true",
                      help="dc derivative targets vs. measurements")
    p_analyze.set_defaults(func=cli.cmd_analyze)

    p_filter = sub.add_parser("filter", help="run a design over CSV samples")
    _add_design_args(p_filter)
    p_filter.add_argument("--input", required=True, metavar="PATH",
                          help="CSV of samples: one column (value) or two (n,value); '-' for stdin")
    p_filter.add_argument("--emit", choices=["position", "state"], default="position",
                          help="emit the scalar output or the full kinematic state")
    p_filter.set_defaults(func=cli.cmd_filter)

    p_tables = sub.add_parser("tables", help="regenerate the benchmark tables")
    p_tables.add_argument("--table", type=int, choices=[1, 2], required=True)
    p_tables.set_defaults(func=cli.cmd_tables)

    return parser
