"""Polynomials as float tuples: roots to coefficients, and the Horner
reference the frequency response is checked against."""

import math
import random

import numpy as np
import pytest

from conftest import horner
from fixedgain import from_roots
from fixedgain.errors import NonFiniteValue, NonRealCoefficients


def test_constant_polynomial():
    assert horner((4.0,), 123.0) == 4.0


def test_evaluation_matches_numpy_polyval():
    rng = random.Random(101)
    for _ in range(25):
        coeffs = [rng.uniform(-3, 3) for _ in range(rng.randint(1, 7))]
        for z in (rng.uniform(-2, 2), complex(rng.uniform(-1, 1), rng.uniform(-1, 1))):
            want = np.polyval(coeffs, z)
            assert abs(horner(coeffs, z) - want) <= 1e-12 * (1.0 + abs(want))


def test_evaluation_promotes_to_complex():
    p = (1.0, 0.0, 1.0)  # z**2 + 1
    assert horner(p, 1j) == 0j
    assert isinstance(horner(p, 1j), complex)
    assert isinstance(horner((4.0,), 1j), complex)


def test_from_roots_single_root():
    assert from_roots([0.7]) == (1.0, -0.7)


def test_from_roots_binomial_pattern():
    # (z - 1)**k expands with alternating binomial coefficients.
    for k in range(1, 6):
        got = from_roots([1.0] * k)
        want = [(-1.0) ** j * math.comb(k, j) for j in range(k + 1)]
        assert max(abs(g - w) for g, w in zip(got, want)) < 1e-12


def test_from_roots_matches_numpy_poly():
    rng = random.Random(404)
    for _ in range(20):
        n_real = rng.randint(0, 3)
        n_pairs = rng.randint(0, 2)
        roots = [rng.uniform(-1, 1) for _ in range(n_real)]
        for _ in range(n_pairs):
            c = complex(rng.uniform(-1, 1), rng.uniform(0.05, 1))
            roots += [c, c.conjugate()]
        if not roots:
            continue
        got = from_roots(roots)
        want = np.real(np.poly(np.array(roots, dtype=complex)))
        scale = 1.0 + float(np.max(np.abs(want)))
        assert max(abs(g - w) for g, w in zip(got, want)) < 1e-12 * scale


def test_from_roots_rejects_unpaired_complex_root():
    with pytest.raises(NonRealCoefficients):
        from_roots([0.3 + 0.4j, 0.5])


@pytest.mark.parametrize("roots", [
    [1e200, 1e200], [math.nan], [math.inf], [complex(1e200, 1e200), complex(1e200, -1e200)],
    [-1e155 - 1.0] * 2,
])
def test_from_roots_refuses_a_non_finite_coefficient(roots):
    # These expanded to [1.0, -2e200, inf], [1.0, nan], ... without a word.
    with pytest.raises(NonFiniteValue):
        from_roots(roots)


def test_from_roots_conjugate_pair_is_real():
    p = from_roots([0.3 + 0.4j, 0.3 - 0.4j])
    assert p == (1.0, -0.6, pytest.approx(0.25, abs=1e-15))
