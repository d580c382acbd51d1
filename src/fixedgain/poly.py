"""Real polynomials in one variable, as float tuples of descending powers.

A coefficient tuple ``c`` of length n+1 represents

    c[0]*z**n + c[1]*z**(n-1) + ... + c[n]

which matches the convention used throughout the package: characteristic
polynomials are monic with ``c[0] == 1``, and index k multiplies ``z**(n-k)``.
"""

from __future__ import annotations

import cmath
from collections.abc import Sequence

from .errors import NonFiniteValue, NonRealCoefficients, numbers

# Imaginary residue allowed when collapsing a conjugate-closed product
# back to real coefficients.
_IMAG_TOL = 1e-12


def from_roots(roots: Sequence[complex]) -> tuple[float, ...]:
    """Expand ``prod (z - r)`` over the given roots into a real monic polynomial,
    its coefficients a float tuple over descending powers.

    The root set must be closed under conjugation (real roots count as their
    own conjugates); otherwise the product has genuinely complex coefficients
    and :class:`NonRealCoefficients` is raised.  The tiny imaginary residue
    left by a conjugate-closed product is checked against
    ``1e-12 * (1 + |Re c|)`` per coefficient, then dropped.  A nan or
    infinite coefficient (a nan root, or a product past the double range)
    raises :class:`NonFiniteValue`.
    """
    acc = [complex(1.0)]
    for r in numbers(roots, "root", complex, NonFiniteValue):
        nxt = [complex(0.0)] * (len(acc) + 1)
        for i, c in enumerate(acc):
            nxt[i] += c
            nxt[i + 1] -= c * r
        acc = nxt

    real = []
    for c in acc:
        if not cmath.isfinite(c):
            raise NonFiniteValue(f"root product coefficient {c} is not finite")
        if abs(c.imag) > _IMAG_TOL * (1.0 + abs(c.real)):
            raise NonRealCoefficients(
                f"root set is not conjugate-closed (imaginary residue {c.imag:g})"
            )
        real.append(c.real)
    return tuple(real)
