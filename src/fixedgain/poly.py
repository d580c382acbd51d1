"""Real polynomials in one variable, stored by descending powers.

A coefficient list ``c`` of length n+1 represents

    c[0]*z**n + c[1]*z**(n-1) + ... + c[n]

which matches the convention used throughout the package: characteristic
polynomials are monic with ``c[0] == 1``, and index k multiplies ``z**(n-k)``.
"""

from __future__ import annotations

import cmath
from collections.abc import Iterable, Sequence

from .errors import DimensionMismatch, NonFiniteValue, NonRealCoefficients, numbers

# Imaginary residue allowed when collapsing a conjugate-closed product
# back to real coefficients.
_IMAG_TOL = 1e-12


class Polynomial:
    """Immutable real polynomial with descending-power coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[float]):
        cs = numbers(coeffs, "polynomial coefficient")
        if not cs:
            raise DimensionMismatch("polynomial needs at least one coefficient")
        self.coeffs = cs

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __len__(self) -> int:
        return len(self.coeffs)

    def __getitem__(self, k):
        return self.coeffs[k]

    def __iter__(self):
        return iter(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coeffs)!r})"

    def __call__(self, z):
        """Evaluate by Horner's rule from the leading coefficient; ``z`` may be
        real or complex, and only a constant is promoted to z's type."""
        acc = self.coeffs[0]
        for c in self.coeffs[1:]:
            acc = acc * z + c
        return acc if self.degree else acc * (z * 0 + 1)

    def is_monic(self) -> bool:
        return self.coeffs[0] == 1.0


def from_roots(roots: Sequence[complex]) -> Polynomial:
    """Expand ``prod (z - r)`` over the given roots into a real monic polynomial.

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
    return Polynomial(real)
