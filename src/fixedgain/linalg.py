"""The carrier of a realization record's small dense real matrices.

A :class:`Matrix` holds no arithmetic: the package computes on row tuples, and
returns every other matrix as one.  It is sized for state dimensions of at most
:data:`ORDER_CAP` (8): beyond that the observability products the realizations
are built from are too ill-conditioned to mean anything, so the cap is enforced
at construction.  Storage is an immutable tuple of row tuples.

The package's one summation rule: a float sum adds left to right from 0.0, as
``reduce(add, terms, 0.0)`` does, never by ``sum``, which compensates its rounding
from CPython 3.12 on, so no printed number depends on the interpreter; over a state
dimension it is :func:`_dot`, that sum written out and compiled.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import lru_cache
from types import FunctionType

from .errors import DimensionMismatch, FixedGainError, numbers

# Largest state dimension the package will build: a fixed cap, not a setting.
# process.py copies it at import, so rebinding it here does not lift the limit.
ORDER_CAP = 8


class Matrix:
    """Immutable dense real matrix (row-major)."""

    __slots__ = ("data",)

    def __init__(self, rows: Iterable[Iterable[float]]):
        try:  # numbers types a bad row; only iterating ``rows`` can raise TypeError
            data = tuple([numbers(row, "matrix entry") for row in rows])
        except TypeError:
            raise FixedGainError(f"Matrix needs iterable rows, not {type(rows).__name__}") from None
        width = len(data[0]) if data else 0
        if width and any(map(width.__ne__, map(len, data))):
            raise DimensionMismatch("ragged rows")
        _check_shape(len(data), width)
        self.data = data

    @classmethod
    def _of(cls, data: tuple) -> "Matrix":
        """``data``, float row tuples of a legal shape, as is: no __init__ checks."""
        m = cls.__new__(cls)
        m.data = data
        return m

    def row(self, i: int) -> tuple:
        return self.data[i]

    def col(self, j: int) -> tuple:
        return tuple([row[j] for row in self.data])

    def __eq__(self, other) -> bool:
        return isinstance(other, Matrix) and self.data == other.data

    def __hash__(self) -> int:
        return hash(self.data)

    def __repr__(self) -> str:
        body = ",\n        ".join(repr(list(r)) for r in self.data)
        return f"Matrix([{body}])"


def _check_shape(rows: int, cols: int, what: str = "matrix") -> None:
    """Refuse a shape of ``what`` with no entry or past the cap."""
    if not rows or not cols:
        raise DimensionMismatch(f"{what} must have at least one row and column")
    if rows > ORDER_CAP or cols > ORDER_CAP:
        raise DimensionMismatch(f"{what} {rows}x{cols} exceeds the {ORDER_CAP}x{ORDER_CAP} cap")


@lru_cache(maxsize=None)
def identity_rows(n: int) -> tuple:
    """The rows of the n x n identity, built once per n in 1..ORDER_CAP."""
    _check_shape(n, n)
    return tuple(tuple(float(i == j) for j in range(n)) for i in range(n))


@lru_cache(maxsize=None)
def _dot(k: int) -> FunctionType:
    """``dot(a, b)`` = 0.0 + a0*b0 + ... + a{k-1}*b{k-1} of two length-k sequences, compiled on
    first use for k in 1..ORDER_CAP; another length raises ValueError as it is unpacked."""
    if not 1 <= k <= ORDER_CAP:
        raise DimensionMismatch(f"no dot product of length {k}: the cap is {ORDER_CAP}")
    a, b = (", ".join(f"{v}{j}" for j in range(k)) for v in "ab")
    exec(f"def dot(a, b):\n    {a}, = a\n    {b}, = b\n    return 0.0 + "
         + " + ".join(f"a{j} * b{j}" for j in range(k)), namespace := {})
    return namespace["dot"]
