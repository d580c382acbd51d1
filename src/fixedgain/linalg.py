"""Small dense real matrices for low-order filter work.

Everything here is sized for state dimensions of at most :data:`ORDER_CAP`
(8): beyond that the observability products built on top of these routines
are too ill-conditioned to mean anything, so the cap is enforced at
construction.  Storage is an immutable tuple of row tuples.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import lru_cache
from operator import mul, sub

from .errors import DimensionMismatch, SingularMatrix, numbers

# Largest state dimension the package will build: a fixed cap, not a setting.
# process.py copies it at import, so rebinding it here does not lift the limit.
ORDER_CAP = 8

# A pivot below this fraction of its row's pre-elimination magnitude is
# treated as zero during elimination.
_PIVOT_RTOL = 1e-12


class Matrix:
    """Immutable dense real matrix (row-major)."""

    __slots__ = ("data",)

    def __init__(self, rows: Iterable[Iterable[float]]):
        data = tuple([numbers(row, "matrix entry") for row in rows])
        if not data or not data[0]:
            raise DimensionMismatch("matrix must have at least one row and column")
        width = len(data[0])
        if any(map(width.__ne__, map(len, data))):
            raise DimensionMismatch("ragged rows")
        if len(data) > ORDER_CAP or width > ORDER_CAP:
            raise DimensionMismatch(f"matrix {len(data)}x{width} exceeds the"
                                    f" {ORDER_CAP}x{ORDER_CAP} cap")
        self.data = data

    @classmethod
    def _of(cls, data: tuple) -> "Matrix":
        """``data``, float row tuples of a legal shape, as is: no __init__ checks."""
        m = cls.__new__(cls)
        m.data = data
        return m

    # --- construction helpers ---

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)])

    @classmethod
    def row_vector(cls, values: Sequence[float]) -> "Matrix":
        return cls([list(values)])

    @classmethod
    def column(cls, values: Sequence[float]) -> "Matrix":
        return cls([[v] for v in values])

    # --- shape / access ---

    @property
    def rows(self) -> int:
        return len(self.data)

    @property
    def cols(self) -> int:
        return len(self.data[0])

    def __getitem__(self, ij) -> float:
        i, j = ij
        return self.data[i][j]

    def row(self, i: int) -> tuple:
        return self.data[i]

    def col(self, j: int) -> tuple:
        return tuple(row[j] for row in self.data)

    def flat(self) -> tuple:
        """All entries, row-major.  Handy for 1xN and Nx1 matrices."""
        return tuple(v for row in self.data for v in row)

    def __eq__(self, other) -> bool:
        return isinstance(other, Matrix) and self.data == other.data

    def __hash__(self) -> int:
        return hash(self.data)

    def __repr__(self) -> str:
        body = ",\n        ".join(repr(list(r)) for r in self.data)
        return f"Matrix([{body}])"

    # --- arithmetic ---

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        columns = tuple(zip(*other.data))
        return Matrix._of(tuple([tuple([sum(map(mul, row, col)) for col in columns])
                                 for row in self.data]))

    def __sub__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("shape mismatch in subtraction")
        return Matrix._of(tuple([tuple(map(sub, ra, rb))
                                 for ra, rb in zip(self.data, other.data)]))

    def solve(self, rhs: "Matrix") -> "Matrix":
        """The X with ``self @ X == rhs``, by Gauss-Jordan elimination with
        partial pivoting on the rows of ``self`` extended by those of ``rhs``.

        Raises :class:`SingularMatrix` when the best available pivot is
        smaller than ``1e-12`` times the largest entry the pivot's row had
        before elimination started.  Each step updates only the columns right
        of its pivot, and the right side.
        """
        n = self.rows
        if self.cols != n or rhs.rows != n:
            raise DimensionMismatch("solve needs a square matrix and a right side of its height")
        a = [row + extra for row, extra in zip(self.data, rhs.data)]
        # Row magnitudes before any elimination, for the relative pivot test.
        row_scale = [max(map(abs, row)) for row in self.data]

        for col in range(n):
            # a[r] holds row r from column col on: no step reads an earlier column.
            pivot_row = max(range(col, n), key=lambda r: abs(a[r][0]))
            pivot = a[pivot_row][0]
            if abs(pivot) <= _PIVOT_RTOL * row_scale[pivot_row]:
                raise SingularMatrix(f"no usable pivot in column {col}")
            a[col], a[pivot_row] = a[pivot_row], a[col]
            row_scale[col], row_scale[pivot_row] = row_scale[pivot_row], row_scale[col]
            inv_p = 1.0 / pivot
            pivot_vals = [v * inv_p for v in a[col][1:]]
            for r, row in enumerate(a):
                f = row[0]
                a[r] = (pivot_vals if r == col else row[1:] if f == 0.0
                        else [v - f * w for v, w in zip(row[1:], pivot_vals)])
        return Matrix._of(tuple(map(tuple, a)))


@lru_cache(maxsize=None)
def identity_rows(n: int) -> tuple:
    """The rows of ``Matrix.identity(n)``, built and checked once per n; wrap
    them with ``Matrix._of`` for a matrix of one's own."""
    return Matrix.identity(n).data
