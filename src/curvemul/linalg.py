"""Dense linear algebra over a binary field: rank, inverse, matrix-vector.

Matrices are immutable row-major tuples of field ints.  `RowBasis` is the
one elimination routine: it takes rows a block at a time, keeps only blocks
that raise the rank by their size, and reads the inverse off the row
combinations it records; `rank` and `invert` are thin uses of it.

`mat_vec` performs one base-field multiplication per matrix entry whatever
the values, so the cost of a product is fixed by the matrix shape; the
engine reads its operation counts from those shapes at compile time.
"""

from __future__ import annotations

from typing import Sequence

from .galois import BinaryField


class SingularMatrixError(Exception):
    pass


class Matrix:
    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field: BinaryField, rows: int, cols: int, entries: Sequence[int]):
        if rows < 0 or cols < 0 or len(entries) != rows * cols:
            raise ValueError("entry count does not match shape")
        self.field = field
        self.rows = rows
        self.cols = cols
        self.entries = tuple(field.check(v) for v in entries)

    @classmethod
    def from_rows(cls, field: BinaryField, rows: Sequence[Sequence[int]]) -> "Matrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        flat = []
        for row in rows:
            if len(row) != c:
                raise ValueError("ragged rows")
            flat.extend(row)
        return cls(field, r, c, flat)

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def take_columns(self, cols: Sequence[int]) -> "Matrix":
        flat = []
        for i in range(self.rows):
            base = i * self.cols
            for j in cols:
                flat.append(self.entries[base + j])
        return Matrix(self.field, self.rows, len(cols), flat)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols} over {self.field!r})"


class RowBasis:
    """Incremental Gauss-Jordan elimination on rows of length `cols`.

    Accepted rows are kept in reduced row-echelon form, each beside the
    combination of accepted input rows that produces it.  Once `cols` input
    rows are in, those combinations are the inverse of the matrix whose rows
    are the inputs in the order they were accepted.
    """

    __slots__ = ("field", "cols", "_pivots", "_rows")

    def __init__(self, field: BinaryField, cols: int):
        self.field = field
        self.cols = cols
        self._pivots: list[int] = []
        # each row is cols reduced entries followed by cols combination weights
        self._rows: list[list[int]] = []

    @property
    def rank(self) -> int:
        return len(self._rows)

    def add(self, block: Sequence[Sequence[int]]) -> bool:
        """Accept the rows of `block` if together they raise the rank by
        len(block); otherwise leave the basis exactly as it was."""
        cols = self.cols
        for row in block:
            if len(row) != cols:
                raise ValueError(f"row length {len(row)} does not match {cols} columns")
        if self.rank + len(block) > cols:
            return False
        mul, inv = self.field.mul, self.field.inv
        # rows are replaced, never changed in place, so the old lists survive
        # a rejected block untouched
        pivots, rows = list(self._pivots), list(self._rows)
        for row in block:
            v = list(row) + [0] * cols
            v[cols + len(rows)] = 1
            for p, r in zip(pivots, rows):
                c = v[p]
                if c:
                    v = [a ^ mul(c, b) for a, b in zip(v, r)]
            pivot = next((j for j in range(cols) if v[j]), None)
            if pivot is None:
                return False
            c = inv(v[pivot])
            v = [mul(c, a) for a in v]
            for i, r in enumerate(rows):
                c = r[pivot]
                if c:
                    rows[i] = [a ^ mul(c, b) for a, b in zip(r, v)]
            pivots.append(pivot)
            rows.append(v)
        self._pivots, self._rows = pivots, rows
        return True

    def inverse(self) -> Matrix:
        """Inverse of the matrix of accepted rows; needs rank == cols."""
        cols = self.cols
        if self.rank < cols:
            raise SingularMatrixError(f"matrix is singular (rank {self.rank} of {cols})")
        by_pivot = sorted(zip(self._pivots, self._rows))
        return Matrix.from_rows(self.field, [r[cols:] for _, r in by_pivot])


def _row_basis(m: Matrix) -> RowBasis:
    basis = RowBasis(m.field, m.cols)
    for i in range(m.rows):
        basis.add([m.row(i)])
    return basis


def rank(m: Matrix) -> int:
    """Number of rows of m that a `RowBasis` accepts one at a time."""
    return _row_basis(m).rank


def invert(m: Matrix) -> Matrix:
    """Inverse of a square matrix; raises SingularMatrixError when rank is deficient."""
    if m.rows != m.cols:
        raise SingularMatrixError("only square matrices can be inverted")
    return _row_basis(m).inverse()


def mat_vec(m: Matrix, v: Sequence[int]) -> list[int]:
    """m times v: m.rows * m.cols base-field multiplications."""
    if len(v) != m.cols:
        raise ValueError(f"vector length {len(v)} does not match {m.cols} columns")
    mul = m.field.mul
    entries = m.entries
    cols = m.cols
    out = []
    for base in range(0, m.rows * cols, cols):
        acc = 0
        for a, x in zip(entries[base : base + cols], v):
            acc ^= mul(a, x)
        out.append(acc)
    return out
