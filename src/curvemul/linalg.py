"""Dense linear algebra over a binary field: rank, inverse, matrix-vector.

Matrices are immutable row-major tuples of field ints.  `mat_vec` performs
one base-field multiplication per matrix entry whatever the values, so the
cost of a product is fixed by the matrix shape; the engine reads its
operation counts from those shapes at compile time.
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


def _rows_as_lists(m: Matrix) -> list[list[int]]:
    return [list(m.row(i)) for i in range(m.rows)]


def rank(m: Matrix) -> int:
    """Row-echelon rank by Gaussian elimination (first nonzero pivot)."""
    f = m.field
    mul, inv = f.mul, f.inv
    rows = _rows_as_lists(m)
    r = 0
    for col in range(m.cols):
        pivot = None
        for i in range(r, m.rows):
            if rows[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pinv = inv(rows[r][col])
        rows[r] = [mul(pinv, v) for v in rows[r]]
        for i in range(m.rows):
            if i != r and rows[i][col]:
                c = rows[i][col]
                rows[i] = [v ^ mul(c, p) for v, p in zip(rows[i], rows[r])]
        r += 1
        if r == m.rows:
            break
    return r

def invert(m: Matrix) -> Matrix:
    """Gauss-Jordan inverse; raises SingularMatrixError when rank is deficient."""
    if m.rows != m.cols:
        raise SingularMatrixError("only square matrices can be inverted")
    n = m.rows
    f = m.field
    mul, inv = f.mul, f.inv
    rows = _rows_as_lists(m)
    aug = [rows[i] + [1 if i == j else 0 for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = None
        for i in range(col, n):
            if aug[i][col]:
                pivot = i
                break
        if pivot is None:
            raise SingularMatrixError(f"matrix is singular (no pivot in column {col})")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pinv = inv(aug[col][col])
        aug[col] = [mul(pinv, v) for v in aug[col]]
        for i in range(n):
            if i != col and aug[i][col]:
                c = aug[i][col]
                aug[i] = [v ^ mul(c, p) for v, p in zip(aug[i], aug[col])]
    return Matrix.from_rows(f, [row[n:] for row in aug])


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
