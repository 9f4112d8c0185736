"""Dense linear algebra over a binary field: rank, inverse, matrix-vector.

Matrices are immutable row-major tuples of field ints; `Matrix(...)`
checks every entry, while `trusted` and `from_packed` take the
results of field arithmetic as they are.  `RowBasis` is the one elimination
routine: it takes rows a block at a time, keeps only blocks that raise the
rank by their size, and reads the inverse off the row combinations it
records; `rank` and `invert` are thin uses of it.  It works on rows packed
into GF(2^k) lanes (`galois.Lanes`), so an elimination step costs O(k)
big-int operations whatever the row length.

`mat_vec` performs one base-field multiplication per matrix entry whatever
the values, so its cost is fixed by the matrix shape.  The engine runs
step 1 of a product through it; it reads step 1's operation count from
those shapes, and step 3's from the shape of the matrix whose columns it
looks up.
"""

from __future__ import annotations

from collections.abc import Sequence

from .galois import BinaryField, Lanes


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
    def trusted(cls, field: BinaryField, rows: int, cols: int, entries: Sequence[int]) -> "Matrix":
        """A matrix of entries from field arithmetic, shape and entries unchecked."""
        m = cls.__new__(cls)
        m.field, m.rows, m.cols, m.entries = field, rows, cols, tuple(entries)
        return m

    @classmethod
    def from_packed(cls, field: BinaryField, cols: int, rows: Sequence[int]) -> "Matrix":
        """`trusted`, row i being lanes 0..cols-1 of the lane vector rows[i]."""
        mask, shifts = field.order - 1, range(0, field.k * cols, field.k)
        return cls.trusted(field, len(rows), cols, [(r >> s) & mask for r in rows for s in shifts])

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def take_columns(self, cols: Sequence[int]) -> "Matrix":
        flat = []
        for i in range(self.rows):
            base = i * self.cols
            for j in cols:
                flat.append(self.entries[base + j])
        return Matrix.trusted(self.field, self.rows, len(cols), flat)

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

    Each row is one packed int (`galois.Lanes`): its `cols` reduced entries
    in lanes 0..cols-1, then its combination weights.  An elimination step
    is one lane scale and one XOR, and a row's pivot is its lowest nonzero
    entry lane.  `add_packed` takes rows already in that layout, as place
    evaluation gives them; `add` packs lists of ints and hands them on.
    """

    __slots__ = ("field", "cols", "_lanes", "_entries", "_pivots", "_rows")

    def __init__(self, field: BinaryField, cols: int):
        self.field = field
        self.cols = cols
        self._lanes = Lanes(field, 2 * cols)
        self._entries = (1 << (field.k * cols)) - 1  # the entry lanes
        self._pivots: list[int] = []  # bit offset of each row's pivot lane
        self._rows: list[int] = []

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
        return self.add_packed([self._lanes.pack(row) for row in block])

    def add_packed(self, block: Sequence[int]) -> bool:
        """`add` for rows already packed: entry i of a row in lane i of one
        int, no lane from `cols` on set."""
        cols = self.cols
        if self.rank + len(block) > cols:
            return False
        k, lane = self.field.k, self.field.order - 1
        inv, scale = self.field.inv, self._lanes.scale
        # ints are immutable and the lists are copies, so a rejected block
        # leaves the committed basis untouched
        pivots, rows = list(self._pivots), list(self._rows)
        for v in block:
            v |= 1 << (k * (cols + len(rows)))
            for p, r in zip(pivots, rows):
                c = (v >> p) & lane
                if c:
                    v ^= scale(c, r)
            low = v & self._entries
            if not low:
                return False
            p = (low & -low).bit_length() - 1
            p -= p % k
            v = scale(inv((v >> p) & lane), v)
            for i, r in enumerate(rows):
                c = (r >> p) & lane
                if c:
                    rows[i] = r ^ scale(c, v)
            pivots.append(p)
            rows.append(v)
        self._pivots, self._rows = pivots, rows
        return True

    def inverse(self) -> Matrix:
        """Inverse of the matrix of accepted rows; needs rank == cols."""
        cols = self.cols
        if self.rank < cols:
            raise SingularMatrixError(f"matrix is singular (rank {self.rank} of {cols})")
        shift = self.field.k * cols
        by_pivot = sorted(zip(self._pivots, self._rows))
        return Matrix.from_packed(self.field, cols, [r >> shift for _, r in by_pivot])


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
