"""Dense linear algebra over a binary field: rank, inverse, matrix-vector.

A `Matrix` is immutable and has one constructor, from rows packed into
GF(2^k) lanes (`galois.Lanes`); it keeps them, the row-major tuple of field
ints read off them, and each row as its entries' product-table rows
(`row_tables`), all fixed at construction.  Every matrix comes from field
arithmetic, so no entry is checked.  `RowBasis` is the one elimination
routine: it takes packed rows a block at a time, keeps only blocks that
raise the rank by their size, and reads the inverse off the row combinations
it records; `rank` and `invert` feed it a matrix's packed rows.  An
elimination step costs O(k) big-int operations whatever the row length.

`mat_vec` performs one base-field multiplication per matrix entry whatever
the values, so its cost is fixed by the matrix shape; each is one subscript
of a product-table row bound at construction, `row_tables[i][j][x]`.  The two
now serve only the benchmark's replay of steps 1 and 3: a product reads the
engine's stored column multiples, and the engine reads the counts off shapes.
"""

from __future__ import annotations

from collections.abc import Sequence

from .galois import BinaryField, Lanes


class SingularMatrixError(Exception):
    pass


class Matrix:
    """Rows over `field`, each packed as in `galois.Lanes`: row i is lanes
    0..cols-1 of packed[i], no lane from `cols` on set.  `entries` holds the
    same rows unpacked, row-major, and `row_tables[i]` row i's entries as
    their product-table rows (`field.table[a]`), both built once here."""

    __slots__ = ("field", "rows", "cols", "packed", "entries", "row_tables")

    def __init__(self, field: BinaryField, cols: int, packed: Sequence[int]):
        self.field = field
        self.rows = len(packed)
        self.cols = cols
        self.packed = tuple(packed)
        mask, shifts = field.order - 1, range(0, field.k * cols, field.k)
        self.entries = tuple([(r >> s) & mask for r in self.packed for s in shifts])
        # one pass mapping entries to table rows, cut into rows of `cols`
        self.row_tables = tuple(zip(*[map(field.table.__getitem__, self.entries)] * cols))

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
    entry lane.  `add_packed` takes rows in that layout, as place evaluation
    gives them and as `Matrix` keeps them.
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

    def add_packed(self, block: Sequence[int]) -> bool:
        """Accept the rows of `block` if together they raise the rank by
        len(block); otherwise leave the basis exactly as it was.  Each row
        is packed: entry i in lane i of one int, no lane from `cols` on set."""
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

    def inverse_rows(self) -> list[int]:
        """The inverse's rows, packed as `Matrix` takes them; needs rank == cols."""
        cols = self.cols
        if self.rank < cols:
            raise SingularMatrixError(f"matrix is singular (rank {self.rank} of {cols})")
        shift = self.field.k * cols
        return [r >> shift for _, r in sorted(zip(self._pivots, self._rows))]


def _row_basis(m: Matrix) -> RowBasis:
    basis = RowBasis(m.field, m.cols)
    for r in m.packed:
        basis.add_packed([r])
    return basis


def rank(m: Matrix) -> int:
    """Number of rows of m that a `RowBasis` accepts one at a time."""
    return _row_basis(m).rank


def invert(m: Matrix) -> Matrix:
    """Inverse of a square matrix; raises SingularMatrixError when rank is deficient."""
    if m.rows != m.cols:
        raise SingularMatrixError("only square matrices can be inverted")
    return Matrix(m.field, m.cols, _row_basis(m).inverse_rows())


def mat_vec(m: Matrix, v: Sequence[int]) -> list[int]:
    """m times v: m.rows * m.cols base-field multiplications, each one
    subscript of a product-table row bound at construction (`row_tables`);
    v's entries are taken on trust, unchecked."""
    if len(v) != m.cols:
        raise ValueError(f"vector length {len(v)} does not match {m.cols} columns")
    out = []
    for row in m.row_tables:
        acc = 0
        for t, x in zip(row, v):
            acc ^= t[x]
        out.append(acc)
    return out
