"""Dense linear algebra over a binary field: rank, inverse, matrix-vector.

A `Matrix` is immutable and has one constructor, from rows packed in byte
lanes (`galois.Lanes`, lane i byte i of an int); it keeps them and the
row-major tuple of field ints read off them, both fixed at construction.
Every matrix comes from field arithmetic, so no entry is checked.
`RowBasis` is the one elimination routine: it takes packed rows a block at
a time, keeps only blocks that raise the rank by their size, and reads the
inverse off the row combinations it records; `rank` and `invert` feed it a
matrix's packed rows.  An elimination step is one lane scale (a
`bytes.translate`) and one XOR, whatever the row length.

`Matrix.columns` is the table of column multiples, built on first read as
`Lanes.multiples` of the packed transpose, cut into columns; a multiple is
read by `int.to_bytes`.  `mat_vec` is one lookup in it per column, XORed
into one byte-lane vector; `windows` XORs such tables c columns at a time
into the tables a product reads (Four Russians), and `straight_line`
generates the function that reads them, one XOR expression.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from functools import reduce
from operator import getitem, xor

from .galois import BinaryField, Lanes


class SingularMatrixError(Exception):
    pass


class Matrix:
    """Rows over `field`, each packed as in `galois.Lanes`: row i is lanes
    0..cols-1 of packed[i], no lane from `cols` on set.  `entries` holds the
    same rows unpacked, row-major, built once here, and `columns` on first read."""

    __slots__ = ("field", "rows", "cols", "packed", "entries", "_columns")

    def __init__(self, field: BinaryField, cols: int, packed: Sequence[int]):
        self.field = field
        self.rows = len(packed)
        self.cols = cols
        self.packed = tuple(packed)
        self.entries = tuple(b"".join([r.to_bytes(cols, "little") for r in self.packed]))
        self._columns = None

    @property
    def columns(self) -> tuple:
        """Entry [j][a] is a times column j, in `rows` lanes: `Lanes.multiples` of the
        transpose, column j in lanes rows*j onwards, each multiple cut up."""
        if self._columns is None:
            rows, cols, low = self.rows, self.cols, (1 << 8 * self.rows) - 1
            lanes = Lanes(self.field, rows * cols)
            transpose = lanes.pack([v for j in range(cols) for v in self.entries[j::cols]])
            scaled = lanes.multiples(transpose)
            self._columns = tuple(tuple([(v >> 8 * rows * j) & low for v in scaled])
                                  for j in range(cols))
        return self._columns

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
    entry lane, at a byte boundary.  `add_packed` takes rows in that layout,
    as place evaluation gives them and as `Matrix` keeps them.
    """

    __slots__ = ("field", "cols", "_lanes", "_entries", "_pivots", "_rows")

    def __init__(self, field: BinaryField, cols: int):
        self.field = field
        self.cols = cols
        self._lanes = Lanes(field, 2 * cols)
        self._entries = (1 << 8 * cols) - 1  # the entry lanes
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
        inv, scale = self.field.inv, self._lanes.scale
        # ints are immutable and the lists are copies, so a rejected block
        # leaves the committed basis untouched
        pivots, rows = list(self._pivots), list(self._rows)
        for v in block:
            v |= 1 << 8 * (cols + len(rows))
            for p, r in zip(pivots, rows):
                c = (v >> p) & 255
                if c:
                    v ^= scale(c, r)
            low = v & self._entries
            if not low:
                return False
            p = (low & -low).bit_length() - 1
            p &= -8  # the pivot lane's lowest bit
            v = scale(inv((v >> p) & 255), v)
            for i, r in enumerate(rows):
                c = (r >> p) & 255
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
        return [r >> 8 * cols for _, r in sorted(zip(self._pivots, self._rows))]


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


def windows(columns: Sequence[Sequence[int]], c: int) -> tuple:
    """`columns` c at a time (Four Russians): entry i of window w XORs, over j,
    column c*w + j's multiple at digit j of i, its k bits from k*j; c = 1 gives
    the columns' own multiples."""
    out = []
    for w in range(0, len(columns), c):
        table, *rest = columns[w : w + c]
        for multiples in rest:  # each column the next digit up
            table = [t ^ m for m in multiples for t in table]
        out.append(tuple(table))
    return tuple(out)


def straight_line(tables: Sequence, index: str = "a", result: str = "{}") -> Callable:
    """A generated function of `a`: `index` (an expression in a) unpacked into one local
    per table, and `result` around `t0[i0] ^ t1[i1] ^ ...`; its `tables` is `tables`, the
    globals of a fresh namespace that does not keep the function, so no cycle holds them."""
    names = [f"i{j}" for j in range(len(tables))]
    xored = " ^ ".join([f"t{j}[{i}]" for j, i in enumerate(names)])
    namespace = {f"t{j}": t for j, t in enumerate(tables)}
    exec(f"def f(a):\n {', '.join(names)}, = {index}\n return {result.format(xored)}\n", namespace)
    f = namespace.pop("f")
    f.tables = tables
    return f


def mat_vec(m: Matrix, v: Sequence[int]) -> list[int]:
    """m times v: one lookup `m.columns[j][v[j]]` per column, XORed, and its
    `rows` bytes; v's entries are taken on trust, unchecked."""
    if len(v) != m.cols:
        raise ValueError(f"vector length {len(v)} does not match {m.cols} columns")
    return list(reduce(xor, map(getitem, m.columns, v), 0).to_bytes(m.rows, "little"))
