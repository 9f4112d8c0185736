import random

import pytest

from curvemul.galois import F2, F4, F16, BinaryField, Lanes
from curvemul.linalg import Matrix, RowBasis, SingularMatrixError, invert, mat_vec, rank
from reference import bundled, unit_vectors


def from_rows(field, rows, cols=None):
    cols = len(rows[0]) if cols is None else cols
    return Matrix(field, cols, [Lanes(field, cols).pack(r) for r in rows])


def same_matrix(a, b):
    """Equal field, width and packed rows: the rows and entries follow."""
    return (a.field, a.cols, a.packed) == (b.field, b.cols, b.packed)


def row_entries(m, i):
    return m.entries[i * m.cols : (i + 1) * m.cols]


def add_rows(basis, block):
    """`RowBasis.add_packed` on a block of rows given as lists of ints."""
    return basis.add_packed([Lanes(basis.field, basis.cols).pack(r) for r in block])


def random_matrix(rng, field, rows, cols):
    return from_rows(field, [[rng.randrange(field.order) for _ in range(cols)]
                             for _ in range(rows)], cols)


def test_rank_examples():
    assert rank(from_rows(F16, unit_vectors(5))) == 5
    assert rank(Matrix(F4, 3, [0, 0])) == 0
    # second row is a times the first over F_4
    m = from_rows(F4, [[1, 2, 3], [2, 3, 1]])
    assert rank(m) == 1
    m = from_rows(F2, [[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    assert rank(m) == 2  # rows sum to zero
    # more rows than columns: rank is capped by the columns
    m = from_rows(F4, [[1, 0], [2, 3], [0, 1], [3, 3]])
    assert rank(m) == 2
    assert rank(from_rows(F16, [[0], [5], [7]])) == 1


def test_rank_row_operation_invariance():
    rng = random.Random(321)
    for _ in range(40):
        field = rng.choice([F2, F4, F16])
        m = random_matrix(rng, field, rng.randrange(1, 6), rng.randrange(1, 6))
        r = rank(m)
        # add a multiple of one row to another; rank must not move
        rows = [list(row_entries(m, i)) for i in range(m.rows)]
        if m.rows >= 2:
            i, j = rng.sample(range(m.rows), 2)
            c = rng.randrange(field.order)
            rows[i] = [a ^ field.mul(c, b) for a, b in zip(rows[i], rows[j])]
            assert rank(from_rows(field, rows)) == r
        # appending a linear combination of rows keeps rank
        comb = [0] * m.cols
        for i in range(m.rows):
            c = rng.randrange(field.order)
            comb = [a ^ field.mul(c, b) for a, b in zip(comb, rows[i])]
        assert rank(from_rows(field, rows + [comb])) == r


def test_invert_examples():
    # diag(a, a^2) over F_4 inverts to diag(a^2, a)
    m = from_rows(F4, [[2, 0], [0, 3]])
    assert same_matrix(invert(m), from_rows(F4, [[3, 0], [0, 2]]))
    # an F_2 involution
    m = from_rows(F2, [[1, 1], [0, 1]])
    assert same_matrix(invert(m), m)
    with pytest.raises(SingularMatrixError):
        invert(from_rows(F4, [[1, 2], [2, 3]]))  # row2 = a*row1
    with pytest.raises(SingularMatrixError):
        invert(Matrix(F4, 3, [0, 0]))


def test_row_basis_rejects_a_block_whole():
    basis = RowBasis(F4, 3)
    assert add_rows(basis, [[1, 2, 0]])
    # the first row is independent, the second is a times the accepted row
    assert not add_rows(basis, [[0, 1, 1], [2, 3, 0]])
    assert basis.rank == 1
    with pytest.raises(SingularMatrixError):
        basis.inverse_rows()
    # had the rejected block left its first row behind, rank 1 + 2 would
    # not fit and this block would be refused
    assert add_rows(basis, [[0, 1, 1], [0, 0, 1]])
    want = invert(from_rows(F4, [[1, 2, 0], [0, 1, 1], [0, 0, 1]]))
    assert basis.inverse_rows() == list(want.packed)
    assert not add_rows(basis, [[1, 1, 1]])  # already full rank
    assert basis.rank == 3


class ListRowBasis:
    """Reference: the same elimination on rows kept as lists of field ints,
    one `mul` per entry (how `RowBasis` worked before packed lanes)."""

    def __init__(self, field, cols):
        self.field = field
        self.cols = cols
        self.pivots = []
        self.rows = []

    @property
    def rank(self):
        return len(self.rows)

    def add(self, block):
        cols = self.cols
        if self.rank + len(block) > cols:
            return False
        mul, inv = self.field.mul, self.field.inv
        pivots, rows = list(self.pivots), list(self.rows)
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
        self.pivots, self.rows = pivots, rows
        return True

    def inverse(self):
        if self.rank < self.cols:
            raise SingularMatrixError("singular")
        by_pivot = sorted(zip(self.pivots, self.rows))
        return from_rows(self.field, [r[self.cols:] for _, r in by_pivot])


def _combination(rng, field, rows, cols):
    out = [0] * cols
    for row in rows:
        c = rng.randrange(field.order)
        out = [a ^ field.mul(c, b) for a, b in zip(out, row)]
    return out


@pytest.mark.parametrize(
    "field", [F2, F4, F16, BinaryField(8, 0b100011011)], ids=lambda f: f"F{f.order}"
)
def test_row_basis_matches_list_reference(field):
    rng = random.Random(1000 + field.k)
    for _ in range(60):
        cols = rng.randrange(1, 9)
        basis, ref = RowBasis(field, cols), ListRowBasis(field, cols)
        seen = []  # every row offered so far
        for _ in range(rng.randrange(1, 2 * cols + 2)):
            block = []
            for _ in range(rng.choice((1, 1, 2, 3))):
                kind, pool = rng.random(), seen + block
                if kind < 0.25 and pool:
                    # dependent on rows offered before or within this block
                    row = _combination(rng, field, rng.sample(pool, min(2, len(pool))), cols)
                elif kind < 0.3:
                    row = [0] * cols
                else:
                    row = [rng.randrange(field.order) for _ in range(cols)]
                block.append(row)
            rank_before = basis.rank
            accepted = add_rows(basis, block)
            assert accepted == ref.add(block)
            assert basis.rank == ref.rank
            if not accepted:
                assert basis.rank == rank_before
            seen.extend(block)
            try:
                want = ref.inverse()
            except SingularMatrixError:
                with pytest.raises(SingularMatrixError):
                    basis.inverse_rows()
            else:
                assert basis.inverse_rows() == list(want.packed)


@pytest.mark.parametrize("field", [F2, F4, F16], ids=lambda f: f"F{f.order}")
def test_rank_and_invert_match_list_reference(field):
    # square matrices, a share of them rank-deficient by construction
    rng = random.Random(77 + field.k)
    for _ in range(40):
        n = rng.randrange(1, 8)
        rows = [[rng.randrange(field.order) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.4 and n > 1:
            rows[-1] = _combination(rng, field, rows[:-1], n)
            rng.shuffle(rows)
        m = from_rows(field, rows)
        ref = ListRowBasis(field, n)
        for row in rows:
            ref.add([row])
        assert rank(m) == ref.rank
        if ref.rank < n:
            with pytest.raises(SingularMatrixError):
                invert(m)
        else:
            assert same_matrix(invert(m), ref.inverse())


def test_invert_random_roundtrip():
    rng = random.Random(55)
    done = 0
    while done < 30:
        field = rng.choice([F2, F4, F16])
        n = rng.randrange(1, 7)
        m = random_matrix(rng, field, n, n)
        if rank(m) < n:
            with pytest.raises(SingularMatrixError):
                invert(m)
            continue
        mi = invert(m)
        for e in unit_vectors(n):
            assert mat_vec(m, mat_vec(mi, e)) == e
            assert mat_vec(mi, mat_vec(m, e)) == e
        done += 1


def test_mat_vec_values():
    m = from_rows(F4, [[1, 2], [3, 0], [0, 0]])
    assert mat_vec(m, [1, 1]) == [3, 3, 0]
    assert mat_vec(m, [0, 2]) == [F4.mul(2, 2), 0, 0]
    with pytest.raises(ValueError):
        mat_vec(m, [1, 2, 3])


def schoolbook_mat_vec(m, v):
    out = []
    for i in range(m.rows):
        acc = 0
        for a, x in zip(row_entries(m, i), v):
            acc ^= m.field.mul(a, x)
        out.append(acc)
    return out


def assert_mat_vec_matches_schoolbook(rng, matrices):
    for m in matrices:
        q = m.field.order
        vectors = [[0] * m.cols, [q - 1] * m.cols] + [
            [rng.randrange(q) for _ in range(m.cols)] for _ in range(20)
        ]
        for v in vectors:
            assert mat_vec(m, v) == schoolbook_mat_vec(m, v)


def test_mat_vec_matches_schoolbook_field_mul():
    # mat_vec XORs one of `columns`' multiples per column and unpacks `rows`
    # lanes; on random matrices over F2, F4 and F16 each output is the dot
    # product field.mul gives
    rng = random.Random(909)
    matrices = [random_matrix(rng, field, rows, cols)
                for field in (F2, F4, F16) for rows, cols in ((27, 13), (11, 5), (9, 9))]
    assert_mat_vec_matches_schoolbook(rng, matrices)


def test_mat_vec_matches_schoolbook_on_degenerate_and_bundled_matrices():
    # a 1x1, a one-column matrix, a matrix with no rows and one with no
    # columns (three zeros out), and every bundled T give one output per
    # row, each the dot product field.mul gives
    rng = random.Random(4141)
    matrices = [from_rows(F16, [[7]]), from_rows(F4, [[3], [0], [1], [2]]),
                Matrix(F16, 3, []), Matrix(F16, 0, [0, 0, 0])]
    for name in ("f16_13", "f4_5", "f2_5"):
        compiled = bundled(name)[1]
        matrices += [compiled.T, compiled.T_x, compiled.T_y, compiled.T_inv_top]
    assert_mat_vec_matches_schoolbook(rng, matrices)
    assert mat_vec(Matrix(F16, 3, []), [5, 6, 7]) == []
    assert mat_vec(Matrix(F16, 0, [0, 0, 0]), []) == [0, 0, 0]
