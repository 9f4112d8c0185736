import random

import pytest

from curvemul.galois import F2, F4, F16
from curvemul.linalg import Matrix, SingularMatrixError, invert, mat_vec, rank


def unit_vectors(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def random_matrix(rng, field, rows, cols):
    return Matrix(field, rows, cols, [rng.randrange(field.order) for _ in range(rows * cols)])


def test_shape_validation():
    with pytest.raises(ValueError):
        Matrix(F4, 2, 2, [1, 2, 3])
    with pytest.raises(ValueError):
        Matrix.from_rows(F4, [[1, 2], [3]])
    with pytest.raises(ValueError):
        Matrix(F4, 1, 1, [7])  # not an F_4 element


def test_rank_examples():
    assert rank(Matrix.from_rows(F16, unit_vectors(5))) == 5
    assert rank(Matrix(F4, 2, 3, [0] * 6)) == 0
    # second row is a times the first over F_4
    m = Matrix.from_rows(F4, [[1, 2, 3], [2, 3, 1]])
    assert rank(m) == 1
    m = Matrix.from_rows(F2, [[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    assert rank(m) == 2  # rows sum to zero


def test_rank_row_operation_invariance():
    rng = random.Random(321)
    for _ in range(40):
        field = rng.choice([F2, F4, F16])
        m = random_matrix(rng, field, rng.randrange(1, 6), rng.randrange(1, 6))
        r = rank(m)
        # add a multiple of one row to another; rank must not move
        rows = [list(m.row(i)) for i in range(m.rows)]
        if m.rows >= 2:
            i, j = rng.sample(range(m.rows), 2)
            c = rng.randrange(field.order)
            rows[i] = [a ^ field.mul(c, b) for a, b in zip(rows[i], rows[j])]
            assert rank(Matrix.from_rows(field, rows)) == r
        # appending a linear combination of rows keeps rank
        comb = [0] * m.cols
        for i in range(m.rows):
            c = rng.randrange(field.order)
            comb = [a ^ field.mul(c, b) for a, b in zip(comb, rows[i])]
        assert rank(Matrix.from_rows(field, rows + [comb])) == r


def test_invert_examples():
    # diag(a, a^2) over F_4 inverts to diag(a^2, a)
    m = Matrix.from_rows(F4, [[2, 0], [0, 3]])
    assert invert(m) == Matrix.from_rows(F4, [[3, 0], [0, 2]])
    # an F_2 involution
    m = Matrix.from_rows(F2, [[1, 1], [0, 1]])
    assert invert(m) == m
    with pytest.raises(SingularMatrixError):
        invert(Matrix.from_rows(F4, [[1, 2], [2, 3]]))  # row2 = a*row1
    with pytest.raises(SingularMatrixError):
        invert(Matrix(F4, 2, 3, [0] * 6))


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
    m = Matrix.from_rows(F4, [[1, 2], [3, 0], [0, 0]])
    assert mat_vec(m, [1, 1]) == [3, 3, 0]
    assert mat_vec(m, [0, 2]) == [F4.mul(2, 2), 0, 0]
    with pytest.raises(ValueError):
        mat_vec(m, [1, 2, 3])


def test_take_columns():
    m = Matrix.from_rows(F4, [[0, 1, 2, 3], [3, 2, 1, 0]])
    sub = m.take_columns([0, 2])
    assert sub == Matrix.from_rows(F4, [[0, 2], [3, 1]])
    v = [2, 3]
    # multiplying the submatrix equals embedding zeros in the skipped columns
    assert mat_vec(sub, v) == mat_vec(m, [2, 0, 3, 0])
