import random
from fractions import Fraction
from itertools import combinations

import pytest

from singlab.errors import FieldMismatch
from singlab.fields import QQ, GaussianRational, QQI, PrimeField
from singlab.linalg import ExactMatrix, SpanBuilder, matrix_from_columns


def rank_by_minors(mat):
    """Brute-force rank: largest k with a nonzero k x k minor."""

    def det(rows, cols):
        if not rows:
            return mat.field.one()
        r = rows[0]
        acc = mat.field.zero()
        for pos, c in enumerate(cols):
            sub = det(rows[1:], cols[:pos] + cols[pos + 1 :])
            term = mat.entry(r, c) * sub
            acc = acc + (term if pos % 2 == 0 else -term)
        return acc

    for k in range(min(mat.rows, mat.cols), 0, -1):
        for rows in combinations(range(mat.rows), k):
            for cols in combinations(range(mat.cols), k):
                if det(list(rows), list(cols)):
                    return k
    return 0


def test_rref_identity():
    m = ExactMatrix.identity(QQ, 2)
    red, pivots = m.rref()
    assert red == m
    assert pivots == (0, 1)


def test_rref_proportional_rows():
    m = ExactMatrix.from_rows(QQ, [[1, 2], [2, 4]])
    assert m.rank() == 1


def test_rref_random_gf7_vs_minor_oracle():
    rng = random.Random(11)
    p7 = PrimeField(7)
    for _ in range(6):
        rows = [[p7.from_int(rng.randrange(7)) for _ in range(5)] for _ in range(5)]
        m = ExactMatrix.from_rows(p7, rows)
        assert m.rank() == rank_by_minors(m)


def test_rref_idempotent():
    rng = random.Random(3)
    for _ in range(5):
        rows = [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4)]
            for _ in range(3)
        ]
        m = ExactMatrix.from_rows(QQ, rows)
        red, _ = m.rref()
        again, _ = red.rref()
        assert again == red


def test_kernel_zero_and_identity():
    z = ExactMatrix.zero(QQ, 3, 3)
    assert len(z.kernel_basis()) == 3
    assert ExactMatrix.identity(QQ, 3).kernel_basis() == []


def test_kernel_one_by_two():
    m = ExactMatrix.from_rows(QQ, [[1, 1]])
    (v,) = m.kernel_basis()
    assert v[0] * Fraction(-1) == v[1]


def test_kernel_members_and_rank_nullity():
    rng = random.Random(5)
    for _ in range(8):
        rows = [
            [Fraction(rng.randint(-3, 3)) for _ in range(5)] for _ in range(3)
        ]
        m = ExactMatrix.from_rows(QQ, rows)
        basis = m.kernel_basis()
        assert m.rank() + len(basis) == m.cols
        for v in basis:
            assert all(not x for x in m.apply(v))


def test_gaussian_elimination():
    i = GaussianRational(0, 1)
    m = ExactMatrix.from_rows(QQI, [[i, QQI.one()], [QQI.one(), -i]])
    assert m.rank() == 1
    (v,) = m.kernel_basis()
    assert all(not x for x in m.apply(v))


def test_field_mismatch():
    with pytest.raises(FieldMismatch):
        ExactMatrix(1, 1, {(0, 0): PrimeField(5).from_int(2)}, QQ)


def test_solve():
    m = ExactMatrix.from_rows(QQ, [[1, 2], [3, 4]])
    x = m.solve([Fraction(5), Fraction(11)])
    assert m.apply(x) == [Fraction(5), Fraction(11)]
    inconsistent = ExactMatrix.from_rows(QQ, [[1, 1], [1, 1]])
    assert inconsistent.solve([Fraction(0), Fraction(1)]) is None


def test_matmul_and_columns():
    a = ExactMatrix.from_rows(QQ, [[1, 2], [0, 1]])
    b = ExactMatrix.from_rows(QQ, [[1, 0], [3, 1]])
    assert (a @ b) == ExactMatrix.from_rows(QQ, [[7, 2], [3, 1]])
    cols = matrix_from_columns(QQ, [[QQ.one(), QQ.zero()]])
    assert cols.rows == 2 and cols.cols == 1


def test_deterministic_iteration():
    m = ExactMatrix.from_rows(QQ, [[0, 1], [2, 0]])
    assert [k for k, _ in m.items()] == [(0, 1), (1, 0)]


def test_rref_random_rational_vs_minor_oracle():
    rng = random.Random(19)
    for _ in range(4):
        rows = [
            [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(4)]
            for _ in range(3)
        ]
        m = ExactMatrix.from_rows(QQ, rows)
        assert m.rank() == rank_by_minors(m)


def test_int_entries_over_rationals():
    # RAT accepts plain ints; they are stored as Fractions so that
    # elimination never divides two ints into a float.
    m = ExactMatrix(1, 1, {(0, 0): 1}, QQ)
    assert m.solve([2]) == [Fraction(2)]
    m = ExactMatrix(2, 3, {(0, 0): 2, (0, 1): 4, (1, 1): 2, (1, 2): 3}, QQ)
    assert all(type(v) is Fraction for v in m.entries.values())
    red, pivots = m.rref()
    assert pivots == (0, 1)
    assert red == ExactMatrix.from_rows(
        QQ, [[1, 0, Fraction(-3)], [0, 1, Fraction(3, 2)]]
    )
    (v,) = m.kernel_basis()
    assert v == [Fraction(3), Fraction(-3, 2), Fraction(1)]
    x = m.solve([6, 5])
    assert m.apply(x) == [Fraction(6), Fraction(5)]
    span = SpanBuilder(QQ)
    assert span.add({0: 2, 1: 4})
    assert not span.add({0: 1, 1: 2, 2: 0})
    assert span.add({1: 2, 2: 3})
    assert span.rank == 2
    assert span.contains({0: 3, 1: 4, 2: -3})
    assert not span.contains({2: 1})
