"""Sparse rref against an independent dense elimination oracle.

`dense_rref` is fraction-free (Bareiss) elimination on dense rows with
denominators cleared, normalised and back-substituted at the end.  It
shares no code with the sparse kernel in `singlab.linalg`; since the
reduced row echelon form is unique, both must agree exactly.
"""

import random
from fractions import Fraction
from math import lcm

from hypothesis import given, settings
from hypothesis import strategies as st

from singlab.fields import QQ, QQI, GaussianRational, PrimeField
from singlab.linalg import ExactMatrix

GF = PrimeField(32003)
FIELDS = (QQ, QQI, GF, PrimeField(2), PrimeField(7))
SMALL_PRIMES = tuple(PrimeField(p) for p in (2, 3, 5, 7))
LARGE_PRIMES = tuple(PrimeField(p) for p in (1000003, 998244353, 2147483647))


def dense_rref(mat):
    """(rref matrix, pivots) of `mat` by dense Bareiss elimination."""
    field = mat.field
    m, n = mat.rows, mat.cols
    work = [[field.zero()] * n for _ in range(m)]
    for (r, c), v in mat.entries.items():
        work[r][c] = v
    if not isinstance(field, PrimeField):
        for r, row in enumerate(work):
            dens = []
            for v in row:
                if isinstance(v, GaussianRational):
                    dens += [v.re.denominator, v.im.denominator]
                else:
                    dens.append(v.denominator)
            scale = lcm(*dens) if dens else 1
            work[r] = [v * scale for v in row]
    pivots = []
    piv_r = 0
    prev = None
    for c in range(n):
        pr = next((r for r in range(piv_r, m) if work[r][c]), None)
        if pr is None:
            continue
        work[piv_r], work[pr] = work[pr], work[piv_r]
        piv = work[piv_r][c]
        for r in range(piv_r + 1, m):
            x = work[r][c]
            for j in range(c, n):
                val = piv * work[r][j] - x * work[piv_r][j]
                work[r][j] = val / prev if prev is not None else val
        prev = piv
        pivots.append(c)
        piv_r += 1
        if piv_r == m:
            break
    for i in range(len(pivots) - 1, -1, -1):
        c = pivots[i]
        piv = work[i][c]
        work[i] = [v / piv for v in work[i]]
        for r in range(i):
            x = work[r][c]
            if x:
                work[r] = [a - x * b for a, b in zip(work[r], work[i])]
    entries = {
        (r, c): work[r][c] for r in range(m) for c in range(n) if work[r][c]
    }
    return ExactMatrix(m, n, entries, field), tuple(pivots)


def assert_matches_oracle(mat):
    red, pivots = mat.rref()
    want_red, want_pivots = dense_rref(mat)
    assert pivots == want_pivots
    assert red == want_red
    assert all(mat.field.contains(v) for v in red.entries.values())


# -- random matrices --------------------------------------------------------------

RATIONALS = st.one_of(
    st.just(0),
    st.integers(-3, 3),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
)


def scalar(field, value):
    """Map a rational drawn by hypothesis into `field`."""
    value = Fraction(value)
    if isinstance(field, PrimeField):
        num = field.from_int(value.numerator)
        if value.denominator % field.p:
            return num / field.from_int(value.denominator)
        return num
    if field == QQI:
        return GaussianRational(value)
    return value


@st.composite
def matrices(draw):
    field = draw(st.sampled_from(FIELDS))
    rows = draw(st.integers(0, 6))
    cols = draw(st.integers(0, 6))
    density = draw(st.sampled_from((0.0, 0.2, 0.5, 1.0)))
    entries = {}
    for r in range(rows):
        for c in range(cols):
            if draw(st.floats(0, 1)) < density:
                v = scalar(field, draw(RATIONALS))
                if field == QQI and draw(st.booleans()):
                    v = v + GaussianRational(0, draw(RATIONALS))
                entries[(r, c)] = v
    return ExactMatrix(rows, cols, entries, field)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(matrices())
def test_sparse_rref_matches_dense_oracle(mat):
    assert_matches_oracle(mat)


def random_matrix(rng, field, rows, cols, density=0.4):
    entries = {}
    for r in range(rows):
        for c in range(cols):
            if rng.random() < density:
                v = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                v = scalar(field, v)
                if field == QQI and rng.random() < 0.5:
                    v = v + GaussianRational(0, rng.randint(-2, 2))
                entries[(r, c)] = v
    return ExactMatrix(rows, cols, entries, field)


def low_rank_matrix(rng, field, rows, cols, rank):
    """A product (rows x rank) @ (rank x cols): rank at most `rank`."""
    left = random_matrix(rng, field, rows, rank, density=0.7)
    right = random_matrix(rng, field, rank, cols, density=0.7)
    return left @ right


def test_oracle_agreement_on_seeded_shapes():
    rng = random.Random(20260)
    for field in (QQ, QQI, GF):
        shapes = [
            ExactMatrix.zero(field, 0, 0),
            ExactMatrix.zero(field, 0, 4),
            ExactMatrix.zero(field, 4, 0),
            ExactMatrix.zero(field, 5, 7),
            ExactMatrix.identity(field, 6),
            random_matrix(rng, field, 14, 4),   # tall
            random_matrix(rng, field, 4, 14),   # wide
            random_matrix(rng, field, 12, 12, density=0.15),
            low_rank_matrix(rng, field, 10, 9, 3),
            low_rank_matrix(rng, field, 7, 13, 5),
        ]
        for mat in shapes:
            assert_matches_oracle(mat)
            # the reduced matrix is its own rref
            red, pivots = mat.rref()
            assert dense_rref(red) == (red, pivots)
        for k in range(4):
            mat = low_rank_matrix(rng, field, 9, 8, k)
            assert mat.rank() <= k
            assert_matches_oracle(mat)


# -- rank over QQ against rank over GF(p) ----------------------------------------


def integer_matrix(rng, rows, cols, rank=None):
    if rank is None:
        return [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
    left = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(rows)]
    right = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rank)]
    return [
        [sum(left[r][k] * right[k][c] for k in range(rank)) for c in range(cols)]
        for r in range(rows)
    ]


def test_rank_mod_p_bounded_by_rank_over_rationals():
    rng = random.Random(31)
    for _ in range(12):
        rows, cols = rng.randint(1, 9), rng.randint(1, 9)
        rank = rng.choice((None, 1, 2, 3))
        data = integer_matrix(rng, rows, cols, rank)
        rat_rank = ExactMatrix.from_rows(QQ, data).rank()
        for gf in SMALL_PRIMES:
            assert ExactMatrix.from_rows(gf, data).rank() <= rat_rank
        for gf in LARGE_PRIMES:
            assert ExactMatrix.from_rows(gf, data).rank() == rat_rank
