"""`linalg.cohomology_at` and the on-demand bar differential against the
dense bookkeeping they replaced.

`dense_cohomology` is the kernel/image code the algebra modules carried
before they shared `cohomology_at`, kept verbatim as the oracle: dense
columns, `kernel_basis`, `rank(im)`, and the rref of [image | kernel] whose
pivot columns after the image block pick the representatives.
`eager_bar_deltas` is the bar differential as `BarComplex` used to
precompute it for every word.
"""

import json
import time
from itertools import product as iproduct

from hypothesis import given, settings
from hypothesis import strategies as st

from singlab import cli
from singlab.fields import QQ, QQI, GaussianRational, PrimeField
from singlab.findim import FinDimAlgebra, truncated_polynomial_algebra
from singlab.koszuldual import AugmentedAlgebra, bar
from singlab.linalg import cohomology_at, matrix_from_columns

FIELDS = (QQ, QQI, PrimeField(7), PrimeField(32003))


def dense_cohomology(field, cycles, delta, boundaries):
    """(dim, reps) by the dense bookkeeping; reps as {key: coeff}."""
    if not cycles:
        return 0, []
    tgt = []
    for key in cycles:
        tgt.extend(t for t in delta(key) if t not in tgt)
    tgt_index = {t: i for i, t in enumerate(tgt)}
    cols = []
    for key in cycles:
        vec = [field.zero()] * len(tgt)
        for t, c in delta(key).items():
            vec[tgt_index[t]] = vec[tgt_index[t]] + c
        cols.append(vec)
    kernel = matrix_from_columns(field, cols, rows=len(tgt)).kernel_basis()
    space = list(cycles)
    for key in boundaries:
        space.extend(t for t in delta(key) if t not in space)
    amb_index = {key: i for i, key in enumerate(space)}
    amb = len(space)
    kvecs = []
    for kv in kernel:
        vec = [field.zero()] * amb
        for j, key in enumerate(cycles):
            if kv[j]:
                vec[amb_index[key]] = kv[j]
        kvecs.append(vec)
    ivecs = []
    for key in boundaries:
        vec = [field.zero()] * amb
        hit = False
        for t, c in delta(key).items():
            pos = amb_index.get(t)
            if pos is not None and c:
                vec[pos] = vec[pos] + c
                hit = True
        if hit:
            ivecs.append(vec)
    rank_i = matrix_from_columns(field, ivecs, rows=amb).rank() if ivecs else 0
    _, pivots = matrix_from_columns(field, ivecs + kvecs, rows=amb).rref()
    chosen = [kvecs[p - len(ivecs)] for p in pivots if p >= len(ivecs)]
    reps = [{space[i]: v for i, v in enumerate(vec) if v} for vec in chosen]
    return len(pivots) - rank_i, reps


SCALARS = st.one_of(st.just(0), st.integers(-3, 3))


def _scalar(draw, field):
    v = field.from_int(draw(SCALARS))
    if field == QQI and draw(st.booleans()):
        v = v + GaussianRational(0, draw(st.integers(-2, 2)))
    return v


def _matrix(draw, field, rows, cols):
    """A rows x cols list of lists of rank at most a drawn bound."""
    rank = draw(st.integers(0, min(rows, cols, 3)))
    left = [[_scalar(draw, field) for _ in range(rank)] for _ in range(rows)]
    right = [[_scalar(draw, field) for _ in range(cols)] for _ in range(rank)]
    zero = field.zero()
    return [
        [sum((left[r][k] * right[k][c] for k in range(rank)), zero)
         for c in range(cols)]
        for r in range(rows)
    ]


@st.composite
def complexes(draw):
    """(field, cycles, delta, boundaries) of a small complex B -> S -> T.

    The spot S has keys ("s", i); d: S -> T is defined on its first
    `len(cycles)` keys only, as at the length bound of a truncated
    complex.  In a genuine complex every boundary is a combination of
    cycles; in a truncated one it is any vector of S, so the image need
    not lie in the kernel."""
    field = draw(st.sampled_from(FIELDS))
    n_spot = draw(st.integers(0, 6))
    n_cyc = draw(st.integers(0, n_spot))
    n_tgt = draw(st.integers(0, 5))
    n_bnd = draw(st.integers(0, 5))
    d1 = _matrix(draw, field, n_tgt, n_cyc)
    columns = {
        ("s", i): {("t", r): d1[r][i] for r in range(n_tgt) if d1[r][i]}
        for i in range(n_cyc)
    }
    if draw(st.booleans()):
        cols = [[d1[r][i] for r in range(n_tgt)] for i in range(n_cyc)]
        kernel = matrix_from_columns(field, cols, rows=n_tgt).kernel_basis()
        mix = _matrix(draw, field, n_bnd, len(kernel))
        images = [
            [sum((mix[b][k] * kernel[k][i] for k in range(len(kernel))),
                 field.zero()) for i in range(n_cyc)]
            for b in range(n_bnd)
        ]
    else:
        images = _matrix(draw, field, n_bnd, n_spot)
    for b, img in enumerate(images):
        columns[("b", b)] = {("s", i): v for i, v in enumerate(img) if v}
    cycles = [("s", i) for i in range(n_cyc)]
    boundaries = [("b", b) for b in range(n_bnd)]
    return field, cycles, columns.__getitem__, boundaries


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(complexes())
def test_cohomology_at_matches_dense_oracle(data):
    field, cycles, delta, boundaries = data
    dim, reps = cohomology_at(field, cycles, delta, boundaries)
    want_dim, want_reps = dense_cohomology(field, cycles, delta, boundaries)
    assert dim == want_dim == len(reps)
    assert [list(r.items()) for r in reps] == [
        list(r.items()) for r in want_reps
    ]


def test_truncated_complex_counts_image_outside_kernel():
    # d(s0) = t, d(s1) = 0; the boundary s0 + s1 is not a cycle, so only
    # the span of cycles and boundaries together decides the count
    delta = {
        "s0": {"t": QQ.one()},
        "s1": {},
        "b": {"s0": QQ.one(), "s1": QQ.one()},
    }.__getitem__
    assert cohomology_at(QQ, ["s0", "s1"], delta, ["b"]) == (
        1, [{"s1": QQ.one()}]
    )
    assert dense_cohomology(QQ, ["s0", "s1"], delta, ["b"])[0] == 1


# -- the bar differential ------------------------------------------------------


def eager_bar_deltas(aug, length_bound):
    """{word: d(word)} for every word, as BarComplex used to precompute it."""
    letters = aug.abar()
    field = aug.field
    alg = aug.algebra

    def prefix(word, upto):
        return sum(aug.deg(i) - 1 for i in word[:upto])

    out = {}
    for n in range(length_bound + 1):
        for w in iproduct(letters, repeat=n):
            d_i = {}
            for j in range(n):
                pre = -1 if prefix(w, j) % 2 else 1
                for k, c in aug.diff.get(w[j], {}).items():
                    tw = w[:j] + (k,) + w[j + 1 :]
                    cur = d_i.get(tw, field.zero()) + pre * c
                    if cur:
                        d_i[tw] = cur
                    else:
                        d_i.pop(tw, None)
            d_e = {}
            for j in range(n - 1):
                pre = prefix(w, j)
                sj = aug.deg(w[j])
                sign = -1 if (pre + sj) % 2 else 1
                for k, c in alg.product_basis(w[j], w[j + 1]).items():
                    tw = w[:j] + (k,) + w[j + 2 :]
                    cur = d_e.get(tw, field.zero()) + sign * c
                    if cur:
                        d_e[tw] = cur
                    else:
                        d_e.pop(tw, None)
            full = {}
            for part in (d_i, d_e):
                for tw, c in part.items():
                    cur = full.get(tw, field.zero()) + c
                    if cur:
                        full[tw] = cur
                    else:
                        full.pop(tw, None)
            out[w] = full
    return out


def _dg_square_zero(field):
    """Basis 1, x, y with x*x = x*y = ... = 0 and d(x) = y, |x| = -1."""
    one = field.one()
    mult = {(0, 0): {0: one}, (0, 1): {1: one}, (1, 0): {1: one},
            (0, 2): {2: one}, (2, 0): {2: one}}
    alg = FinDimAlgebra(field, ["1", "x", "y"], mult, 0)
    return AugmentedAlgebra(alg, [0, -1, 0], diff={1: {2: one}})


def test_on_demand_bar_delta_matches_eager_oracle():
    cases = []
    for field in (QQ, PrimeField(7)):
        for n, degrees in ((2, [0, 0]), (3, [0, 0, 0]), (3, [0, 1, 2]),
                           (4, [0, -1, -2, -3])):
            alg = truncated_polynomial_algebra(field, n)
            cases.append(AugmentedAlgebra(alg, degrees))
        cases.append(_dg_square_zero(field))
    for aug in cases:
        bc = bar(aug, 4)
        want = eager_bar_deltas(aug, 4)
        words = [w for piece in bc.pieces.values() for w in piece.basis]
        assert words == list(want)
        for w in words:
            assert list(bc.delta(w).items()) == list(want[w].items())


def test_koszul_dual_long_truncation_budget(tmp_path, capsys):
    # Only the degrees in the window have their differentials computed, so
    # the 2^17 words of a length-16 truncation cost little beyond listing.
    doc = {
        "basis": ["1", "x", "x2"],
        "unit": "1",
        "products": {
            "1,1": {"1": "1"}, "1,x": {"x": "1"}, "x,1": {"x": "1"},
            "1,x2": {"x2": "1"}, "x2,1": {"x2": "1"}, "x,x": {"x2": "1"},
        },
    }
    path = tmp_path / "x3.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    status = cli.main(
        ["koszul-dual", str(path), "--trunc", "16", "--window", "0:3"]
    )
    elapsed = time.perf_counter() - start
    assert status == 0
    assert json.loads(capsys.readouterr().out)["dims"] == {
        "0": 1, "1": 1, "2": 1, "3": 1
    }
    assert elapsed < 2.0, elapsed
