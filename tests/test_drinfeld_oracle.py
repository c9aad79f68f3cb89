"""`DrinfeldComplex.differential` against the differential it replaced.

`solve_differential` is the earlier differential kept verbatim as the
oracle: dense coordinate tables filled by one `ExactMatrix.solve` per
product (`pair_products` / `coords`), and a `bump` per coordinate with the
sign multiplied in.  The sparse, pre-signed tables must give the same
`{key: coeff}` for every basis key.
"""

import time

import pytest

from singlab.errors import InputError
from singlab.fields import QQ, QQI, PrimeField
from singlab.findim import (
    FinDimAlgebra,
    endomorphism_algebra,
    idempotent_from_projection,
    matrix_algebra,
    truncated_polynomial_algebra,
    upper_triangular_algebra,
)
from singlab.linalg import ExactMatrix, matrix_from_columns
from singlab.quiverlab import drinfeld_cohomology, drinfeld_quotient

FIELDS = (QQ, QQI, PrimeField(7), PrimeField(32003))


# -- the oracle -------------------------------------------------------------


def coords(complex_, basis, vec):
    if not basis:
        return None
    mat = matrix_from_columns(complex_.algebra.field, basis,
                              rows=complex_.algebra.dim)
    return mat.solve(vec)


def pair_products(complex_, cache, left_basis, right_basis, target_basis):
    """[(left, right) -> coords in target] multiplication table."""
    key = (id(left_basis), id(right_basis), id(target_basis))
    cached = cache.get(key)
    if cached is not None:
        return cached
    table = {}
    for i, u in enumerate(left_basis):
        for j, v in enumerate(right_basis):
            prod = complex_.algebra.multiply(u, v)
            if target_basis is None:
                table[(i, j)] = prod  # full A coordinates
            else:
                c = coords(complex_, target_basis, prod)
                if c is None:
                    raise InputError("product leaves the subspace")
                table[(i, j)] = c
    cache[key] = table
    return table


def solve_differential(complex_, key, degree, cache):
    """d of a tensor basis element at the given degree: {key: coeff}."""
    self = complex_
    field = self.algebra.field
    out = {}
    if degree == 0:
        return out
    i = -degree - 1
    a0 = key[0]
    mids = key[1:-1]
    b0 = key[-1]

    def bump(tkey, coeff):
        if not coeff:
            return
        cur = out.get(tkey, field.zero()) + coeff
        if cur:
            out[tkey] = cur
        else:
            out.pop(tkey, None)

    if i == 0:
        ends = pair_products(self, cache, self.ae, self.ea, None)
        prod = ends[(a0, b0)]
        for k, c in enumerate(prod):
            bump((k,), c)
        return out
    # join 0: (ae * r_1)
    left = pair_products(self, cache, self.ae, self.r, self.ae)
    for k, c in enumerate(left[(a0, mids[0])]):
        bump((k,) + mids[1:] + (b0,), c)
    # inner joins
    mid = pair_products(self, cache, self.r, self.r, self.r)
    for j in range(len(mids) - 1):
        sign = field.from_int(-1 if (j + 1) % 2 else 1)
        for k, c in enumerate(mid[(mids[j], mids[j + 1])]):
            bump(
                (a0,) + mids[:j] + (k,) + mids[j + 2 :] + (b0,),
                sign * c,
            )
    # last join: (r_i * ea)
    right = pair_products(self, cache, self.r, self.ea, self.ea)
    sign = field.from_int(-1 if i % 2 else 1)
    for k, c in enumerate(right[(mids[-1], b0)]):
        bump((a0,) + mids[:-1] + (k,), sign * c)
    return out


# -- algebras ---------------------------------------------------------------


def end_r_plus_k(field):
    """End_R(R (+) k) for R = k[x]/x^2, with e = id_R (criterion 08)."""
    x_action = ExactMatrix.from_rows(field, [[0, 0, 0], [1, 0, 0], [0, 0, 0]])
    alg, mats = endomorphism_algebra(field, [x_action], 3)
    return alg, idempotent_from_projection(alg, mats, 3, [0, 1])


def cube_unit(field):
    a = truncated_polynomial_algebra(field, 3)
    return a, a.unit_vector()


def cube_zero(field):
    a = truncated_polynomial_algebra(field, 3)
    return a, a.zero_vector()


def matrices_e11(field):
    a = matrix_algebra(field, 2)
    return a, a.element({"E11": 1})


def triangular_e11_e22(field):
    a = upper_triangular_algebra(field, 3)
    return a, a.element({"E11": 1, "E22": 1})


ALGEBRAS = (
    end_r_plus_k, cube_unit, cube_zero, matrices_e11, triangular_e11_e22
)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("make", ALGEBRAS, ids=lambda f: f.__name__)
def test_differential_matches_solve_oracle(make, field):
    alg, e = make(field)
    d = drinfeld_quotient(alg, e, 5)
    cache = {}
    keys = 0
    for deg in (-1, -2, -3, -4):
        for key in d.component_basis(deg):
            assert d.differential(key, deg) == solve_differential(
                d, key, deg, cache
            ), (deg, key)
            keys += 1
    assert keys == sum(d.dims()[deg] for deg in (-1, -2, -3, -4))


def non_associative():
    """Basis u (unit), f, y: f.f = f, f.y = f + y, y.f = u + y, y.y = u + y.
    f is idempotent, but f.y.f lies outside fAf."""
    one = QQ.one()
    mult = {}
    for b in range(3):
        mult[(0, b)] = {b: one}
        mult[(b, 0)] = {b: one}
    mult[(1, 1)] = {1: one}
    mult[(1, 2)] = {1: one, 2: one}
    mult[(2, 1)] = {0: one, 2: one}
    mult[(2, 2)] = {0: one, 2: one}
    alg = FinDimAlgebra(QQ, ["u", "f", "y"], mult, 0)
    return alg, alg.basis_vector(1)


def test_product_leaving_the_subspace_is_input_error():
    alg, e = non_associative()
    d = drinfeld_quotient(alg, e, 4)
    with pytest.raises(InputError, match="leaves the subspace"):
        solve_differential(d, (0, 0, 0), -2, {})
    with pytest.raises(InputError, match="leaves the subspace"):
        d.differential((0, 0, 0), -2)


def test_cohomology_makes_no_solve(monkeypatch):
    alg, e = end_r_plus_k(QQ)

    def no_solve(self, rhs):
        raise AssertionError("ExactMatrix.solve called")

    monkeypatch.setattr(ExactMatrix, "solve", no_solve)
    d = drinfeld_quotient(alg, e, 7)
    window = [0, -1, -2, -3, -4]
    assert drinfeld_cohomology(d, window) == {j: 1 for j in window}


def test_drinfeld_end_algebra_depth_12_budget():
    alg, e = end_r_plus_k(QQ)
    start = time.perf_counter()
    d = drinfeld_quotient(alg, e, 12)
    window = list(range(0, -11, -1))
    dims = drinfeld_cohomology(d, window)
    elapsed = time.perf_counter() - start
    assert dims == {j: 1 for j in window}
    assert elapsed < 1.5, f"depth 12 took {elapsed:.2f} s"
