import random

import pytest

from singlab.errors import WindowExceedsBound
from singlab.fields import QQ
from singlab.findim import (
    FinDimAlgebra,
    matrix_algebra,
    truncated_polynomial_algebra,
    upper_triangular_algebra,
)
from singlab.hochschild import (
    CurvedAlgebra,
    HochschildComplexSpec,
    curvature_term_check,
    hochschild_cohomology,
    hochschild_homology,
    validate_curved,
)

ONE = QQ.one()


def dual_numbers():
    return CurvedAlgebra(truncated_polynomial_algebra(QQ, 2), "Z", [0, 0])


def clifford_one():
    alg = FinDimAlgebra(
        QQ,
        ["1", "t"],
        {
            (0, 0): {0: ONE},
            (0, 1): {1: ONE},
            (1, 0): {1: ONE},
            (1, 1): {0: -ONE},
        },
        0,
    )
    return CurvedAlgebra(alg, "Z2", [0, 1])


def curved_truncated(n=4, power=2):
    alg = truncated_polynomial_algebra(QQ, n)
    h = alg.zero_vector()
    h[power] = ONE
    return CurvedAlgebra(alg, "Z2", [0] * n, curvature=h)


def test_validate_uncurved_dg():
    ok, witness = validate_curved(dual_numbers())
    assert ok, witness


def test_validate_curved_truncation():
    ok, witness = validate_curved(curved_truncated())
    assert ok, witness


def test_validate_broken_leibniz_witness():
    # d(x) = 1 breaks both the ideal condition and Leibniz
    alg = truncated_polynomial_algebra(QQ, 2)
    bad = CurvedAlgebra(alg, "Z", [0, 0], diff={1: {0: ONE}})
    ok, witness = validate_curved(bad)
    assert not ok
    assert witness["check"] in ("leibniz", "d-degree")


def test_hh_of_base_field():
    base = CurvedAlgebra(truncated_polynomial_algebra(QQ, 1), "Z", [0])
    spec = HochschildComplexSpec(base, length_bound=6)
    hc = hochschild_cohomology(spec, [0, 1, 2, 3])
    assert hc.dims == {0: 1, 1: 0, 2: 0, 3: 0}


def test_hh_of_matrix_algebra_is_center():
    m2 = CurvedAlgebra(matrix_algebra(QQ, 2), "Z", [0, 0, 0, 0])
    spec = HochschildComplexSpec(m2, length_bound=3)
    hc = hochschild_cohomology(spec, [0, 1])
    assert hc.dims == {0: 1, 1: 0}
    # center solve oracle
    assert len(matrix_algebra(QQ, 2).center_basis()) == 1
    basis = hc.hh0_basis()
    assert len(basis) == 1


def test_hh0_equals_center_for_test_set():
    for alg in (matrix_algebra(QQ, 2), upper_triangular_algebra(QQ, 2)):
        curved = CurvedAlgebra(alg, "Z", [0] * alg.dim)
        spec = HochschildComplexSpec(curved, length_bound=3)
        hc = hochschild_cohomology(spec, [0])
        assert hc.dims[0] == len(alg.center_basis())


def test_hh_clifford_even_parity():
    spec = HochschildComplexSpec(clifford_one(), length_bound=6)
    hc = hochschild_cohomology(spec, [0, 1, 2, 3, 4])
    assert hc.dims == {0: 1, 1: 0, 2: 1, 3: 0, 4: 1}


def periodic_resolution_oracle(n_terms):
    """HH^i(Q[x]/x^2) via the 2-periodic bimodule resolution: the complex
    A -0-> A -2x-> A -0-> ... with A = Q[x]/x^2."""
    dims = []
    for i in range(n_terms):
        if i == 0:
            dims.append(2)  # ker(0) = A
        else:
            # ker/im alternate: ker(2x)/(im 0) = (x), A/(im 2x) = A/(x)
            dims.append(1)
    return dims


def test_hh_dual_numbers_cohomology():
    spec = HochschildComplexSpec(dual_numbers(), length_bound=6)
    hc = hochschild_cohomology(spec, [0, 1, 2, 3])
    assert [hc.dims[i] for i in range(4)] == periodic_resolution_oracle(4)


def test_hh_dual_numbers_homology():
    spec = HochschildComplexSpec(dual_numbers(), variant="CHAIN", length_bound=6)
    dims = hochschild_homology(spec, [0, 1, 2, 3])
    assert [dims[i] for i in range(4)] == [2, 1, 1, 1]


def test_terms_off_the_degree_are_dropped():
    # x*x = x^2 breaks the grading |x| = |x^2| = 1 (validate_curved refuses
    # it); cohomology still compares each degree with its neighbours only
    ungraded = CurvedAlgebra(truncated_polynomial_algebra(QQ, 3), "Z", [0, 1, 1])
    assert not validate_curved(ungraded)[0]
    spec = HochschildComplexSpec(ungraded, length_bound=5)
    assert hochschild_cohomology(spec, [0, 1, 2, 3]).dims == {
        0: 1, 1: 48, 2: 0, 3: 0
    }
    spec = HochschildComplexSpec(ungraded, variant="CHAIN", length_bound=5)
    assert hochschild_homology(spec, [0, 1, 2, 3]) == {0: 16, 1: 0, 2: 0, 3: 0}


def test_homology_of_base_field():
    base = CurvedAlgebra(truncated_polynomial_algebra(QQ, 1), "Z", [0])
    spec = HochschildComplexSpec(base, variant="CHAIN", length_bound=5)
    assert hochschild_homology(spec, [0, 1, 2]) == {0: 1, 1: 0, 2: 0}


def test_product_support_equals_sum_at_finite_truncation():
    a = curved_truncated(3, 2)
    dims = {}
    for support in ("SUM", "PRODUCT"):
        spec = HochschildComplexSpec(
            a, variant="CHAIN", support=support, length_bound=4
        )
        dims[support] = hochschild_homology(spec, [0, 1])
    assert dims["SUM"] == dims["PRODUCT"]


def test_curvature_check_uncurved_reduces_to_classical():
    spec = HochschildComplexSpec(dual_numbers(), length_bound=5)
    assert curvature_term_check(spec)


def test_curvature_check_curved():
    for spec in (
        HochschildComplexSpec(curved_truncated(), length_bound=5),
        HochschildComplexSpec(curved_truncated(), variant="CHAIN", length_bound=5),
        HochschildComplexSpec(curved_truncated(5, 4), length_bound=5),
    ):
        assert curvature_term_check(spec)


def test_curvature_check_randomised():
    rng = random.Random(29)
    for _ in range(5):
        n = rng.randint(3, 5)
        power = rng.choice([p for p in range(2, n) if p % 2 == 0])
        alg = truncated_polynomial_algebra(QQ, n)
        h = alg.zero_vector()
        h[power] = QQ.from_int(rng.randint(1, 5))
        if rng.random() < 0.5 and power + 1 < n:
            h[power + 1] = QQ.from_int(rng.randint(-3, 3))
        curved = CurvedAlgebra(alg, "Z2", [0] * n, curvature=h)
        ok, _ = validate_curved(curved)
        assert ok
        for variant in ("COCHAIN", "CHAIN"):
            spec = HochschildComplexSpec(curved, variant=variant, length_bound=4)
            assert curvature_term_check(spec)


def test_dims_stable_under_increasing_bound():
    for algebra in (dual_numbers(), clifford_one()):
        small = hochschild_cohomology(
            HochschildComplexSpec(algebra, length_bound=5), [0, 1, 2, 3]
        ).dims
        big = hochschild_cohomology(
            HochschildComplexSpec(algebra, length_bound=7), [0, 1, 2, 3]
        ).dims
        assert small == big


def test_window_bound_guard():
    spec = HochschildComplexSpec(dual_numbers(), length_bound=4)
    with pytest.raises(WindowExceedsBound):
        hochschild_cohomology(spec, [0, 1, 2, 3])
    chain = HochschildComplexSpec(dual_numbers(), variant="CHAIN", length_bound=4)
    with pytest.raises(WindowExceedsBound):
        hochschild_homology(chain, [3])


def test_unreduced_mode_cross_check():
    for algebra in (dual_numbers(), clifford_one()):
        reduced = hochschild_cohomology(
            HochschildComplexSpec(algebra, length_bound=5), [0, 1, 2]
        ).dims
        unreduced = hochschild_cohomology(
            HochschildComplexSpec(algebra, length_bound=5, reduced=False),
            [0, 1, 2],
        ).dims
        assert reduced == unreduced


def test_cup_product_square_of_hh0():
    # in HH^0 of the dual numbers the class of x squares to zero
    spec = HochschildComplexSpec(dual_numbers(), length_bound=5)
    hc = hochschild_cohomology(spec, [0, 1, 2])
    reps = hc.representatives[0]
    assert len(reps) == 2
    for rep in reps:
        sq = hc.cup(rep, 0, rep, 0)
        cls = hc.cohomology_class(sq, 0)
        assert cls is not None


def test_hh0_basis_spans_the_center():
    from singlab.linalg import matrix_from_columns

    for alg in (
        truncated_polynomial_algebra(QQ, 2),
        matrix_algebra(QQ, 2),
        upper_triangular_algebra(QQ, 2),
    ):
        curved = CurvedAlgebra(alg, "Z", [0] * alg.dim)
        spec = HochschildComplexSpec(curved, length_bound=3)
        basis = hochschild_cohomology(spec, [0]).hh0_basis()
        center = alg.center_basis()
        assert len(basis) == len(center)
        span = matrix_from_columns(QQ, center + basis, rows=alg.dim)
        assert span.rank() == len(center)


def clifford_one_one():
    """Cl_{1,1} with U, V odd: the cohomology algebra of the node."""
    one = QQ.one()
    return FinDimAlgebra(
        QQ,
        ["1", "U", "V", "W"],
        {
            (0, 0): {0: one}, (0, 1): {1: one}, (0, 2): {2: one},
            (0, 3): {3: one},
            (1, 0): {1: one}, (2, 0): {2: one}, (3, 0): {3: one},
            (1, 1): {0: -one}, (2, 2): {0: one},
            (1, 2): {3: one}, (2, 1): {3: -one},
            (1, 3): {2: -one}, (3, 1): {2: one},
            (2, 3): {1: -one}, (3, 2): {1: one},
            (3, 3): {0: one},
        },
        0,
    )


def test_hh_of_cl11_matches_milnor_of_the_node():
    # cross-pipeline consistency for sigma = x*y: the Milnor number is 1,
    # and the even-parity HH of the cohomology algebra Cl_{1,1} of its
    # stabilisation is 1 per slot as well (it is graded-Morita-trivial).
    # L = 3 suffices here; the dims are unchanged at L = 4.
    from singlab.polyring import Ring, milnor_algebra, parse_poly

    ring = Ring(("x", "y"))
    _, mu = milnor_algebra(parse_poly(ring, "x*y"))
    assert mu == 1
    curved = CurvedAlgebra(clifford_one_one(), "Z2", [0, 1, 1, 0])
    ok, _ = validate_curved(curved)
    assert ok
    spec = HochschildComplexSpec(curved, length_bound=3)
    hc = hochschild_cohomology(spec, [0, 1])
    assert hc.dims == {0: mu, 1: 0}
