import pytest

from singlab.errors import NotAugmented, WindowExceedsBound
from singlab.fields import QQ
from singlab.findim import FinDimAlgebra, truncated_polynomial_algebra
from singlab.koszuldual import (
    AugmentedAlgebra,
    ConilpotentCoalgebra,
    bar,
    bar_coalgebra,
    cobar,
    counit_h0_check,
    dual_algebra,
    dual_coalgebra,
    koszul_dual_cohomology,
)

ONE = QQ.one()


def square_zero(degree=0):
    alg = FinDimAlgebra(
        QQ,
        ["1", "e"],
        {
            (0, 0): {0: ONE},
            (0, 1): {1: ONE},
            (1, 0): {1: ONE},
            (1, 1): {},
        },
        0,
    )
    return AugmentedAlgebra(alg, [0, degree])


def eps_cubed():
    return AugmentedAlgebra(truncated_polynomial_algebra(QQ, 3), [0, 0, 0])


def test_bar_of_base_field_is_trivial():
    base = AugmentedAlgebra(truncated_polynomial_algebra(QQ, 1), [0])
    bc = bar(base, 4)
    assert len(bc.pieces[0].basis) == 1
    for n in range(1, 5):
        assert bc.pieces[n].basis == []


def test_bar_pieces_of_square_zero():
    bc = bar(square_zero(), 5)
    for n in range(6):
        assert len(bc.pieces[n].basis) == 1
        if n:
            assert bc.pieces[n].degrees == [-n]


def test_bar_external_differential_kills_eps_eps():
    bc = bar(square_zero(), 3)
    word = bc.pieces[2].basis[0]
    assert bc.delta(word) == {}  # eps^2 = 0


def test_bar_differential_squares_to_zero():
    for aug, bound in ((square_zero(), 5), (eps_cubed(), 4)):
        bc = bar(aug, bound)
        for n, piece in bc.pieces.items():
            for w in piece.basis:
                acc = {}
                for tw, c in bc.delta(w).items():
                    for tw2, c2 in bc.delta(tw).items():
                        acc[tw2] = acc.get(tw2, QQ.zero()) + c * c2
                assert not any(acc.values())


def test_bar_requires_augmented():
    cl = FinDimAlgebra(
        QQ,
        ["1", "t"],
        {
            (0, 0): {0: ONE},
            (0, 1): {1: ONE},
            (1, 0): {1: ONE},
            (1, 1): {0: -ONE},  # t*t = -1 meets the unit
        },
        0,
    )
    with pytest.raises(NotAugmented):
        AugmentedAlgebra(cl, [0, 1])


def test_koszul_dual_of_square_zero_degree_zero():
    kd = koszul_dual_cohomology(square_zero(), 6, [0, 1, 2, 3, 4])
    assert kd.dims == {0: 1, 1: 1, 2: 1, 3: 1, 4: 1}
    # one generator whose powers stay nonzero across the window
    x = kd.functional(1, 0)
    power = x
    for n in range(2, 5):
        power = kd.convolve(power, x, g_degree=1)
        cls = kd.class_of(power, n)
        assert cls is not None and any(cls)


def test_koszul_dual_of_base_field():
    base = AugmentedAlgebra(truncated_polynomial_algebra(QQ, 1), [0])
    kd = koszul_dual_cohomology(base, 5, [0, 1, 2, 3])
    assert kd.dims == {0: 1, 1: 0, 2: 0, 3: 0}


def test_koszul_dual_of_square_zero_negative_degree():
    kd = koszul_dual_cohomology(square_zero(-1), 6, [0, 1, 2, 3, 4])
    assert kd.dims == {0: 1, 1: 0, 2: 1, 3: 0, 4: 1}


def test_koszul_dual_dims_stable_in_bound():
    small = koszul_dual_cohomology(square_zero(), 5, [0, 1, 2, 3]).dims
    big = koszul_dual_cohomology(square_zero(), 7, [0, 1, 2, 3]).dims
    assert small == big
    with pytest.raises(WindowExceedsBound):
        koszul_dual_cohomology(square_zero(), 4, [0, 1, 2, 3])


def test_deconcatenation_coassociativity():
    co = bar_coalgebra(bar(eps_cubed(), 4))
    assert co.check_coassociative()
    assert co.check_conilpotent()


def test_cobar_of_base_field():
    base = AugmentedAlgebra(truncated_polynomial_algebra(QQ, 1), [0])
    co = dual_coalgebra(base)
    om = cobar(co, 4)
    assert om.words == [()]


def test_cobar_word_length_one_differential_is_dual_comultiplication():
    aug = AugmentedAlgebra(truncated_polynomial_algebra(QQ, 4), [0, 0, 0, 0])
    co = dual_coalgebra(aug)
    om = cobar(co, 3)
    for letter in co.coideal():
        image = om.delta((letter,))
        expected = {}
        for (a, b), coeff in co.reduced_delta.get(letter, {}).items():
            sign = -1 if (co.degrees[a] + 1) % 2 else 1
            expected[(a, b)] = expected.get((a, b), QQ.zero()) + sign * coeff
        assert image == {k: v for k, v in expected.items() if v}


def test_cobar_differential_squares_to_zero():
    aug = AugmentedAlgebra(truncated_polynomial_algebra(QQ, 4), [0, 0, 0, 0])
    for coalg, bound in (
        (dual_coalgebra(aug), 4),
        (bar_coalgebra(bar(eps_cubed(), 4)), 4),
    ):
        om = cobar(coalg, bound)
        for w in om.words:
            acc = {}
            for tw, c in om.delta(w).items():
                for tw2, c2 in om.delta(tw).items():
                    acc[tw2] = acc.get(tw2, QQ.zero()) + c * c2
            assert not any(acc.values())


def test_cobar_of_dual_recovers_square_zero_dims():
    # Exer-style duality route: the coalgebra dual to k[x]/x^{L+1}, with
    # (x^k)* inheriting weight k, IS the truncated bar construction of
    # k[eps]/eps^2 under (x^k)* <-> (eps|...|eps); its cobar has
    # H^0 of dimension 2 = dim k[eps]/eps^2.
    L = 5
    aug = AugmentedAlgebra(
        truncated_polynomial_algebra(QQ, L + 1), list(range(L + 1))
    )
    co = dual_coalgebra(aug, weights=list(range(L + 1)))
    bar_co = bar_coalgebra(bar(square_zero(), L))
    # identify (x^k)* with the length-k bar word and compare reduced Delta
    bar_words = sorted(bar_co.coideal(), key=lambda i: bar_co.weights[i])
    to_bar = {0: bar_co.coaug}
    for i in co.coideal():
        to_bar[i] = bar_words[co.weights[i] - 1]
    for i in co.coideal():
        lhs = {
            (to_bar[a], to_bar[b]): c
            for (a, b), c in co.reduced_delta.get(i, {}).items()
        }
        assert lhs == bar_co.reduced_delta.get(to_bar[i], {})

    om = cobar(co, L)
    table = om.basis_by_degree()
    deg0 = table.get(0, [])
    index0 = {w: i for i, w in enumerate(deg0)}
    from singlab.linalg import SpanBuilder

    span = SpanBuilder(QQ)
    for w in table.get(-1, []):
        span.add({
            index0[tw]: c for tw, c in om.delta(w).items() if tw in index0
        })
    assert len(deg0) - span.rank == 2  # dims of Q[eps]/eps^2


def test_double_dual_recovers_structure_constants():
    for n in (2, 3, 4):
        aug = AugmentedAlgebra(truncated_polynomial_algebra(QQ, n), [0] * n)
        dd = dual_algebra(dual_coalgebra(aug))
        assert dd.algebra.mult == aug.algebra.mult
        assert dd.degrees == aug.degrees


def test_counit_h0_checks():
    base = AugmentedAlgebra(truncated_polynomial_algebra(QQ, 1), [0])
    assert counit_h0_check(base, 3)
    assert counit_h0_check(square_zero(), 6)
    assert counit_h0_check(eps_cubed(), 6)


def test_cobar_rejects_non_conilpotent():
    from singlab.errors import NotConilpotent

    # Delta-bar(c) = c (x) c never terminates
    c = ConilpotentCoalgebra(
        QQ,
        ["u", "c"],
        [0, 0],
        0,
        {1: {(1, 1): ONE}},
    )
    assert not c.check_conilpotent()
    with pytest.raises(NotConilpotent):
        cobar(c, 3)


def test_convolution_is_associative_on_the_generator():
    kd = koszul_dual_cohomology(square_zero(), 6, [0, 1, 2, 3, 4])
    x = kd.functional(1, 0)
    x2 = kd.convolve(x, x, g_degree=1)
    left = kd.convolve(x2, x, g_degree=1)
    right = kd.convolve(x, x2, g_degree=2)
    assert kd.class_of(left, 3) == kd.class_of(right, 3)
