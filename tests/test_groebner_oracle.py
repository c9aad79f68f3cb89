"""Groebner bases and division against the first-in-first-out oracle.

The oracle below is the earlier `normal_form`, `buchberger` and
`division_coefficients`, kept verbatim: polynomial arithmetic on whole
`Poly` values at every reduction step, S-pairs first in, first out with
only the coprime criterion, and a cofactor history for every basis
element.  The reduced Groebner basis is unique, so the library's basis
must print the same under any pair schedule; with tracking on, the
library keeps this schedule, so its cofactors must match exactly too.
"""

import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singlab import polyring
from singlab.errors import InputError, NotInIdeal, RingMismatch
from singlab.fields import QQ, QQI, GaussianRational, PrimeField
from singlab.polyring import (
    GroebnerBasis,
    Poly,
    Ring,
    format_poly,
    parse_poly,
    quotient_basis,
)

GF7 = PrimeField(7)
GF = PrimeField(32003)
FIELDS = (QQ, QQI, GF7, GF)


# -- the oracle ----------------------------------------------------------------


def _divides(e1, e2):
    return all(a <= b for a, b in zip(e1, e2))


def _exp_sub(e1, e2):
    return tuple(a - b for a, b in zip(e1, e2))


def _exp_lcm(e1, e2):
    return tuple(max(a, b) for a, b in zip(e1, e2))


def normal_form(poly, divisors, track=False):
    """Remainder of poly modulo divisors; optional cofactor tracking.

    Divisors are tried in the given order at each reduction step, which
    makes the cofactors deterministic.  Returns remainder, or a pair
    (remainder, cofactors) when track is set.
    """
    ring = poly.ring
    leads = []
    for d in divisors:
        lead = d.leading()
        if lead is None:
            raise InputError("zero divisor polynomial")
        leads.append(lead)
    cofactors = [ring.zero() for _ in divisors] if track else None
    remainder = ring.zero()
    work = poly
    while work.terms:
        e, c = work.leading()
        hit = None
        for i, (le, lc) in enumerate(leads):
            if _divides(le, e):
                hit = i
                break
        if hit is None:
            t = ring.monomial(e, c)
            remainder = remainder + t
            work = work - t
        else:
            le, lc = leads[hit]
            factor = ring.monomial(_exp_sub(e, le), c / lc)
            work = work - factor * divisors[hit]
            if track:
                cofactors[hit] = cofactors[hit] + factor
    if track:
        return remainder, cofactors
    return remainder


def buchberger(gens, track=False):
    """Reduced Groebner basis of the ideal generated by gens.

    With track=True every basis element also records its expression as a
    combination of the input generators (used for cofactor-exact division).
    """
    if not gens:
        raise InputError("no generators")
    ring = gens[0].ring
    for g in gens:
        if g.ring != ring:
            raise RingMismatch("generators from different rings")
    basis = []
    history = []  # combination vectors over the input gens
    n = len(gens)
    for i, g in enumerate(gens):
        if g.is_zero():
            continue
        lc = g.leading()[1]
        vec = [ring.zero()] * n
        vec[i] = ring.constant(ring.field.one() / lc)
        basis.append(g.monic())
        history.append(vec)
    pairs = [(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))]
    while pairs:
        i, j = pairs.pop(0)
        ei = basis[i].leading()[0]
        ej = basis[j].leading()[0]
        lcm_e = _exp_lcm(ei, ej)
        if lcm_e == tuple(a + b for a, b in zip(ei, ej)):
            continue  # coprime leading terms reduce to zero
        mi = ring.monomial(_exp_sub(lcm_e, ei))
        mj = ring.monomial(_exp_sub(lcm_e, ej))
        s = mi * basis[i] - mj * basis[j]
        rem, cof = normal_form(s, basis, track=True)
        if rem.is_zero():
            continue
        lc = rem.leading()[1]
        inv = ring.constant(ring.field.one() / lc)
        vec = [ring.zero()] * n
        for k in range(n):
            acc = mi * history[i][k] - mj * history[j][k]
            for b_idx, q in enumerate(cof):
                acc = acc - q * history[b_idx][k]
            vec[k] = inv * acc
        basis.append(rem.monic())
        history.append(vec)
        new = len(basis) - 1
        pairs.extend((k, new) for k in range(new))
    # minimalise: drop any generator whose leading term another one divides
    keep = []
    for i in range(len(basis)):
        ei = basis[i].leading()[0]
        dominated = False
        for j in range(len(basis)):
            if j == i:
                continue
            ej = basis[j].leading()[0]
            if _divides(ej, ei) and (ej != ei or j < i):
                dominated = True
                break
        if not dominated:
            keep.append(i)
    reduced = []
    reduced_hist = []
    for idx, i in enumerate(keep):
        others = [basis[j] for j in keep if j != i]
        rem, cof = normal_form(basis[i], others, track=True)
        vec = list(history[i])
        other_idx = [j for j in keep if j != i]
        for pos, q in enumerate(cof):
            hj = history[other_idx[pos]]
            for k in range(n):
                vec[k] = vec[k] - q * hj[k]
        if rem.is_zero():
            continue
        lc = rem.leading()[1]
        inv = ring.constant(ring.field.one() / lc)
        reduced.append(rem.monic())
        reduced_hist.append([inv * v for v in vec])
    order = sorted(
        range(len(reduced)),
        key=lambda k: ring.order_key(reduced[k].leading()[0]),
        reverse=True,
    )
    gens_sorted = [reduced[k] for k in order]
    hist_sorted = [reduced_hist[k] for k in order]
    return GroebnerBasis(ring, gens_sorted, hist_sorted if track else None)


def division_coefficients(sigma, gens):
    """Cofactors expressing sigma in the ideal (gens), or NotInIdeal.

    Uses a cofactor-tracked Groebner basis so membership is decided
    exactly; the result satisfies sigma = sum(cof[i] * gens[i]).
    """
    gb = buchberger(list(gens), track=True)
    rem, q = normal_form(sigma, list(gb.generators), track=True)
    if not rem.is_zero():
        raise NotInIdeal(format_poly(rem))
    ring = sigma.ring
    out = [ring.zero() for _ in gens]
    for j, qj in enumerate(q):
        if qj.is_zero():
            continue
        for i in range(len(gens)):
            out[i] = out[i] + qj * gb.cofactors[j][i]
    return out


# -- comparison helpers ------------------------------------------------------------


def texts(polys):
    return [format_poly(p) for p in polys]


def outcome(fn, *args, **kwargs):
    """Printed result of a call, or the error class and message it raised."""
    try:
        result = fn(*args, **kwargs)
    except (InputError, NotInIdeal) as ex:
        return type(ex).__name__, str(ex)
    if isinstance(result, GroebnerBasis):
        cofactors = result.cofactors
        return (
            texts(result.generators),
            None if cofactors is None else [texts(row) for row in cofactors],
        )
    if isinstance(result, tuple):  # (remainder, cofactors)
        return format_poly(result[0]), texts(result[1])
    if isinstance(result, Poly):
        return format_poly(result)
    return texts(result)


def assert_leading_terms_cached_correctly(polys):
    for p in polys:
        for _ in range(2):
            if p.is_zero():
                assert p.leading() is None
            else:
                e = max(p.terms, key=p.ring.order_key)
                assert p.leading() == (e, p.terms[e])


def assert_matches_oracle(gens, targets):
    """Library and oracle agree on every Groebner/division entry point."""
    gb = outcome(polyring.buchberger, gens)
    assert gb == outcome(buchberger, gens)
    tracked = outcome(polyring.buchberger, gens, track=True)
    assert tracked == outcome(buchberger, gens, track=True)
    assert tracked[0] == gb[0]

    basis = polyring.buchberger(gens).generators
    assert_leading_terms_cached_correctly(basis)
    divisor_lists = [list(basis), [g for g in gens if not g.is_zero()], list(gens)]
    for target in targets:
        for divisors in divisor_lists:
            for track in (False, True):
                assert outcome(
                    polyring.normal_form, target, divisors, track=track
                ) == outcome(normal_form, target, divisors, track=track)
        assert outcome(polyring.division_coefficients, target, gens) == outcome(
            division_coefficients, target, gens
        )


def assert_cofactors_reconstruct(sigma, gens):
    cofs = polyring.division_coefficients(sigma, gens)
    total = sigma.ring.zero()
    for c, g in zip(cofs, gens):
        total = total + c * g
    assert total == sigma


# -- small random weighted ideals ---------------------------------------------------

RATIONALS = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
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


def _exponents(nvars, degree):
    """Exponent tuples in `nvars` variables of total degree <= `degree`."""
    if nvars == 0:
        return [()]
    return [
        (k,) + rest
        for k in range(degree + 1)
        for rest in _exponents(nvars - 1, degree - k)
    ]


@st.composite
def ideals(draw):
    """(generators, targets): 1-4 generators in 2-3 variables, degree <= 3."""
    field = draw(st.sampled_from(FIELDS))
    nvars = draw(st.integers(2, 3))
    weights = tuple(draw(st.integers(1, 3)) for _ in range(nvars))
    ring = Ring(("x", "y", "z")[:nvars], weights, field)
    monomials = sorted(_exponents(nvars, 3))

    def poly(max_terms):
        exps = draw(
            st.lists(st.sampled_from(monomials), min_size=1, max_size=max_terms,
                     unique=True)
        )
        terms = {}
        for e in exps:
            c = scalar(field, draw(RATIONALS))
            if field == QQI and draw(st.booleans()):
                c = c + GaussianRational(0, draw(st.integers(-2, 2)))
            terms[e] = c
        return Poly(ring, terms)

    gens = [poly(4) for _ in range(draw(st.integers(1, 4)))]
    multipliers = [poly(2) for _ in gens]
    member = ring.zero()
    for m, g in zip(multipliers, gens):
        member = member + m * g
    return gens, [poly(5), member]


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(ideals())
def test_groebner_and_division_match_oracle(case):
    gens, targets = case
    assert_matches_oracle(gens, targets)
    assert_cofactors_reconstruct(targets[1], gens)


# -- fixed systems --------------------------------------------------------------------


def cyclic(ring):
    names = ring.variables
    n = len(names)
    polys = [
        "+".join("*".join(names[(i + j) % n] for j in range(k)) for i in range(n))
        for k in range(1, n)
    ]
    polys.append("*".join(names) + "-1")
    return [parse_poly(ring, p) for p in polys]


def katsura(ring):
    names = ring.variables
    n = len(names) - 1

    def var(k):
        return names[abs(k)] if abs(k) <= n else None

    polys = []
    for m in range(n):
        terms = [
            f"{var(l)}*{var(m - l)}"
            for l in range(-n, n + 1)
            if var(l) is not None and var(m - l) is not None
        ]
        polys.append("+".join(terms) + f"-{names[m]}")
    polys.append(names[0] + "".join(f"+2*{v}" for v in names[1:]) + "-1")
    return [parse_poly(ring, p) for p in polys]


@pytest.mark.parametrize("field", (QQ, GF), ids=("rat", "gf32003"))
@pytest.mark.parametrize("system", ("cyclic4", "katsura3"))
def test_fixed_systems_match_oracle(system, field):
    ring = Ring(("a", "b", "c", "d"), field=field)
    if system == "cyclic4":
        gens = cyclic(ring)
    else:
        gens = katsura(ring)
        assert quotient_basis(polyring.buchberger(gens)).dimension == 8
    x = [ring.variable(v) for v in ring.variables]
    member = x[0] * gens[0] + x[1] * x[2] * gens[-1]
    outside = x[0] ** 3 + x[3]
    assert_matches_oracle(gens, [member, outside])
    assert_cofactors_reconstruct(member, gens)


def test_cyclic5_over_prime_field_within_budget():
    # the first-in-first-out schedule with full reduction took about 7 s
    ring = Ring(("a", "b", "c", "d", "e"), field=GF)
    gens = cyclic(ring)
    start = time.perf_counter()
    gb = polyring.buchberger(gens)
    elapsed = time.perf_counter() - start
    assert len(gb.generators) == 20
    assert quotient_basis(gb).dimension == 70
    assert elapsed <= 2.0, elapsed


def test_normal_form_rejects_divisors_from_another_ring():
    rx = Ring(("x",))
    ry = Ring(("y",))
    with pytest.raises(RingMismatch):
        polyring.normal_form(rx.variable("x"), [ry.variable("y")])
    with pytest.raises(InputError):
        polyring.normal_form(rx.variable("x"), [rx.zero()])
