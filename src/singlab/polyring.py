"""Multivariate polynomial rings over exact fields.

Provides sparse polynomials with a weighted graded-reverse-lexicographic
term order, Buchberger's algorithm with reduced bases, staircase quotient
bases, cofactor-tracked division, and the Milnor/Tjurina invariants of a
hypersurface germ.

Division (:func:`normal_form`) reduces a mutable ``{exp: coeff}`` dict in
place, visiting its terms through a heap in descending order, always by
the first divisor whose leading monomial divides.  :func:`buchberger` has
two pair schedules.  Without cofactor tracking it follows Gebauer and
Möller ("On an installation of Buchberger's algorithm", 1988): normal
selection (smallest lcm first) and the product, chain and B criteria.
With tracking, S-pairs run first in, first out with only the product
criterion, because the cofactors that :func:`division_coefficients`
returns (printed as ``sigmaCoeffs``) depend on the schedule.  The reduced
basis is unique, so both schedules print the same generators.

Power series rings are modelled by polynomial representatives: exact
statements are made for weight-homogeneous inputs (where local = graded),
and everything else is handled through explicit truncation bounds by the
callers.

The text grammar (used by the CLI and JSON formats): terms separated by
``+``/``-``; a term is ``coef*mono``, ``mono``, or ``coef``; ``mono`` is
``name^exp`` factors joined by ``*``; coefficients are integers, ``p/q``
rationals, or ``a+bi`` Gaussian rationals (parenthesised when attached to
a monomial, e.g. ``(1+2i)*x``).  Whitespace is insignificant, and output
of :func:`format_poly` parses back to the same polynomial.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from heapq import heapify, heappop, heappush
from operator import add, le, mul, sub

from .errors import (
    CharTooSmall,
    InputError,
    NotInIdeal,
    NotInMaximalIdeal,
    ParseError,
    QHofZeroUndefined,
    RingMismatch,
    VariableClash,
)
from .fields import (
    QQ,
    QQI,
    GaussianRational,
    field_by_name,
    field_name,
    format_scalar,
    scalar_is_negative,
)


class Ring:
    """Polynomial ring with named variables, positive weights, and a field."""

    __slots__ = ("variables", "weights", "field")

    def __init__(self, variables, weights=None, field=QQ):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise InputError("duplicate variable names")
        if weights is None:
            weights = (1,) * len(variables)
        weights = tuple(int(w) for w in weights)
        if len(weights) != len(variables):
            raise InputError("one weight per variable required")
        if any(w < 1 for w in weights):
            raise InputError("weights must be >= 1")
        self.variables = variables
        self.weights = weights
        self.field = field

    def __eq__(self, other):
        return (
            isinstance(other, Ring)
            and self.variables == other.variables
            and self.weights == other.weights
            and self.field == other.field
        )

    def __hash__(self):
        return hash((self.variables, self.weights, self.field))

    def __repr__(self):
        return f"Ring({','.join(self.variables)}; {field_name(self.field)})"

    @property
    def nvars(self):
        return len(self.variables)

    def zero(self):
        return Poly(self, {})

    def one(self):
        return self.constant(self.field.one())

    def constant(self, scalar):
        if isinstance(scalar, int):
            scalar = self.field.from_int(scalar)
        if not scalar:
            return self.zero()
        return Poly(self, {(0,) * self.nvars: scalar})

    def variable(self, name):
        i = self.variables.index(name)
        exp = [0] * self.nvars
        exp[i] = 1
        return Poly(self, {tuple(exp): self.field.one()})

    def monomial(self, exp, coeff=1):
        if isinstance(coeff, int):
            coeff = self.field.from_int(coeff)
        if not coeff:
            return self.zero()
        return Poly(self, {tuple(exp): coeff})

    def weighted_degree(self, exp):
        return sum(e * w for e, w in zip(exp, self.weights))

    def reduce(self, poly):
        """Identity; lets Ring and QuotientRing share coefficient contexts."""
        return poly

    def order_key(self, exp):
        """Sort key realising weighted grevlex (bigger key = bigger monomial)."""
        return (
            self.weighted_degree(exp),
            tuple(-e for e in reversed(exp)),
        )

    def monomials_of_weight(self, weight):
        """All exponent tuples of the given weighted degree, descending."""
        if weight != int(weight):
            return []
        exps = _weight_slices(self.weights, int(weight))
        return sorted(exps, key=self.order_key, reverse=True)

    def monomials_up_to_weight(self, bound):
        out = []
        for w in range(bound + 1):
            out.extend(self.monomials_of_weight(w))
        return out

    def join(self, other):
        """Ring on the disjoint union of variables; fails on name clashes."""
        if other.field != self.field:
            raise RingMismatch("cannot join rings over different fields")
        clash = set(self.variables) & set(other.variables)
        if clash:
            raise VariableClash(f"shared variable names {sorted(clash)}")
        return Ring(
            self.variables + other.variables,
            self.weights + other.weights,
            self.field,
        )

    def extend(self, names, weights=None):
        if weights is None:
            weights = (1,) * len(names)
        return self.join(Ring(tuple(names), tuple(weights), self.field))

    def drop(self, name):
        i = self.variables.index(name)
        return Ring(
            self.variables[:i] + self.variables[i + 1 :],
            self.weights[:i] + self.weights[i + 1 :],
            self.field,
        )

    def embed(self, poly, positions=None):
        """Reinterpret a polynomial from a subring inside this ring.

        positions[j] = index in self of the j-th variable of poly.ring;
        by default variables are matched by name.
        """
        src = poly.ring
        if positions is None:
            positions = [self.variables.index(v) for v in src.variables]
        terms = {}
        for exp, c in poly.terms.items():
            new = [0] * self.nvars
            for j, e in enumerate(exp):
                new[positions[j]] = e
            terms[tuple(new)] = c
        return Poly(self, terms)

    def to_json(self):
        return {
            "variables": list(self.variables),
            "weights": list(self.weights),
            "field": field_name(self.field),
        }

    @classmethod
    def from_json(cls, doc):
        return cls(
            tuple(doc["variables"]),
            tuple(doc.get("weights") or (1,) * len(doc["variables"])),
            field_by_name(doc.get("field", "rat")),
        )


@lru_cache(maxsize=None)
def _weight_slices(weights, target):
    if not weights:
        return [()] if target == 0 else []
    head, rest = weights[0], weights[1:]
    out = []
    e = 0
    while e * head <= target:
        for tail in _weight_slices(rest, target - e * head):
            out.append((e,) + tail)
        e += 1
    return out


_UNSET = object()


class Poly:
    """Sparse polynomial: exponent tuple -> nonzero scalar."""

    __slots__ = ("ring", "terms", "_lead")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = {e: c for e, c in terms.items() if c}
        self._lead = _UNSET  # `terms` is never written after this point

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, int):
            return self == self.ring.constant(other)
        return (
            isinstance(other, Poly)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, tuple(sorted(self.terms.items(), key=lambda t: t[0]))))

    def _check(self, other):
        if self.ring != other.ring:
            raise RingMismatch(f"{self.ring} vs {other.ring}")

    def __add__(self, other):
        if isinstance(other, int):
            other = self.ring.constant(other)
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e)
            s = c if s is None else s + c
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
        return Poly(self.ring, terms)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = self.ring.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            other = self.ring.field.from_int(other)
        if self.ring.field.contains(other):
            if not other:
                return self.ring.zero()
            return Poly(self.ring, {e: c * other for e, c in self.terms.items()})
        if not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = terms.get(e)
                s = c1 * c2 if s is None else s + c1 * c2
                terms[e] = s
        return Poly(self.ring, terms)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise InputError("negative polynomial power")
        out = self.ring.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def scale(self, scalar):
        return self * scalar

    def leading(self):
        """(exponent, coefficient) of the leading term; None for zero."""
        lead = self._lead
        if lead is _UNSET:
            lead = None
            if self.terms:
                e = max(self.terms, key=self.ring.order_key)
                lead = e, self.terms[e]
            self._lead = lead
        return lead

    def monic(self):
        lead = self.leading()
        if lead is None:
            return self
        return self * (self.ring.field.one() / lead[1])

    def constant_term(self):
        return self.terms.get((0,) * self.ring.nvars, self.ring.field.zero())

    def total_weight(self):
        """Weighted degree of the polynomial (max over terms); -1 for zero."""
        if not self.terms:
            return -1
        return max(self.ring.weighted_degree(e) for e in self.terms)

    def homogeneous_weight(self):
        """The common weighted degree of all terms, or None."""
        ws = {self.ring.weighted_degree(e) for e in self.terms}
        if len(ws) == 1:
            return ws.pop()
        return None

    def derivative(self, var):
        i = var if isinstance(var, int) else self.ring.variables.index(var)
        terms = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            new = list(e)
            new[i] -= 1
            coeff = c * e[i]
            if coeff:
                terms[tuple(new)] = coeff
        return Poly(self.ring, terms)

    def substitute(self, values):
        """Substitute {name: Poly-or-scalar}; unnamed variables persist."""
        ring = self.ring
        subs = {}
        for name, val in values.items():
            i = ring.variables.index(name)
            if not isinstance(val, Poly):
                val = ring.constant(val)
            subs[i] = val
        out = ring.zero()
        for e, c in self.terms.items():
            piece = ring.monomial(
                tuple(0 if i in subs else x for i, x in enumerate(e)), c
            )
            for i, val in subs.items():
                if e[i]:
                    piece = piece * val ** e[i]
            out = out + piece
        return out

    def sorted_terms(self):
        for e in sorted(self.terms, key=self.ring.order_key, reverse=True):
            yield e, self.terms[e]

    def __repr__(self):
        return f"Poly({format_poly(self)})"


# -- text grammar ---------------------------------------------------------


def _tokenize(text):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "+-*/^()":
            tokens.append((ch, ch))
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[i:j])))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j]))
            i = j
        else:
            raise ParseError(f"unexpected character {ch!r}")
    return tokens


class _Parser:
    def __init__(self, ring, tokens):
        self.ring = ring
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def parse(self):
        p = self.expr()
        if self.peek()[0] is not None:
            raise ParseError(f"trailing input near token {self.peek()!r}")
        return p

    def expr(self):
        sign = 1
        kind, _ = self.peek()
        if kind in ("+", "-"):
            self.take()
            sign = -1 if kind == "-" else 1
        p = self.term() * sign
        while self.peek()[0] in ("+", "-"):
            op, _ = self.take()
            q = self.term()
            p = p + q if op == "+" else p - q
        return p

    def term(self):
        p = self.factor()
        while self.peek()[0] in ("*", "int", "name", "("):
            if self.peek()[0] == "*":
                self.take()
            p = p * self.factor()
        return p

    def factor(self):
        kind, value = self.take()
        if kind == "(":
            p = self.expr()
            if self.take()[0] != ")":
                raise ParseError("missing )")
            return self._power(p)
        if kind == "int":
            coeff = self.ring.field.from_int(value)
            if self.peek() == ("/", "/"):
                self.take()
                k2, v2 = self.take()
                if k2 != "int":
                    raise ParseError("expected integer denominator")
                coeff = coeff / self.ring.field.from_int(v2)
            if self._peek_imaginary():
                self.take()
                coeff = coeff * QQI.sqrt_minus_one()
            return self._power(self.ring.constant(coeff))
        if kind == "name":
            if value == "i" and self._is_imaginary_name():
                return self._power(self.ring.constant(QQI.sqrt_minus_one()))
            if value not in self.ring.variables:
                raise ParseError(f"unknown variable {value!r}")
            return self._power(self.ring.variable(value))
        raise ParseError(f"unexpected token {kind!r}")

    def _is_imaginary_name(self):
        return self.ring.field == QQI and "i" not in self.ring.variables

    def _peek_imaginary(self):
        kind, value = self.peek()
        return kind == "name" and value == "i" and self._is_imaginary_name()

    def _power(self, p):
        if self.peek()[0] == "^":
            self.take()
            kind, value = self.take()
            if kind != "int":
                raise ParseError("expected integer exponent")
            return p**value
        return p


def parse_poly(ring, text):
    """Parse the polynomial grammar into a Poly over the given ring."""
    return _Parser(ring, _tokenize(text)).parse()


def format_poly(poly):
    """Canonical text: terms in descending order, round-trips exactly."""
    if poly.is_zero():
        return "0"
    pieces = []
    for e, c in poly.sorted_terms():
        mono = "*".join(
            name if k == 1 else f"{name}^{k}"
            for name, k in zip(poly.ring.variables, e)
            if k
        )
        negative = scalar_is_negative(c)
        mag = -c if negative else c
        if not mono:
            coeff_txt = format_scalar(mag)
            piece = coeff_txt
        elif mag == poly.ring.field.one():
            piece = mono
        else:
            coeff_txt = format_scalar(mag)
            if isinstance(mag, GaussianRational) and mag.re != 0 and mag.im != 0:
                coeff_txt = f"({coeff_txt})"
            piece = f"{coeff_txt}*{mono}"
        pieces.append((negative, piece))
    neg, txt = pieces[0]
    out = ("-" if neg else "") + txt
    for neg, txt in pieces[1:]:
        out += (" - " if neg else " + ") + txt
    return out


# -- division and Groebner bases ------------------------------------------


def _divides(e1, e2):
    return all(map(le, e1, e2))


def _exp_sub(e1, e2):
    return tuple(map(sub, e1, e2))


def _exp_lcm(e1, e2):
    return tuple(map(max, e1, e2))


def _heap_entry(exp, weights):
    """Min-heap entry that pops the largest monomial under weighted grevlex."""
    return -sum(map(mul, exp, weights)), exp[::-1], exp


def normal_form(poly, divisors, track=False):
    """Remainder of poly modulo divisors; optional cofactor tracking.

    Each step reduces the largest remaining term by the first divisor
    whose leading monomial divides it, which makes the cofactors
    deterministic.  The polynomial being reduced is a ``{exp: coeff}``
    dict updated in place, with a heap of its monomials whose entries for
    cancelled terms are skipped when popped.  Returns the remainder, or a
    pair (remainder, cofactors) when track is set.
    """
    ring = poly.ring
    leads = []
    for d in divisors:
        if d.ring is not ring and d.ring != ring:
            raise RingMismatch(f"{ring} vs {d.ring}")
        lead = d.leading()
        if lead is None:
            raise InputError("zero divisor polynomial")
        leads.append(lead)
    weights = ring.weights
    cofactors = [{} for _ in divisors] if track else None
    remainder = {}
    work = dict(poly.terms)
    heap = [_heap_entry(e, weights) for e in work]
    heapify(heap)
    while heap:
        e = heappop(heap)[2]
        c = work.pop(e, None)
        if c is None:
            continue  # the term cancelled after its entry was pushed
        for i, (lead_e, lc) in enumerate(leads):
            if all(map(le, lead_e, e)):  # _divides, inlined
                break
        else:
            remainder[e] = c
            continue
        shift = _exp_sub(e, lead_e)
        q = c / lc
        if track:
            cofactors[i][shift] = q
        # subtract q * x^shift * divisor; its leading term cancels c * x^e
        for de, dc in divisors[i].terms.items():
            if de == lead_e:
                continue
            ne = tuple(map(add, de, shift))
            old = work.get(ne)
            if old is None:
                work[ne] = -(q * dc)
                heappush(heap, _heap_entry(ne, weights))
            else:
                old = old - q * dc
                if old:
                    work[ne] = old
                else:
                    del work[ne]
    remainder = Poly(ring, remainder)
    if track:
        return remainder, [Poly(ring, t) for t in cofactors]
    return remainder


class GroebnerBasis:
    """Reduced Groebner basis under the ring's weighted grevlex order."""

    __slots__ = ("ring", "generators", "cofactors")

    def __init__(self, ring, generators, cofactors=None):
        self.ring = ring
        self.generators = tuple(generators)
        # cofactors[j][i]: generator j as a combination of the input gens
        self.cofactors = cofactors

    def leading_exponents(self):
        return [g.leading()[0] for g in self.generators]

    def reduce(self, poly):
        return normal_form(poly, list(self.generators))

    def contains(self, poly):
        return self.reduce(poly).is_zero()


def _s_polynomial(f, g, lcm_e):
    """(lcm / lt f) * f - (lcm / lt g) * g for monic f and g."""
    sf = _exp_sub(lcm_e, f.leading()[0])
    sg = _exp_sub(lcm_e, g.leading()[0])
    terms = {tuple(map(add, e, sf)): c for e, c in f.terms.items()}
    for e, c in g.terms.items():
        e = tuple(map(add, e, sg))
        s = terms.get(e)
        terms[e] = -c if s is None else s - c
    return Poly(f.ring, terms)


def _tracked_basis(ring, gens):
    """Groebner basis of (gens), each element with its combination vector.

    Pairs are taken first in, first out, and only the coprime criterion
    skips any: the cofactors that `division_coefficients` returns depend
    on this exact schedule.
    """
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
    pairs = deque((i, j) for i in range(len(basis)) for j in range(i + 1, len(basis)))
    while pairs:
        i, j = pairs.popleft()
        ei = basis[i].leading()[0]
        ej = basis[j].leading()[0]
        lcm_e = _exp_lcm(ei, ej)
        if lcm_e == tuple(map(add, ei, ej)):
            continue  # coprime leading terms reduce to zero
        s = _s_polynomial(basis[i], basis[j], lcm_e)
        rem, cof = normal_form(s, basis, track=True)
        if rem.is_zero():
            continue
        mi = ring.monomial(_exp_sub(lcm_e, ei))
        mj = ring.monomial(_exp_sub(lcm_e, ej))
        inv = ring.constant(ring.field.one() / rem.leading()[1])
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
    return basis, history


def _untracked_basis(ring, gens):
    """Groebner basis of (gens) by the Gebauer–Möller installation.

    Pairs are chosen by the normal selection strategy (smallest lcm under
    the ring's order first).  Each new element h passes through the
    Gebauer–Möller update: among the new pairs (g, h) the chain (M) and
    equal-lcm (F) criteria keep one per minimal lcm and the product
    criterion then drops coprime ones; a pending pair (g1, g2) is dropped
    when lt(h) divides its lcm and neither lcm(g1, h) nor lcm(g2, h)
    equals it (B criterion); and every g with lt(h) | lt(g) stops being a
    divisor (its pending pairs still run).
    """
    basis = []  # every element ever added, monic
    leads = []
    active = []  # indices of the current divisors
    pairs = []  # heap of (order key of lcm, i, j, lcm)

    def update(h):
        k = len(basis)
        lh = h.leading()[0]
        basis.append(h)
        leads.append(lh)
        new = [(g, _exp_lcm(leads[g], lh)) for g in active]
        kept = []
        for pos, (g, lcm_e) in enumerate(new):
            coprime = lcm_e == tuple(map(add, leads[g], lh))
            if coprime or not (
                any(_divides(other, lcm_e) for _, other in new[pos + 1:])
                or any(_divides(other, lcm_e) for _, other, _ in kept)
            ):
                kept.append((g, lcm_e, coprime))
        pairs[:] = [
            p for p in pairs
            if not _divides(lh, p[3])
            or _exp_lcm(leads[p[1]], lh) == p[3]
            or _exp_lcm(leads[p[2]], lh) == p[3]
        ]
        pairs.extend(
            (ring.order_key(lcm_e), g, k, lcm_e)
            for g, lcm_e, coprime in kept
            if not coprime
        )
        heapify(pairs)
        active[:] = [g for g in active if not _divides(lh, leads[g])] + [k]

    for g in gens:
        if not g.is_zero():
            update(g.monic())
    while pairs:
        _, i, j, lcm_e = heappop(pairs)
        s = _s_polynomial(basis[i], basis[j], lcm_e)
        rem = normal_form(s, [basis[g] for g in active])
        if not rem.is_zero():
            update(rem.monic())
    return [basis[g] for g in active]


def buchberger(gens, track=False):
    """Reduced Groebner basis of the ideal generated by gens.

    With track=True every basis element also records its expression as a
    combination of the input generators (used for cofactor-exact division),
    and S-pairs run in the fixed first-in-first-out schedule of
    `_tracked_basis`.  Without it no combinations are built and the pairs
    follow `_untracked_basis`.  The reduced basis is unique, so both give
    the same generators.
    """
    if not gens:
        raise InputError("no generators")
    ring = gens[0].ring
    for g in gens:
        if g.ring != ring:
            raise RingMismatch("generators from different rings")
    if track:
        basis, history = _tracked_basis(ring, gens)
    else:
        basis, history = _untracked_basis(ring, gens), None
    # minimalise: drop any generator whose leading term another one divides
    leads = [b.leading()[0] for b in basis]
    keep = [
        i
        for i, ei in enumerate(leads)
        if not any(
            j != i and _divides(ej, ei) and (ej != ei or j < i)
            for j, ej in enumerate(leads)
        )
    ]
    reduced = []
    reduced_hist = []
    for i in keep:
        other_idx = [j for j in keep if j != i]
        others = [basis[j] for j in other_idx]
        if not track:
            reduced.append(normal_form(basis[i], others).monic())
            continue
        rem, cof = normal_form(basis[i], others, track=True)
        vec = list(history[i])
        for pos, q in enumerate(cof):
            hj = history[other_idx[pos]]
            for k in range(len(gens)):
                vec[k] = vec[k] - q * hj[k]
        inv = ring.constant(ring.field.one() / rem.leading()[1])
        reduced.append(rem.monic())
        reduced_hist.append([inv * v for v in vec])
    order = sorted(
        range(len(reduced)),
        key=lambda k: ring.order_key(reduced[k].leading()[0]),
        reverse=True,
    )
    gens_sorted = [reduced[k] for k in order]
    hist_sorted = [reduced_hist[k] for k in order] if track else None
    return GroebnerBasis(ring, gens_sorted, hist_sorted)


class QuotientBasis:
    """Staircase complement of a Groebner basis."""

    __slots__ = ("ring", "monomials", "finite", "leading")

    def __init__(self, ring, monomials, finite, leading):
        self.ring = ring
        self.monomials = tuple(monomials)
        self.finite = finite
        self.leading = tuple(leading)

    @property
    def dimension(self):
        return len(self.monomials) if self.finite else None


def quotient_basis(gb):
    """Monomials outside the leading-term staircase; finite iff 0-dimensional."""
    ring = gb.ring
    leading = gb.leading_exponents()
    if any(sum(le) == 0 for le in leading):
        return QuotientBasis(ring, [], True, leading)  # unit ideal
    if ring.nvars == 0:
        return QuotientBasis(ring, [()], True, leading)
    bounds = []
    for i in range(ring.nvars):
        powers = [
            le[i]
            for le in leading
            if le[i] > 0 and all(le[j] == 0 for j in range(ring.nvars) if j != i)
        ]
        if not powers:
            return QuotientBasis(ring, [], False, leading)
        bounds.append(min(powers))
    monos = []

    def rec(prefix):
        if len(prefix) == ring.nvars:
            e = tuple(prefix)
            if not any(_divides(le, e) for le in leading):
                monos.append(e)
            return
        for v in range(bounds[len(prefix)]):
            rec(prefix + [v])

    rec([])
    monos.sort(key=ring.order_key)
    return QuotientBasis(ring, monos, True, leading)


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


# -- hypersurface invariants ------------------------------------------------


def jacobian_ideal(sigma):
    return [sigma.derivative(i) for i in range(sigma.ring.nvars)]


def _check_milnor_input(sigma):
    if sigma.constant_term():
        raise NotInMaximalIdeal("sigma has a nonzero constant term")
    p = sigma.ring.field.characteristic
    if p and p <= sigma.total_weight():
        raise CharTooSmall(f"char {p} <= degree {sigma.total_weight()}")


def milnor_algebra(sigma):
    """Quotient basis and dimension of ring/(jacobian ideal of sigma).

    Returns (QuotientBasis, milnor_number); the number is None when the
    quotient is not finite-dimensional (non-isolated singularity).
    """
    _check_milnor_input(sigma)
    gens = [g for g in jacobian_ideal(sigma) if not g.is_zero()]
    if not gens:
        return (
            QuotientBasis(sigma.ring, [], False, []),
            None,
        )
    qb = quotient_basis(buchberger(gens))
    return qb, qb.dimension


def tjurina_algebra(sigma):
    """Quotient basis and dimension of ring/(sigma + jacobian ideal)."""
    _check_milnor_input(sigma)
    gens = [g for g in jacobian_ideal(sigma) if not g.is_zero()]
    if not sigma.is_zero():
        gens.append(sigma)
    if not gens:
        return QuotientBasis(sigma.ring, [], False, []), None
    qb = quotient_basis(buchberger(gens))
    return qb, qb.dimension


def is_quasi_homogeneous(sigma, weights=None):
    """(flag, weighted degree) for the given positive weights."""
    if sigma.is_zero():
        raise QHofZeroUndefined("quasi-homogeneity of 0 is undefined")
    ring = sigma.ring
    if weights is None:
        weights = ring.weights
    weights = tuple(weights)
    if len(weights) != ring.nvars or any(w < 1 for w in weights):
        raise InputError("need one positive weight per variable")
    degs = {sum(e * w for e, w in zip(exp, weights)) for exp in sigma.terms}
    if len(degs) == 1:
        return True, degs.pop()
    return False, None


# -- quotient ring contexts --------------------------------------------------


class QuotientRing:
    """ring/(ideal) presented by a reduced Groebner basis.

    Serves as a coefficient context for complexes: elements are normal-form
    polynomial representatives, and the monomial basis in each weight is
    the staircase complement.
    """

    __slots__ = ("ring", "gb", "_leading")

    def __init__(self, ring, ideal_gens):
        self.ring = ring
        if isinstance(ideal_gens, GroebnerBasis):
            self.gb = ideal_gens
        else:
            self.gb = buchberger(list(ideal_gens))
        self._leading = self.gb.leading_exponents()

    @property
    def field(self):
        return self.ring.field

    def __eq__(self, other):
        return (
            isinstance(other, QuotientRing)
            and self.ring == other.ring
            and self.gb.generators == other.gb.generators
        )

    def __hash__(self):
        return hash((self.ring, self.gb.generators))

    def reduce(self, poly):
        return self.gb.reduce(poly)

    def in_staircase(self, exp):
        return not any(_divides(le, exp) for le in self._leading)

    def monomials_of_weight(self, weight):
        return [e for e in self.ring.monomials_of_weight(weight) if self.in_staircase(e)]

    def monomials_up_to_weight(self, bound):
        out = []
        for w in range(bound + 1):
            out.extend(self.monomials_of_weight(w))
        return out

    def __repr__(self):
        gens = ", ".join(format_poly(g) for g in self.gb.generators)
        return f"QuotientRing({self.ring!r} / ({gens}))"
