"""Quivers, path algebras, (deformed/derived) preprojective algebras,
Drinfeld derived quotients, and Kleinian block decompositions.

Paths compose left to right: e_v a = a for an arrow a starting at v, and
p*q means "p then q".  The preprojective relation at a vertex i is
sum over arrows of e_i [a, a*] e_i = lambda_i e_i with [a, a*] = a a* - a* a,
i.e. arrows starting at i contribute +a a* and arrows ending at i
contribute -a* a.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .errors import (
    InputError,
    NotIdempotent,
    NotQuasiDominant,
    WindowExceedsBound,
)
from .fields import QQ, QQI, GaussianRational
from .linalg import cohomology_at


class Quiver:
    """Finite quiver; arrows are (name, tail, head) with vertex indices."""

    __slots__ = ("vertices", "arrows", "extending")

    def __init__(self, vertices, arrows, extending=None):
        self.vertices = tuple(vertices)
        self.arrows = tuple(arrows)
        n = len(self.vertices)
        for name, tail, head in self.arrows:
            if not (0 <= tail < n and 0 <= head < n):
                raise InputError(f"arrow {name} out of range")
        self.extending = extending

    @property
    def n(self):
        return len(self.vertices)

    def double(self):
        """Add a reversed arrow a* for every arrow a."""
        arrows = list(self.arrows)
        for name, tail, head in self.arrows:
            arrows.append((name + "*", head, tail))
        return Quiver(self.vertices, arrows, self.extending)

    def underlying_edges(self):
        return [(min(t, h), max(t, h)) for _, t, h in self.arrows]

    def to_json(self):
        return {
            "vertices": list(self.vertices),
            "arrows": [
                {"name": n, "from": self.vertices[t], "to": self.vertices[h]}
                for n, t, h in self.arrows
            ],
            "extending": self.extending,
        }

    @classmethod
    def from_json(cls, doc):
        vertices = tuple(doc["vertices"])
        arrows = []
        for a in doc["arrows"]:
            if a["from"] not in vertices or a["to"] not in vertices:
                raise InputError(f"arrow {a['name']} names an unknown vertex")
            arrows.append(
                (a["name"], vertices.index(a["from"]), vertices.index(a["to"]))
            )
        return cls(vertices, arrows, doc.get("extending"))


# -- paths ----------------------------------------------------------------------

# a path is (start_vertex, tuple_of_arrow_indices)


def path_source(q, p):
    return p[0]


def path_target(q, p):
    start, arrows = p
    return q.arrows[arrows[-1]][2] if arrows else start


def path_basis(q, max_len):
    """Paths of length <= max_len, ordered by (length, arrow indices)."""
    out = [(v, ()) for v in range(q.n)]
    frontier = out[:]
    for _ in range(max_len):
        new = []
        for p in frontier:
            tgt = path_target(q, p)
            for i, (_, tail, _) in enumerate(q.arrows):
                if tail == tgt:
                    new.append((p[0], p[1] + (i,)))
        out.extend(new)
        frontier = new
    return out


def path_multiply(q, p1, p2):
    """Concatenation p1 then p2, or None when endpoints mismatch."""
    if path_target(q, p1) != path_source(q, p2):
        return None
    return (p1[0], p1[1] + p2[1])


def path_name(q, p):
    start, arrows = p
    if not arrows:
        return f"e_{q.vertices[start]}"
    return "".join(q.arrows[i][0] for i in arrows)


class PathElement:
    """Finite k-linear combination of paths."""

    __slots__ = ("quiver", "field", "terms")

    def __init__(self, quiver, field, terms):
        self.quiver = quiver
        self.field = field
        self.terms = {p: c for p, c in terms.items() if c}

    def __add__(self, other):
        terms = dict(self.terms)
        for p, c in other.terms.items():
            s = terms.get(p, self.field.zero()) + c
            if s:
                terms[p] = s
            else:
                terms.pop(p, None)
        return PathElement(self.quiver, self.field, terms)

    def __neg__(self):
        return PathElement(
            self.quiver, self.field, {p: -c for p, c in self.terms.items()}
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        terms = {}
        for p1, c1 in self.terms.items():
            for p2, c2 in other.terms.items():
                p = path_multiply(self.quiver, p1, p2)
                if p is None:
                    continue
                s = terms.get(p, self.field.zero()) + c1 * c2
                if s:
                    terms[p] = s
                else:
                    terms.pop(p, None)
        return PathElement(self.quiver, self.field, terms)

    def max_length(self):
        return max((len(p[1]) for p in self.terms), default=0)

    def __repr__(self):
        bits = [
            f"({c})*{path_name(self.quiver, p)}"
            for p, c in sorted(self.terms.items())
        ]
        return " + ".join(bits) or "0"


def idempotent_element(q, field, v):
    return PathElement(q, field, {(v, ()): field.one()})


def arrow_element(q, field, arrow_index):
    tail = q.arrows[arrow_index][1]
    return PathElement(q, field, {(tail, (arrow_index,)): field.one()})


# -- truncated dimensions ---------------------------------------------------------


def _span_of_products(q, relations, paths, index, max_len, field):
    """Echelonised span of all p * r * q with top length <= max_len."""
    from .linalg import SpanBuilder

    span = SpanBuilder(field)
    for rel in relations:
        top = rel.max_length()
        starts = {path_source(q, pp) for pp in rel.terms}
        ends = {path_target(q, pp) for pp in rel.terms}
        for p in paths:
            if path_target(q, p) not in starts:
                continue
            for p2 in paths:
                if path_source(q, p2) not in ends:
                    continue
                if len(p[1]) + top + len(p2[1]) > max_len:
                    continue
                prod = (
                    PathElement(q, field, {p: field.one()})
                    * rel
                    * PathElement(q, field, {p2: field.one()})
                )
                if not prod.terms:
                    continue
                span.add({index[pp]: c for pp, c in prod.terms.items()})
    return span


def truncated_algebra_dim(q, relations, max_len, field=QQ):
    """Dims of (paths of length <= l) / span{p r q} for l = 0..max_len.

    The ideal is approximated by products p*r*q whose top length stays
    within max_len; this is the length-filtered truncation used as the
    dimension oracle for (deformed) preprojective algebras.
    """
    paths = path_basis(q, max_len)
    index = {p: i for i, p in enumerate(paths)}
    span = _span_of_products(q, relations, paths, index, max_len, field)
    return _quotient_dims(paths, span, max_len, field)


def _quotient_dims(paths, span, max_len, field):
    """Dims of (paths of length <= l) / span, l = 0..max_len; grows span."""
    dims = []
    count = 0
    by_length = sorted(range(len(paths)), key=lambda i: len(paths[i][1]))
    pos = 0
    for l in range(max_len + 1):
        while pos < len(by_length) and len(paths[by_length[pos]][1]) <= l:
            if span.add({by_length[pos]: field.one()}):
                count += 1
            pos += 1
        dims.append(count)
    return dims


# -- preprojective algebras --------------------------------------------------------


def preprojective_relations(q, lam=None, field=None):
    """One relation per vertex on the double quiver:
    sum_a e_i [a, a*] e_i - lambda_i e_i."""
    if field is None:
        field = QQI if lam is not None else QQ
    dq = q.double()
    m = len(q.arrows)
    rels = []
    for i in range(q.n):
        acc = PathElement(dq, field, {})
        for a, (_, tail, head) in enumerate(q.arrows):
            star = m + a
            if tail == i:
                acc = acc + arrow_element(dq, field, a) * arrow_element(
                    dq, field, star
                )
            if head == i:
                acc = acc - arrow_element(dq, field, star) * arrow_element(
                    dq, field, a
                )
        if lam is not None and lam[i]:
            acc = acc - PathElement(dq, field, {(i, ()): _as_scalar(field, lam[i])})
        rels.append(acc)
    return dq, rels


def _as_scalar(field, value):
    if isinstance(value, int):
        return field.from_int(value)
    if field == QQI and isinstance(value, (Fraction,)):
        return GaussianRational(value)
    return value


class DGQuiverAlgebra:
    """Derived (deformed) preprojective algebra: the doubled quiver in
    degree 0 plus degree -1 loops t_i with d(t_i) the deformed relation."""

    __slots__ = ("quiver", "double", "lam", "field", "relations")

    def __init__(self, q, lam=None, field=None):
        if field is None:
            field = QQI if lam is not None else QQ
        self.quiver = q
        self.lam = lam
        self.field = field
        self.double, self.relations = preprojective_relations(q, lam, field)

    def d_t(self, i):
        return self.relations[i]

    def h0_truncated_dims(self, max_len):
        """Truncated dims of H^0 computed through the differential: the
        degree -1 part is spanned by p t_i q and d(p t_i q) = p d(t_i) q
        (the Leibniz signs are trivial because p, q sit in degree 0)."""
        from .linalg import SpanBuilder

        dq = self.double
        field = self.field
        paths = path_basis(dq, max_len)
        index = {p: i for i, p in enumerate(paths)}
        span = SpanBuilder(field)
        for i in range(self.quiver.n):
            rel = self.relations[i]
            for p in paths:
                if path_target(dq, p) != i:
                    continue
                for p2 in paths:
                    if path_source(dq, p2) != i:
                        continue
                    if len(p[1]) + 2 + len(p2[1]) > max_len:
                        continue
                    prod = (
                        PathElement(dq, field, {p: field.one()})
                        * rel
                        * PathElement(dq, field, {p2: field.one()})
                    )
                    if not prod.terms:
                        continue
                    span.add({index[pp]: c for pp, c in prod.terms.items()})
        return _quotient_dims(paths, span, max_len, field)


def derived_preprojective(q, lam=None, field=None):
    return DGQuiverAlgebra(q, lam, field)


# -- quasi-dominance and Kleinian blocks ---------------------------------------------


def _re_im(value):
    if isinstance(value, GaussianRational):
        return value.re, value.im
    return Fraction(value), Fraction(0)


def quasi_dominant(lam):
    """Each entry has positive real part, or zero real part and
    nonnegative imaginary part."""
    for v in lam:
        re, im = _re_im(v)
        if re > 0:
            continue
        if re == 0 and im >= 0:
            continue
        return False
    return True


EXTENDED_DYNKIN_TYPES = ("A", "D", "E6", "E7", "E8")


def extended_dynkin(type_label):
    """Extended Dynkin quiver with extending vertex 0.

    Labels: A<n> (n>=1), D<n> (n>=4), E6, E7, E8.  Vertex numbering
    follows the usual tables; edge orientations are arbitrary (everything
    downstream only uses the underlying graph or the double)."""
    label = type_label.strip().upper().replace("~", "")
    kind = label[0]
    if kind == "A":
        n = int(label[1:])
        if n < 1:
            raise InputError("A_n needs n >= 1")
        vertices = [str(i) for i in range(n + 1)]
        arrows = [(f"a{i}", i, (i + 1) % (n + 1)) for i in range(n + 1)]
        if n == 1:
            arrows = [("a0", 0, 1), ("a1", 1, 0)]
        return Quiver(vertices, arrows, extending=0)
    if kind == "D":
        n = int(label[1:])
        if n < 4:
            raise InputError("D_n needs n >= 4")
        vertices = [str(i) for i in range(n + 1)]
        arrows = [("a0", 0, 2), ("a1", 1, 2)]
        arrows += [(f"a{i}", i, i + 1) for i in range(2, n - 2)]
        arrows += [(f"b{n-1}", n - 2, n - 1), (f"b{n}", n - 2, n)]
        return Quiver(vertices, arrows, extending=0)
    if label == "E6":
        edges = [(0, 1), (1, 4), (2, 3), (3, 4), (4, 5), (5, 6)]
    elif label == "E7":
        edges = [(0, 1), (1, 2), (2, 3), (3, 7), (3, 4), (4, 5), (5, 6)]
    elif label == "E8":
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 8), (5, 6), (6, 7)]
    else:
        raise InputError(f"unknown extended Dynkin label {type_label!r}")
    nv = max(max(e) for e in edges) + 1
    return Quiver(
        [str(i) for i in range(nv)],
        [(f"a{i}", t, h) for i, (t, h) in enumerate(edges)],
        extending=0,
    )


KLEINIAN_POLYNOMIALS = {
    "A": lambda n: f"x^2 + y^2 + z^{n + 1}",
    "D": lambda n: f"x^2 + y^2*z + z^{n - 1}",
    "E6": lambda _: "x^2 + y^3 + z^4",
    "E7": lambda _: "x^2 + y^3 + y*z^3",
    "E8": lambda _: "x^2 + y^3 + z^5",
}


def classify_dynkin_component(vertices, edges):
    """ADE label of a connected simply-laced tree, via leg lengths."""
    adj = {v: [] for v in vertices}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    if len(edges) != len(vertices) - 1:
        raise InputError("component is not a tree")
    deg3 = [v for v in vertices if len(adj[v]) >= 3]
    if not deg3:
        return ("A", len(vertices))
    if len(deg3) > 1 or len(adj[deg3[0]]) > 3:
        raise InputError("not an ADE diagram")
    center = deg3[0]
    legs = []
    for start in adj[center]:
        length = 1
        prev, cur = center, start
        while True:
            nxt = [u for u in adj[cur] if u != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            length += 1
        legs.append(length)
    legs.sort()
    if legs[0] == 1 and legs[1] == 1:
        return ("D", len(vertices))
    if legs == [1, 2, 2]:
        return ("E6", 6)
    if legs == [1, 2, 3]:
        return ("E7", 7)
    if legs == [1, 2, 4]:
        return ("E8", 8)
    raise InputError("not an ADE diagram")


def block_polynomial(kind, size):
    return KLEINIAN_POLYNOMIALS[kind](size)


class BlockReport:
    """Dynkin components of the zero-weight subquiver with polynomials."""

    __slots__ = ("blocks",)

    def __init__(self, blocks):
        self.blocks = list(blocks)

    def to_json(self):
        return [
            {
                "type": f"{kind}{size}" if kind in ("A", "D") else kind,
                "vertices": sorted(vertices),
                "polynomial": block_polynomial(kind, size),
            }
            for (kind, size, vertices) in self.blocks
        ]


def dsg_blocks(type_label, lam):
    """Kleinian block decomposition for a deformation weight.

    lam lists the weights of the internal (non-extending) vertices in
    vertex order; it must be quasi-dominant (no normalisation is applied).
    Returns the connected components of the zero-weight full subquiver,
    classified as Dynkin types with their defining polynomials.
    """
    q = extended_dynkin(type_label)
    internal = [v for v in range(q.n) if v != q.extending]
    if len(lam) != len(internal):
        raise InputError(
            f"need {len(internal)} internal weights, got {len(lam)}"
        )
    if not quasi_dominant(lam):
        raise NotQuasiDominant("weights are not quasi-dominant")
    weight_of = dict(zip(internal, lam))
    zero = [v for v in internal if not _nonzero(weight_of[v])]
    zero_set = set(zero)
    edges = [
        (t, h)
        for (t, h) in q.underlying_edges()
        if t in zero_set and h in zero_set
    ]
    blocks = []
    seen = set()
    for v in sorted(zero):
        if v in seen:
            continue
        comp = {v}
        frontier = [v]
        while frontier:
            cur = frontier.pop()
            for (a, b) in edges:
                for other, this in ((a, b), (b, a)):
                    if this == cur and other not in comp:
                        comp.add(other)
                        frontier.append(other)
        seen |= comp
        comp_edges = [(a, b) for (a, b) in edges if a in comp and b in comp]
        kind, size = classify_dynkin_component(sorted(comp), comp_edges)
        blocks.append((kind, size, sorted(q.vertices[u] for u in comp)))
    blocks.sort(key=lambda b: b[2])
    return BlockReport(blocks)


def _nonzero(value):
    re, im = _re_im(value)
    return bool(re) or bool(im)


# -- Drinfeld derived quotient --------------------------------------------------------


class DrinfeldComplex:
    """Components Q^0 = A and Q^{-1-i} = Ae (x) R^i (x) eA, with the
    alternating signed sum of multiplications as the differential.

    Ae, R = eAe and eA are reduced echelon bases, so the coordinate of a
    product on basis row k is the product's entry at that row's pivot.
    The multiplication tables Ae.eA -> A, Ae.R -> Ae, R.R -> R and
    R.eA -> eA map an index pair (i, j) to the nonzero coordinates
    [(k, coeff)] of the product, and each is built once per complex.  The
    R.R and R.eA tables come as a pair (+, -) indexed by the parity of the
    join, so the differential never multiplies by a sign.
    """

    __slots__ = ("algebra", "depth_bound", "ae", "r", "ea", "_tables")

    def __init__(self, algebra, e, depth_bound):
        if not algebra.is_idempotent(e):
            raise NotIdempotent("e^2 != e")
        self.algebra = algebra
        self.depth_bound = depth_bound
        a = algebra
        self.ae = a.subspace_basis([a.multiply(a.basis_vector(i), e)
                                    for i in range(a.dim)])
        self.ea = a.subspace_basis([a.multiply(e, a.basis_vector(i))
                                    for i in range(a.dim)])
        self.r = a.subspace_basis(
            [a.multiply(e, a.multiply(a.basis_vector(i), e))
             for i in range(a.dim)]
        )
        self._tables = {}

    def dims(self):
        out = {0: self.algebra.dim}
        for i in range(self.depth_bound + 1):
            out[-1 - i] = len(self.ae) * len(self.r) ** i * len(self.ea)
        return out

    def _products(self, left_basis, right_basis, target_basis):
        """{(i, j): [(k, coeff)]}: the nonzero coordinates of
        left_i * right_j in the reduced echelon basis `target_basis`."""
        rows = [[(c, x) for c, x in enumerate(row) if x] for row in target_basis]
        pivots = [row[0][0] for row in rows]
        table = {}
        for i, u in enumerate(left_basis):
            for j, v in enumerate(right_basis):
                prod = self.algebra.multiply(u, v)
                coords = [(k, prod[p]) for k, p in enumerate(pivots) if prod[p]]
                for k, c in coords:
                    for col, x in rows[k]:
                        prod[col] = prod[col] - c * x
                if any(prod):
                    raise InputError("product leaves the subspace")
                table[(i, j)] = coords
        return table

    def _tables_of(self, name):
        """The tables of one kind, built on first use: "ends" is Ae.eA -> A,
        "joins" is (Ae.R -> Ae, signed R.R -> R, signed R.eA -> eA)."""
        tables = self._tables.get(name)
        if tables is None:
            if name == "ends":
                a = self.algebra
                units = [a.basis_vector(k) for k in range(a.dim)]
                tables = self._products(self.ae, self.ea, units)
            else:
                tables = (
                    self._products(self.ae, self.r, self.ae),
                    _signed(self._products(self.r, self.r, self.r)),
                    _signed(self._products(self.r, self.ea, self.ea)),
                )
            self._tables[name] = tables
        return tables

    def component_basis(self, degree):
        """Index tuples (ae, r_1..r_i, ea) for Q^{degree}."""
        if degree == 0:
            return [(k,) for k in range(self.algebra.dim)]
        factors = [self.ae] + [self.r] * (-degree - 1) + [self.ea]
        return list(product(*(range(len(f)) for f in factors)))

    def differential(self, key, degree):
        """d of a tensor basis element at the given degree: {key: coeff}.

        Join j multiplies the factors key[j] and key[j + 1] with sign
        (-1)^j; the first join is Ae.R, the last R.eA, the ones between
        R.R, and the only join of Q^{-1} is Ae.eA -> A."""
        if degree == 0:
            return {}
        if degree == -1:
            return {(k,): c for k, c in self._tables_of("ends")[key]}
        left, mid, right = self._tables_of("joins")
        last = len(key) - 2
        out = {}
        for j in range(last + 1):
            table = left if j == 0 else (right if j == last else mid)[j & 1]
            head, tail = key[:j], key[j + 2:]
            for k, c in table[key[j:j + 2]]:
                tkey = head + (k,) + tail
                if tkey in out:
                    c = out[tkey] + c
                    if not c:
                        del out[tkey]
                        continue
                out[tkey] = c
        return out


def _signed(table):
    """(table, -table): the table and its negation, indexed by parity."""
    return table, {
        pair: [(k, -c) for k, c in coords] for pair, coords in table.items()
    }


def drinfeld_quotient(algebra, e, depth_bound):
    return DrinfeldComplex(algebra, e, depth_bound)


def drinfeld_cohomology(complex_, window):
    """Cohomology dims in a window of (nonpositive) degrees."""
    depth = max(-min(window), 0)
    if depth >= complex_.depth_bound - 1:
        raise WindowExceedsBound(
            f"window depth {depth} needs depth bound > {depth + 1}"
        )
    field = complex_.algebra.field
    bases = {}
    for deg in range(min(window) - 1, 1):
        bases[deg] = complex_.component_basis(deg)
    deltas = {}

    def delta(key):
        # (k,) spans Q^0 and (ae, r_1..r_i, ea) spans Q^{-1-i}: the degree
        # is 1 - len(key).  A key is a cycle candidate in its degree and a
        # boundary source for the next one, so d(key) is computed once.
        d = deltas.get(key)
        if d is None:
            d = deltas[key] = complex_.differential(key, 1 - len(key))
        return d

    return {
        n: cohomology_at(field, bases.get(n, []), delta, bases.get(n - 1, []))[0]
        for n in window
    }
