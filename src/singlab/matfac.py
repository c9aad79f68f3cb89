"""Matrix factorisations of a polynomial sigma: (phi, psi) with
phi psi = psi phi = sigma * id.

Conventions: X_0 is the even module, X_1 the odd one, phi: X_1 -> X_0
and psi: X_0 -> X_1, so the odd differential of X = X_0 (+) X_1 is the
block matrix [[0, phi], [psi, 0]].

Optional weight data (generator weights u on X_0, v on X_1) makes phi
and psi weight-homogeneous with uniform shifts s_phi + s_psi = wdeg(sigma);
it powers the 2-periodic unfolding and slicewise cohomology of mapping
complexes.  Isomorphisms are certified by explicit closed degree-0
morphisms whose component matrices have invertible constant term, i.e.
are invertible over the local ring.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .complexes import FreeComplex
from .errors import (
    FieldLacksI,
    InputError,
    NotHomogeneous,
    SigmaMismatch,
    VariableClash,
)
from .linalg import ExactMatrix, cohomology_at
from .polymat import PolyMatrix
from .polyring import (
    Poly,
    QuotientRing,
    buchberger,
    format_poly,
    quotient_basis,
)


class MatrixFactorisation:
    __slots__ = ("ring", "sigma", "rank", "phi", "psi", "weights_even",
                 "weights_odd", "shift_phi", "shift_psi")

    def __init__(self, ring, sigma, phi, psi, weights_even=None, weights_odd=None):
        if phi.rows != phi.cols or psi.rows != psi.cols or phi.rows != psi.rows:
            raise InputError("phi and psi must be square of equal size")
        if phi.ring != ring or psi.ring != ring or sigma.ring != ring:
            raise InputError("matrix factorisation data over mixed rings")
        self.ring = ring
        self.sigma = sigma
        self.rank = phi.rows
        self.phi = phi
        self.psi = psi
        self.weights_even = None
        self.weights_odd = None
        self.shift_phi = None
        self.shift_psi = None
        if weights_even is not None:
            self._attach_weights(tuple(weights_even), tuple(weights_odd))

    def _attach_weights(self, u, v):
        if len(u) != self.rank or len(v) != self.rank:
            raise InputError("need one weight per generator")
        w = self.sigma.homogeneous_weight()
        if w is None:
            raise NotHomogeneous("sigma is not weight-homogeneous")
        s_phi = None
        for r in range(self.rank):
            for c in range(self.rank):
                p = self.phi.entry(r, c)
                if p.is_zero():
                    continue
                hw = p.homogeneous_weight()
                if hw is None:
                    raise NotHomogeneous(f"phi[{r}][{c}] is not homogeneous")
                s = hw - (v[c] - u[r])
                if s_phi is None:
                    s_phi = s
                elif s != s_phi:
                    raise NotHomogeneous("phi shifts are not uniform")
        if s_phi is None:
            s_phi = Fraction(w, 2)
        s_psi = w - s_phi
        for r in range(self.rank):
            for c in range(self.rank):
                p = self.psi.entry(r, c)
                if p.is_zero():
                    continue
                hw = p.homogeneous_weight()
                if hw is None or hw != (u[c] - v[r]) + s_psi:
                    raise NotHomogeneous(f"psi[{r}][{c}] breaks the grading")
        self.weights_even = u
        self.weights_odd = v
        self.shift_phi = s_phi
        self.shift_psi = s_psi

    def graded(self, weights_even=None, weights_odd=None):
        """Copy with weight data attached (defaults: all generators weight 0)."""
        u = weights_even if weights_even is not None else (0,) * self.rank
        v = weights_odd if weights_odd is not None else (0,) * self.rank
        return MatrixFactorisation(self.ring, self.sigma, self.phi, self.psi, u, v)

    def is_graded(self):
        return self.weights_even is not None

    def to_json(self):
        return {
            "ring": self.ring.to_json(),
            "sigma": format_poly(self.sigma),
            "phi": self.phi.to_json(),
            "psi": self.psi.to_json(),
        }

    @classmethod
    def from_json(cls, doc):
        from .polyring import Ring, parse_poly

        ring = Ring.from_json(doc["ring"])
        sigma = parse_poly(ring, doc["sigma"])
        phi = PolyMatrix.from_json(ring, doc["phi"])
        psi = PolyMatrix.from_json(ring, doc["psi"])
        return cls(ring, sigma, phi, psi)

    def __repr__(self):
        return f"MF(rank {self.rank} of {format_poly(self.sigma)})"


class MFMorphism:
    """Morphism of matrix factorisations with a definite parity.

    Even: (f0: X0 -> Y0, f1: X1 -> Y1); odd: (f0: X0 -> Y1, f1: X1 -> Y0).
    """

    __slots__ = ("source", "target", "parity", "f0", "f1")

    def __init__(self, source, target, parity, f0, f1):
        self.source = source
        self.target = target
        self.parity = parity % 2
        self.f0 = f0
        self.f1 = f1

    def is_closed(self):
        """d_Y f - (-1)^parity f d_X = 0."""
        x, y = self.source, self.target
        if self.parity == 0:
            a = y.psi @ self.f0 - self.f1 @ x.psi
            b = y.phi @ self.f1 - self.f0 @ x.phi
        else:
            a = y.phi @ self.f0 + self.f1 @ x.psi
            b = y.psi @ self.f1 + self.f0 @ x.phi
        return a.is_zero() and b.is_zero()


def mf_verify(m):
    """Check phi psi = psi phi = sigma id; returns (ok, witness|None)."""
    ring = m.ring
    expect = PolyMatrix.identity(ring, m.rank, scale=m.sigma)
    for name, prod in (("phi*psi", m.phi @ m.psi), ("psi*phi", m.psi @ m.phi)):
        for r in range(m.rank):
            for c in range(m.rank):
                got = prod.entry(r, c)
                want = expect.entry(r, c)
                if got != want:
                    return False, {
                        "product": name,
                        "row": r,
                        "col": c,
                        "got": format_poly(got),
                        "expected": format_poly(want),
                    }
    return True, None


def mf_shift(m):
    """Sigma: swap (X0, X1), i.e. swap phi and psi."""
    return MatrixFactorisation(
        m.ring, m.sigma, m.psi, m.phi, m.weights_odd, m.weights_even
    )


def mf_sum(a, b):
    if a.ring != b.ring or a.sigma != b.sigma:
        raise SigmaMismatch("direct sum needs equal rings and sigma")
    ring = a.ring
    phi = PolyMatrix.block(ring, [[a.phi, None], [None, b.phi]])
    psi = PolyMatrix.block(ring, [[a.psi, None], [None, b.psi]])
    u = v = None
    if a.is_graded() and b.is_graded() and a.shift_phi == b.shift_phi:
        u = a.weights_even + b.weights_even
        v = a.weights_odd + b.weights_odd
    return MatrixFactorisation(ring, a.sigma, phi, psi, u, v)


def _hom_weights(x, y):
    if not (x.is_graded() and y.is_graded()):
        return None
    w = x.sigma.homogeneous_weight()
    even = [None, None]  # blocks (X0->Y0), (X1->Y1)
    odd = [None, None]  # blocks (X0->Y1), (X1->Y0)
    even[0] = [[y.weights_even[r] - x.weights_even[c]
                for c in range(x.rank)] for r in range(y.rank)]
    even[1] = [[(y.weights_odd[r] - y.shift_psi) - (x.weights_odd[c] - x.shift_psi)
                for c in range(x.rank)] for r in range(y.rank)]
    odd[0] = [[(y.weights_odd[r] - y.shift_psi) - x.weights_even[c]
               for c in range(x.rank)] for r in range(y.rank)]
    odd[1] = [[(y.weights_even[r] - w) - (x.weights_odd[c] - x.shift_psi)
               for c in range(x.rank)] for r in range(y.rank)]
    return even, odd


def mf_hom_basis(x, y, parity):
    """Basis (p, r, c) of Hom parity component: X_p -> Y_{p+parity}."""
    out = []
    for p in (0, 1):
        for r in range(y.rank):
            for c in range(x.rank):
                out.append((p, r, c))
    return out


def mf_hom_complex(x, y):
    """The Z/2 mapping complex Hom(X, Y) as a FreeComplex over the ring.

    Differential: f -> d_Y f - (-1)^{|f|} f d_X; squares to zero because
    d^2 = sigma is central and the sigmas agree.
    """
    if x.ring != y.ring or x.sigma != y.sigma:
        raise SigmaMismatch("hom needs equal rings and sigma")
    ring = x.ring
    hw = _hom_weights(x, y)
    comps = {}
    bases = {}
    for parity in (0, 1):
        basis = mf_hom_basis(x, y, parity)
        bases[parity] = basis
        if hw is None:
            comps[parity] = tuple(0 for _ in basis)
        else:
            table = hw[0] if parity == 0 else hw[1]
            comps[parity] = tuple(table[p][r][c] for (p, r, c) in basis)

    def d_block(mf, src_parity):
        return mf.psi if src_parity == 0 else mf.phi

    diffs = {}
    for parity in (0, 1):
        src = bases[parity]
        tgt = bases[(parity + 1) % 2]
        index = {key: k for k, key in enumerate(tgt)}
        sign = ring.constant(1 if parity % 2 else -1)  # -(-1)^parity
        grid = [[ring.zero() for _ in src] for _ in tgt]
        for col, (p, r, c) in enumerate(src):
            dy = d_block(y, (p + parity) % 2)
            for r2 in range(y.rank):
                v = dy.entry(r2, r)
                if v.is_zero():
                    continue
                row = index[(p, r2, c)]
                grid[row][col] = grid[row][col] + v
            dx = d_block(x, (p + 1) % 2)  # X_{1-p} -> X_p
            for c2 in range(x.rank):
                v = dx.entry(c, c2)
                if v.is_zero():
                    continue
                row = index[((p + 1) % 2, r, c2)]
                grid[row][col] = grid[row][col] + v * sign
        diffs[parity] = PolyMatrix(ring, grid, len(tgt), len(src))
    meta = {"hom_bases": bases}
    if hw is not None:
        meta["period_weight"] = x.sigma.homogeneous_weight()
    return FreeComplex(ring, "Z2", comps, diffs, meta=meta)


def quotient_by_sigma(m):
    return QuotientRing(m.ring, [m.sigma])


def mf_unfold(m, window, base=None):
    """2-periodic Z-graded complex over ring/(sigma) in degrees [-N, N].

    Weight data is used when present (each period drops the generator
    weights by wdeg(sigma)); ungraded factorisations unfold with zero
    bookkeeping weights and are probed through the degree filtration."""
    if base is None:
        base = quotient_by_sigma(m)
    if m.is_graded():
        w = m.sigma.homogeneous_weight()
        weights_even = m.weights_even
        weights_odd = tuple(v - m.shift_psi for v in m.weights_odd)
    else:
        w = 0
        weights_even = (0,) * m.rank
        weights_odd = (0,) * m.rank
    phi_bar = m.phi.reduce(base)
    psi_bar = m.psi.reduce(base)
    comps = {}
    diffs = {}
    for d in range(-window, window + 1):
        k = d // 2 if d % 2 == 0 else (d - 1) // 2
        if d % 2 == 0:
            comps[d] = tuple(u - k * w for u in weights_even)
        else:
            comps[d] = tuple(v - k * w for v in weights_odd)
    for d in range(-window, window):
        diffs[d] = psi_bar if d % 2 == 0 else phi_bar
    return FreeComplex(base, "Z", comps, diffs)


def mf_fold(m, base=None):
    """The Z/2 complex over ring/(sigma): d0 = psi-bar, d1 = phi-bar.

    When the factorisation is graded, the period weight wdeg(sigma) is
    recorded so periodic_slice_cohomology applies; otherwise the complex
    is probed through the degree filtration."""
    if base is None:
        base = quotient_by_sigma(m)
    meta = {}
    if m.is_graded() and m.sigma.homogeneous_weight() is not None:
        comps = {
            0: tuple(m.weights_even),
            1: tuple(v - m.shift_psi for v in m.weights_odd),
        }
        meta["period_weight"] = m.sigma.homogeneous_weight()
    else:
        comps = {0: (0,) * m.rank, 1: (0,) * m.rank}
    diffs = {0: m.psi.reduce(base), 1: m.phi.reduce(base)}
    return FreeComplex(base, "Z2", comps, diffs, meta=meta)


class CokernelPresentation:
    """coker(phi-bar) as a module presentation over ring/(sigma)."""

    __slots__ = ("base", "matrix", "generators")

    def __init__(self, base, matrix):
        self.base = base
        self.matrix = matrix
        self.generators = matrix.rows

    def dimension_exact(self):
        """dim_k of the cokernel for rank-1 presentations (Groebner)."""
        if self.generators != 1:
            raise InputError("exact dimension implemented for rank 1")
        gens = list(self.base.gb.generators) + [self.matrix.entry(0, 0)]
        gens = [g for g in gens if not g.is_zero()]
        qb = quotient_basis(buchberger(gens))
        return qb.dimension

    def dims_filtered(self, bound):
        """dim of (R^n / column space) restricted to filtration level d,
        for d = 0..bound; stabilisation indicates a finite cokernel."""
        base = self.base
        ring = base.ring
        field = ring.field
        n = self.generators

        # The two-spot complex R^cols -> R^n -> 0 on filtration pieces:
        # keys (0, g, e) span R^n, keys (-1, c, e) the columns' sources.
        def delta(key):
            spot, c, e = key
            if spot == 0:
                return {}
            mono = ring.monomial(e)
            image = {}
            for r in range(n):
                p = self.matrix.entry(r, c)
                if p.is_zero():
                    continue
                for e2, coeff in base.reduce(p * mono).terms.items():
                    image[(0, r, e2)] = coeff
            return image

        out = []
        for d in range(bound + 1):
            monos = base.monomials_up_to_weight(d)
            small = [(0, g, e) for g in range(n) for e in monos]
            sources = [(-1, c, e) for c in range(self.matrix.cols) for e in monos]
            out.append(cohomology_at(field, small, delta, sources)[0])
        return out


def mf_cokernel(m, base=None):
    if base is None:
        base = quotient_by_sigma(m)
    return CokernelPresentation(base, m.phi.reduce(base))


def _kron(a, b, ring):
    data = []
    for ra in range(a.rows):
        for rb in range(b.rows):
            row = []
            for ca in range(a.cols):
                for cb in range(b.cols):
                    row.append(a.entry(ra, ca) * b.entry(rb, cb))
            data.append(row)
    return PolyMatrix(ring, data, a.rows * b.rows, a.cols * b.cols)


def mf_tensor(a, b):
    """Tensor product: a matrix factorisation of sigma_a + sigma_b over the
    joined ring, with the Koszul-signed Z/2 tensor differential."""
    ring = a.ring.join(b.ring)
    offset = a.ring.nvars
    pos_a = list(range(offset))
    pos_b = [offset + j for j in range(b.ring.nvars)]

    def lift_a(mat):
        return mat.embed(ring, pos_a)

    def lift_b(mat):
        return mat.embed(ring, pos_b)

    phi_a, psi_a = lift_a(a.phi), lift_a(a.psi)
    phi_b, psi_b = lift_b(b.phi), lift_b(b.psi)
    id_a0 = PolyMatrix.identity(ring, a.rank)
    id_a1 = PolyMatrix.identity(ring, a.rank)
    id_b0 = PolyMatrix.identity(ring, b.rank)
    id_b1 = PolyMatrix.identity(ring, b.rank)
    phi = PolyMatrix.block(
        ring,
        [
            [_kron(phi_a, id_b0, ring), _kron(id_a0, phi_b, ring)],
            [_kron(id_a1, psi_b, ring).scale(ring.constant(-1)),
             _kron(psi_a, id_b1, ring)],
        ],
    )
    psi = PolyMatrix.block(
        ring,
        [
            [_kron(psi_a, id_b0, ring),
             _kron(id_a1, phi_b, ring).scale(ring.constant(-1))],
            [_kron(id_a0, psi_b, ring), _kron(phi_a, id_b1, ring)],
        ],
    )
    sigma = ring.embed(a.sigma, pos_a) + ring.embed(b.sigma, pos_b)
    return MatrixFactorisation(ring, sigma, phi, psi)


def knoerrer_g(m, new_var, var_weight=1):
    """G: X over sigma  |->  (omega, omega) over sigma + y^2."""
    if new_var in m.ring.variables:
        raise VariableClash(new_var)
    ring = m.ring.extend([new_var], [var_weight])
    pos = list(range(m.ring.nvars))
    phi = m.phi.embed(ring, pos)
    psi = m.psi.embed(ring, pos)
    y = ring.variable(new_var)
    n = m.rank
    y_id = PolyMatrix.identity(ring, n, scale=y)
    neg_y_id = PolyMatrix.identity(ring, n, scale=-y)
    omega = PolyMatrix.block(ring, [[y_id, psi], [phi, neg_y_id]])
    sigma = ring.embed(m.sigma, pos) + y * y
    return MatrixFactorisation(ring, sigma, omega, omega)


def knoerrer_h(m, u_var, v_var, var_weights=(1, 1)):
    """H: X over sigma |-> ([[u,psi],[phi,-v]], [[v,psi],[phi,-u]]) over sigma+uv."""
    for name in (u_var, v_var):
        if name in m.ring.variables:
            raise VariableClash(name)
    ring = m.ring.extend([u_var, v_var], list(var_weights))
    pos = list(range(m.ring.nvars))
    phi = m.phi.embed(ring, pos)
    psi = m.psi.embed(ring, pos)
    u = ring.variable(u_var)
    v = ring.variable(v_var)
    n = m.rank
    phi_new = PolyMatrix.block(
        ring,
        [[PolyMatrix.identity(ring, n, scale=u), psi],
         [phi, PolyMatrix.identity(ring, n, scale=-v)]],
    )
    psi_new = PolyMatrix.block(
        ring,
        [[PolyMatrix.identity(ring, n, scale=v), psi],
         [phi, PolyMatrix.identity(ring, n, scale=-u)]],
    )
    sigma = ring.embed(m.sigma, pos) + u * v
    return MatrixFactorisation(ring, sigma, phi_new, psi_new)


def _project_poly(poly, target_ring, drop_position):
    terms = {}
    for e, c in poly.terms.items():
        if e[drop_position] != 0:
            raise InputError("polynomial still involves the dropped variable")
        terms[e[:drop_position] + e[drop_position + 1 :]] = c
    return Poly(target_ring, terms)


def restrict_rho(m, var):
    """rho: set var := 0 and drop it from the ring."""
    i = m.ring.variables.index(var)
    small = m.ring.drop(var)
    sub = {var: 0}
    phi = m.phi.substitute(sub).map(
        lambda p: _project_poly(p, small, i), ring=small
    )
    psi = m.psi.substitute(sub).map(
        lambda p: _project_poly(p, small, i), ring=small
    )
    sigma = _project_poly(m.sigma.substitute(sub), small, i)
    return MatrixFactorisation(small, sigma, phi, psi)


def tau(m, var):
    """tau: the involution var -> -var."""
    neg = {var: -m.ring.variable(var)}
    return MatrixFactorisation(
        m.ring,
        m.sigma.substitute(neg),
        m.phi.substitute(neg),
        m.psi.substitute(neg),
    )


# -- isomorphism certificates -------------------------------------------------


def _constant_matrix_invertible(mat):
    ring = mat.ring
    field = ring.field
    zero_sub = {v: 0 for v in ring.variables}
    const = mat.substitute(zero_sub)
    entries = {}
    for r in range(const.rows):
        for c in range(const.cols):
            v = const.entry(r, c).constant_term()
            if v:
                entries[(r, c)] = v
    em = ExactMatrix(const.rows, const.cols, entries, field)
    return em.rank() == const.rows


def morphism_is_iso(f):
    """Closed degree-0 morphism with both constant parts invertible,
    i.e. invertible over the local (power series) ring."""
    return (
        f.parity == 0
        and f.is_closed()
        and _constant_matrix_invertible(f.f0)
        and _constant_matrix_invertible(f.f1)
    )


def find_isomorphism(a, b, degree_bound=0, attempts=64, seed=7):
    """Search for a closed degree-0 morphism a -> b that is invertible
    over the local ring, with entries of weighted degree <= degree_bound.

    Solves the closedness equations exactly, then looks for an invertible
    point of the solution space.  Returns an MFMorphism or None.
    """
    if a.ring != b.ring or a.sigma != b.sigma or a.rank != b.rank:
        return None
    ring = a.ring
    field = ring.field
    monos = ring.monomials_up_to_weight(degree_bound)
    n = a.rank
    # unknowns: (which, r, c, mono) for which in (0, 1)
    unknowns = []
    for which in (0, 1):
        for r in range(n):
            for c in range(n):
                for e in monos:
                    unknowns.append((which, r, c, e))
    uindex = {u: k for k, u in enumerate(unknowns)}

    maxdeg = degree_bound + max(
        [p.total_weight() for mat in (a.phi, a.psi, b.phi, b.psi)
         for row in mat.data for p in row if p] or [0]
    )
    eq_monos = ring.monomials_up_to_weight(maxdeg)
    eq_index = {}
    rows = []

    def add_equations(coeff_terms):
        # coeff_terms: {(r, c): list of (unknown_key, Poly multiplier)}
        for (r, c), pieces in coeff_terms.items():
            acc = {}
            for key, mult in pieces:
                col = uindex[key]
                for e, coeff in mult.terms.items():
                    acc.setdefault(e, {})
                    acc[e][col] = acc[e].get(col, field.zero()) + coeff
            for e, rowdata in acc.items():
                rows.append(rowdata)

    # psi_b f0 - f1 psi_a = 0  and  phi_b f1 - f0 phi_a = 0
    for (dy, which_src, dx) in ((b.psi, 0, a.psi), (b.phi, 1, a.phi)):
        which_tgt = 1 - which_src
        terms = {}
        for r in range(n):
            for c in range(n):
                pieces = []
                for k in range(n):
                    p = dy.entry(r, k)
                    if not p.is_zero():
                        for e in monos:
                            pieces.append(
                                ((which_src, k, c, e), p * ring.monomial(e))
                            )
                    q = dx.entry(k, c)
                    if not q.is_zero():
                        for e in monos:
                            pieces.append(
                                ((which_tgt, r, k, e),
                                 -(ring.monomial(e) * q))
                            )
                terms[(r, c)] = pieces
        add_equations(terms)

    entries = {}
    for i, rowdata in enumerate(rows):
        for col, v in rowdata.items():
            if v:
                entries[(i, col)] = v
    system = ExactMatrix(len(rows), len(unknowns), entries, field)
    kernel = system.kernel_basis()
    if not kernel:
        return None

    def build(vec):
        mats = []
        for which in (0, 1):
            data = [[ring.zero()] * n for _ in range(n)]
            for k, key in enumerate(unknowns):
                if key[0] != which or not vec[k]:
                    continue
                _, r, c, e = key
                data[r][c] = data[r][c] + ring.monomial(e, vec[k])
            mats.append(PolyMatrix(ring, data, n, n))
        return MFMorphism(a, b, 0, mats[0], mats[1])

    rng = random.Random(seed)
    candidates = list(kernel)
    for _ in range(attempts):
        vec = [field.zero()] * len(unknowns)
        for basis_vec in kernel:
            coeff = field.from_int(rng.randint(-3, 3))
            vec = [x + coeff * y for x, y in zip(vec, basis_vec)]
        candidates.append(vec)
    for vec in candidates:
        f = build(vec)
        if morphism_is_iso(f):
            return f
    return None


def find_homotopy(f, degree_bound=2):
    """Bounded search for h with (dh + hd) = f, for an even morphism f.

    Solves the linear system over entry monomials of weighted degree
    <= degree_bound; returns (h0, h1) or None.  None means "not found up
    to the bound", never a certified negative.
    """
    x, y = f.source, f.target
    ring = x.ring
    field = ring.field
    if f.parity != 0:
        raise InputError("homotopy search implemented for even morphisms")
    monos = ring.monomials_up_to_weight(degree_bound)
    n_src, n_tgt = x.rank, y.rank
    unknowns = []
    for which in (0, 1):  # h0: X0 -> Y1, h1: X1 -> Y0
        for r in range(n_tgt):
            for c in range(n_src):
                for e in monos:
                    unknowns.append((which, r, c, e))
    uindex = {u: k for k, u in enumerate(unknowns)}
    rows = []
    rhs = []

    def equations(dy, which_src, dx, which_tgt, target_mat):
        # dy @ h_{which_src} + h_{which_tgt} @ dx = target block
        for r in range(n_tgt):
            for c in range(n_src):
                acc = {}
                for k in range(n_tgt):
                    p = dy.entry(r, k)
                    if p.is_zero():
                        continue
                    for e in monos:
                        key = uindex[(which_src, k, c, e)]
                        prod = p * ring.monomial(e)
                        for e2, coeff in prod.terms.items():
                            acc.setdefault(e2, {})
                            acc[e2][key] = acc[e2].get(key, field.zero()) + coeff
                for k in range(n_src):
                    q = dx.entry(k, c)
                    if q.is_zero():
                        continue
                    for e in monos:
                        key = uindex[(which_tgt, r, k, e)]
                        prod = ring.monomial(e) * q
                        for e2, coeff in prod.terms.items():
                            acc.setdefault(e2, {})
                            acc[e2][key] = acc[e2].get(key, field.zero()) + coeff
                target = target_mat.entry(r, c)
                exps = set(acc) | set(target.terms)
                for e2 in exps:
                    rows.append(acc.get(e2, {}))
                    rhs.append(target.terms.get(e2, field.zero()))

    # (dh)_0 component X0 -> Y0: phi_Y h0 + h1 psi_X = f0
    equations(y.phi, 0, x.psi, 1, f.f0)
    # (dh)_1 component X1 -> Y1: psi_Y h1 + h0 phi_X = f1
    equations(y.psi, 1, x.phi, 0, f.f1)
    entries = {}
    for i, rowdata in enumerate(rows):
        for col, v in rowdata.items():
            if v:
                entries[(i, col)] = v
    system = ExactMatrix(len(rows), len(unknowns), entries, field)
    sol = system.solve(rhs)
    if sol is None:
        return None
    mats = []
    for which in (0, 1):
        data = [[ring.zero()] * n_src for _ in range(n_tgt)]
        for k, key in enumerate(unknowns):
            if key[0] != which or not sol[k]:
                continue
            _, r, c, e = key
            data[r][c] = data[r][c] + ring.monomial(e, sol[k])
        mats.append(PolyMatrix(ring, data, n_tgt, n_src))
    return mats[0], mats[1]


def rho_g_certificate(m):
    """The explicit permutation isomorphism rho(G X) -> X (+) Sigma X.

    f0 is the block antidiagonal swap, f1 the identity.
    """
    ring = m.ring
    n = m.rank
    ident = PolyMatrix.identity(ring, n)
    zero = PolyMatrix.zero(ring, n, n)
    f0 = PolyMatrix.block(ring, [[zero, ident], [ident, zero]])
    f1 = PolyMatrix.identity(ring, 2 * n)
    return f0, f1


def sigma_g_iso(m, new_var="y"):
    """Closed invertible morphism Sigma G(X) -> G(Sigma X), blocks [[0, i],[-i, 0]]
    and its negative; needs a square root of -1 in the field."""
    i_elt = m.ring.field.sqrt_minus_one()
    if i_elt is None:
        raise FieldLacksI(str(m.ring.field))
    gx = knoerrer_g(m, new_var)
    gsx = knoerrer_g(mf_shift(m), new_var)
    ring = gx.ring
    n = m.rank
    i_id = PolyMatrix.identity(ring, n, scale=ring.constant(i_elt))
    neg_i_id = PolyMatrix.identity(ring, n, scale=ring.constant(-i_elt))
    zero = PolyMatrix.zero(ring, n, n)
    j = PolyMatrix.block(ring, [[zero, i_id], [neg_i_id, zero]])
    f = MFMorphism(mf_shift(gx), gsx, 0, j, j.scale(ring.constant(-1)))
    return f
