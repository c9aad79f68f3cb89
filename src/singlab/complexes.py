"""Complexes of finite-rank free modules over a Ring or QuotientRing.

Z- and Z/2-graded complexes share one representation: components carry a
tuple of generator weights, differentials are polynomial matrices, and
d of degree i maps component i to component i+1 (indices mod 2 for Z/2).

Sign conventions are fixed once and for all: Koszul rule throughout,
shift negates the differential once per step, and the cone differential
uses the blocks d_M, f, 0, -d_N.

Weight bookkeeping: an entry of d at (row r, col c) must be homogeneous
of weighted degree weight(source gen c) - weight(target gen r), so every
differential preserves total weight and each weight slice is a finite
complex of vector spaces ("SliceComplex") whose cohomology is computed
exactly.  Complexes that are not weight-homogeneous can still be probed
through the degree filtration (truncated_cohomology_dims).
"""

from __future__ import annotations

from .errors import DegreeMismatch, InputError, NotHomogeneous, RingMismatch
from .linalg import ExactMatrix, cohomology_at
from .polymat import PolyMatrix
from .polyring import QuotientRing, Ring


def ring_of(base):
    return base.ring if isinstance(base, QuotientRing) else base


class FreeComplex:
    """Finite complex of free modules with weighted generators."""

    __slots__ = ("base", "grading", "components", "differentials", "meta")

    def __init__(self, base, grading, components, differentials, meta=None):
        if grading not in ("Z", "Z2"):
            raise InputError("grading must be 'Z' or 'Z2'")
        self.base = base
        self.grading = grading
        self.components = {
            d: tuple(ws) for d, ws in components.items() if len(tuple(ws))
        }
        self.differentials = {}
        for d, mat in differentials.items():
            if mat is None:
                continue
            expect = (self.rank(self.next_degree(d)), self.rank(d))
            if (mat.rows, mat.cols) != expect:
                raise InputError(
                    f"differential at {d} has shape {(mat.rows, mat.cols)},"
                    f" expected {expect}"
                )
            if mat.rows and mat.cols:
                self.differentials[d] = mat
        self.meta = meta or {}

    # -- shape helpers ---------------------------------------------------

    def next_degree(self, d):
        return (d + 1) % 2 if self.grading == "Z2" else d + 1

    def prev_degree(self, d):
        return (d + 1) % 2 if self.grading == "Z2" else d - 1

    def degrees(self):
        return sorted(self.components)

    def rank(self, d):
        return len(self.components.get(d, ()))

    def weights(self, d):
        return self.components.get(d, ())

    def differential(self, d):
        mat = self.differentials.get(d)
        if mat is None:
            return PolyMatrix.zero(
                ring_of(self.base), self.rank(self.next_degree(d)), self.rank(d)
            )
        return mat

    # -- validation ------------------------------------------------------

    def check_d_squared(self):
        """d∘d reduces to zero over the base at every degree."""
        for d in list(self.components):
            first = self.differential(d)
            second = self.differential(self.next_degree(d))
            if first.rows and second.rows:
                if not (second @ first).is_zero(self.base):
                    return False
        return True

    def period_weight(self):
        """Internal weight of the 2-periodicity for Z/2 complexes.

        The parity 1 -> 0 differential raises total weight by this amount
        (one full turn raises it by the weight of sigma); 0 for honest
        weight-preserving complexes.
        """
        return self.meta.get("period_weight", 0)

    def weight_defect(self):
        """First differential entry breaking weight homogeneity, or None."""
        for d in sorted(self.differentials):
            mat = self.differentials[d]
            src = self.weights(d)
            tgt = self.weights(self.next_degree(d))
            bump = self.period_weight() if (self.grading == "Z2" and d == 1) else 0
            for r in range(mat.rows):
                for c in range(mat.cols):
                    p = mat.entry(r, c)
                    if p.is_zero():
                        continue
                    hw = p.homogeneous_weight()
                    if hw is None or hw != src[c] - tgt[r] + bump:
                        return (d, r, c)
        return None

    def is_weight_homogeneous(self):
        return self.weight_defect() is None

    def __repr__(self):
        ranks = {d: self.rank(d) for d in self.degrees()}
        return f"FreeComplex({self.grading}, ranks={ranks})"


# -- chain maps and homotopies ----------------------------------------------


class ChainMap:
    """Degree-d collection of matrices f_i : M_i -> N_{i+d}."""

    __slots__ = ("source", "target", "degree", "matrices")

    def __init__(self, source, target, degree, matrices):
        if source.base != target.base or source.grading != target.grading:
            raise RingMismatch("chain map between incompatible complexes")
        self.source = source
        self.target = target
        self.degree = degree
        self.matrices = dict(matrices)

    def matrix(self, i):
        mat = self.matrices.get(i)
        if mat is None:
            tdeg = i + self.degree
            if self.source.grading == "Z2":
                tdeg %= 2
            return PolyMatrix.zero(
                ring_of(self.source.base),
                self.target.rank(tdeg),
                self.source.rank(i),
            )
        return mat

    def target_degree(self, i):
        t = i + self.degree
        return t % 2 if self.source.grading == "Z2" else t

    def is_chain_map(self):
        """d_N f = (-1)^deg f d_M, reduced over the base."""
        sign = -1 if self.degree % 2 else 1
        for i in self.source.degrees():
            lhs = self.target.differential(self.target_degree(i)) @ self.matrix(i)
            rhs = (
                self.matrix(self.source.next_degree(i))
                @ self.source.differential(i)
            ).scale(ring_of(self.source.base).constant(sign))
            if not (lhs - rhs).is_zero(self.source.base):
                return False
        return True


# -- chain-level operations ---------------------------------------------------


def shift(c, n):
    """Shift by n: degree i picks up old degree i+n, d gains (-1)^n."""
    if c.grading == "Z2":
        n = n % 2
        comps = {d: c.weights((d + n) % 2) for d in (0, 1)}
        sign = -1 if n else 1
        diffs = {
            d: c.differential((d + n) % 2).scale(ring_of(c.base).constant(sign))
            for d in (0, 1)
        }
        return FreeComplex(c.base, "Z2", comps, diffs)
    comps = {d - n: c.weights(d) for d in c.degrees()}
    sign = -1 if n % 2 else 1
    diffs = {
        d - n: c.differentials[d].scale(ring_of(c.base).constant(sign))
        for d in c.differentials
    }
    return FreeComplex(c.base, "Z", comps, diffs)


def cone(f):
    """Mapping cone of a degree-0 chain map: cone_i = M_{i+1} (+) N_i."""
    if f.degree != 0:
        raise DegreeMismatch("cone requires a degree-0 chain map")
    if f.source.grading != "Z":
        raise InputError("cone implemented for Z-graded complexes")
    m, n = f.source, f.target
    ring = ring_of(m.base)
    degs = sorted(set([d - 1 for d in m.degrees()] + list(n.degrees())))
    comps = {}
    for d in degs:
        comps[d] = tuple(m.weights(d + 1)) + tuple(n.weights(d))
    diffs = {}
    minus_one = ring.constant(-1)
    for d in degs:
        rows_m = m.rank(d + 2)
        rows_n = n.rank(d + 1)
        cols_m = m.rank(d + 1)
        cols_n = n.rank(d)
        if (rows_m + rows_n) == 0 or (cols_m + cols_n) == 0:
            continue
        top_left = m.differential(d + 1) if rows_m and cols_m else None
        bot_left = f.matrix(d + 1) if rows_n and cols_m else None
        bot_right = (
            n.differential(d).scale(minus_one) if rows_n and cols_n else None
        )
        grid = []
        if rows_m:
            grid.append(
                [
                    top_left
                    if top_left is not None
                    else PolyMatrix.zero(ring, rows_m, cols_m),
                    PolyMatrix.zero(ring, rows_m, cols_n),
                ]
            )
        if rows_n:
            grid.append(
                [
                    bot_left
                    if bot_left is not None
                    else PolyMatrix.zero(ring, rows_n, cols_m),
                    bot_right
                    if bot_right is not None
                    else PolyMatrix.zero(ring, rows_n, cols_n),
                ]
            )
        # drop zero-width column blocks for PolyMatrix.block
        keepcols = [j for j, w in enumerate((cols_m, cols_n)) if w]
        grid = [[row[j] for j in keepcols] for row in grid]
        diffs[d] = PolyMatrix.block(ring, grid)
    return FreeComplex(m.base, "Z", comps, diffs)


def hom_basis(m, n, d):
    """Ordered basis (i, r, c) of the degree-d hom component."""
    out = []
    for i in m.degrees():
        t = (i + d) % 2 if m.grading == "Z2" else i + d
        for r in range(n.rank(t)):
            for c in range(m.rank(i)):
                out.append((i, r, c))
    return out


def hom_complex(m, n):
    """Mapping complex with differential f -> d_N f - (-1)^{deg f} f d_M."""
    if m.base != n.base or m.grading != n.grading:
        raise RingMismatch("hom of incompatible complexes")
    ring = ring_of(m.base)
    if m.grading == "Z2":
        degs = [0, 1]
    else:
        degs = sorted(
            {j - i for i in m.degrees() for j in n.degrees()}
        )
    comps = {}
    bases = {}
    for d in degs:
        basis = hom_basis(m, n, d)
        if not basis:
            continue
        bases[d] = basis
        ws = []
        for (i, r, c) in basis:
            t = (i + d) % 2 if m.grading == "Z2" else i + d
            ws.append(n.weights(t)[r] - m.weights(i)[c])
        comps[d] = tuple(ws)
    diffs = {}
    for d in degs:
        src = bases.get(d)
        nd = (d + 1) % 2 if m.grading == "Z2" else d + 1
        tgt = bases.get(nd)
        if not src or not tgt:
            continue
        index = {key: k for k, key in enumerate(tgt)}
        sign = ring.constant(1 if d % 2 else -1)  # -(-1)^d
        grid = [[ring.zero() for _ in src] for _ in tgt]
        for col, (i, r, c) in enumerate(src):
            ti = (i + d) % 2 if m.grading == "Z2" else i + d
            dn = n.differential(ti)
            for r2 in range(dn.rows):
                p = dn.entry(r2, r)
                if p.is_zero():
                    continue
                row = index.get((i, r2, c))
                if row is not None:
                    grid[row][col] = grid[row][col] + p
            pi = m.prev_degree(i)
            dm = m.differential(pi)
            if dm.rows:
                for c2 in range(dm.cols):
                    p = dm.entry(c, c2)
                    if p.is_zero():
                        continue
                    row = index.get((pi, r, c2))
                    if row is not None:
                        grid[row][col] = grid[row][col] + p * sign
        diffs[d] = PolyMatrix(ring, grid, len(tgt), len(src))
    return FreeComplex(
        m.base, m.grading, comps, diffs, meta={"hom_bases": bases}
    )


def tensor_basis(m, n, i):
    out = []
    for p in m.degrees():
        q = i - p
        for a in range(m.rank(p)):
            for b in range(n.rank(q)):
                out.append((p, a, b))
    return out


def tensor(m, n):
    """Tensor product with d(y (x) z) = dy (x) z + (-1)^deg(y) y (x) dz."""
    if m.base != n.base:
        raise RingMismatch("tensor of complexes over different bases")
    if m.grading != "Z" or n.grading != "Z":
        raise InputError("tensor implemented for Z-graded complexes")
    ring = ring_of(m.base)
    degs = sorted({p + q for p in m.degrees() for q in n.degrees()})
    comps = {}
    bases = {}
    for i in degs:
        basis = tensor_basis(m, n, i)
        if not basis:
            continue
        bases[i] = basis
        comps[i] = tuple(
            m.weights(p)[a] + n.weights(i - p)[b] for (p, a, b) in basis
        )
    diffs = {}
    for i in degs:
        src = bases.get(i)
        tgt = bases.get(i + 1)
        if not src or not tgt:
            continue
        index = {key: k for k, key in enumerate(tgt)}
        grid = [[ring.zero() for _ in src] for _ in tgt]
        for col, (p, a, b) in enumerate(src):
            q = i - p
            dm = m.differential(p)
            for a2 in range(dm.rows):
                v = dm.entry(a2, a)
                if v.is_zero():
                    continue
                row = index.get((p + 1, a2, b))
                if row is not None:
                    grid[row][col] = grid[row][col] + v
            dn = n.differential(q)
            sgn = ring.constant(-1 if p % 2 else 1)
            for b2 in range(dn.rows):
                v = dn.entry(b2, b)
                if v.is_zero():
                    continue
                row = index.get((p, a, b2))
                if row is not None:
                    grid[row][col] = grid[row][col] + v * sgn
        diffs[i] = PolyMatrix(ring, grid, len(tgt), len(src))
    return FreeComplex(m.base, "Z", comps, diffs, meta={"tensor_bases": bases})


def unit_complex(base):
    """The base as a complex concentrated in degree 0, weight 0."""
    return FreeComplex(base, "Z", {0: (0,)}, {})


# -- weight slices -------------------------------------------------------------


class SliceComplex:
    """Finite complex of vector spaces: one weight slice of a FreeComplex."""

    __slots__ = ("field", "grading", "weight", "dims", "matrices", "bases")

    def __init__(self, field, grading, weight, dims, matrices, bases):
        self.field = field
        self.grading = grading
        self.weight = weight
        self.dims = dims
        self.matrices = matrices
        self.bases = bases

    def next_degree(self, d):
        return (d + 1) % 2 if self.grading == "Z2" else d + 1

    def prev_degree(self, d):
        return (d + 1) % 2 if self.grading == "Z2" else d - 1

    def matrix(self, d):
        mat = self.matrices.get(d)
        if mat is None:
            return ExactMatrix.zero(
                self.field, self.dims.get(self.next_degree(d), 0), self.dims.get(d, 0)
            )
        return mat

    def check_d_squared(self):
        for d in self.dims:
            a = self.matrix(d)
            b = self.matrix(self.next_degree(d))
            if a.rows and b.rows and not (b @ a).is_zero():
                return False
        return True

    def cohomology_dims(self):
        """dim ker(d_i) - rank(d_{i-1}) per degree."""
        out = {}
        for d, dim in sorted(self.dims.items()):
            if dim == 0:
                continue
            out[d] = dim - self.matrix(d).rank() - self.matrix(self.prev_degree(d)).rank()
        return out

    def euler_characteristic(self):
        if self.grading != "Z":
            raise InputError("Euler characteristic needs a Z-grading")
        return sum((-1) ** (d % 2) * dim for d, dim in self.dims.items())


def _slice_basis(c, degree, weight):
    base = c.base
    out = []
    for g, gw in enumerate(c.weights(degree)):
        need = weight - gw
        if need < 0 or need != int(need):
            continue
        for exp in base.monomials_of_weight(int(need)):
            out.append((g, exp))
    return out


def _slice_matrix(c, d, src_basis, tgt_basis):
    base = c.base
    ring = ring_of(base)
    field = ring.field
    index = {key: k for k, key in enumerate(tgt_basis)}
    mat = c.differential(d)
    entries = {}
    for col, (g, exp) in enumerate(src_basis):
        mono = ring.monomial(exp)
        for r in range(mat.rows):
            p = mat.entry(r, g)
            if p.is_zero():
                continue
            image = base.reduce(p * mono)
            for e2, coeff in image.terms.items():
                row = index.get((r, e2))
                if row is None:
                    raise NotHomogeneous("image term leaves the target slice")
                s = entries.get((row, col), field.zero()) + coeff
                if s:
                    entries[(row, col)] = s
                else:
                    entries.pop((row, col), None)
    return ExactMatrix(len(tgt_basis), len(src_basis), entries, field)


def slice_complex(c, weight):
    """Extract the weight slice of a weight-homogeneous complex."""
    defect = c.weight_defect()
    if defect is not None:
        raise NotHomogeneous(f"differential entry at {defect} is not homogeneous")
    if c.grading == "Z2" and c.period_weight():
        raise InputError(
            "2-periodic complex with nonzero period weight: "
            "use periodic_slice_cohomology"
        )
    field = ring_of(c.base).field
    bases = {}
    dims = {}
    for d in c.degrees():
        b = _slice_basis(c, d, weight)
        if b:
            bases[d] = b
            dims[d] = len(b)
    matrices = {}
    for d in list(bases):
        nd = c.next_degree(d)
        tgt = bases.get(nd)
        if not tgt:
            continue
        matrices[d] = _slice_matrix(c, d, bases[d], tgt)
    return SliceComplex(field, c.grading, weight, dims, matrices, bases)


def slice_weights(c, weight_bound, min_weight=0):
    """Weights in [min_weight, weight_bound] where some slice is nonzero."""
    cand = set()
    for d in c.degrees():
        for gw in c.weights(d):
            w = gw
            while w <= weight_bound:
                if w >= min_weight:
                    cand.add(w)
                w += 1
    return sorted(cand)


def slice_cohomology(c, weight_bound, min_weight=0):
    """Table (degree, weight) -> cohomology dim, weights up to the bound."""
    table = {}
    for w in slice_weights(c, weight_bound, min_weight):
        sc = slice_complex(c, w)
        for d, h in sc.cohomology_dims().items():
            if h:
                table[(d, w)] = h
    return table


def periodic_slice_cohomology(c, weight_bound, min_weight=0):
    """Slicewise cohomology of a Z/2 complex whose parity 1 -> 0
    differential raises total weight by the complex's period weight.

    The weight-graded strands are ... -> C_{0,t} -> C_{1,t} -> C_{0,t+p} -> ...
    and the table records (parity, weight) -> dim of ker/im at that spot.
    """
    if c.grading != "Z2":
        raise InputError("periodic slicing is for Z/2 complexes")
    defect = c.weight_defect()
    if defect is not None:
        raise NotHomogeneous(f"differential entry at {defect} is not homogeneous")
    period = c.period_weight()
    table = {}
    for t in slice_weights(c, weight_bound, min_weight):
        b0 = _slice_basis(c, 0, t)
        b1 = _slice_basis(c, 1, t)
        b0_up = _slice_basis(c, 0, t + period)
        b1_dn = _slice_basis(c, 1, t - period)
        d0 = _slice_matrix(c, 0, b0, b1)
        d1 = _slice_matrix(c, 1, b1, b0_up)
        d1_dn = _slice_matrix(c, 1, b1_dn, b0)
        h0 = len(b0) - d0.rank() - d1_dn.rank()
        h1 = len(b1) - d1.rank() - d0.rank()
        if h0:
            table[(0, t)] = h0
        if h1:
            table[(1, t)] = h1
    return table


# -- filtration-based probe for non-homogeneous complexes ----------------------


def _filtered_basis(c, degree, bound):
    base = c.base
    out = []
    for g in range(c.rank(degree)):
        for exp in base.monomials_up_to_weight(bound):
            out.append((g, exp))
    return out


def truncated_cohomology_dims(c, bound, slack=None, degrees=None):
    """Cohomology dims of the degree-<=bound filtration pieces.

    For each degree, counts kernel vectors supported in filtration level
    `bound` modulo images of vectors from level bound+slack.  A zero
    count certifies exactness of the filtration piece; nonzero counts can
    be boundary artifacts of the truncation, which shrink as slack grows.
    """
    base = c.base
    ring = ring_of(base)
    field = ring.field
    maxdeg = 0
    for mat in c.differentials.values():
        for row in mat.data:
            for p in row:
                maxdeg = max(maxdeg, p.total_weight())
    if slack is None:
        slack = maxdeg
    big_bound = bound + slack + maxdeg
    if degrees is None:
        degrees = c.degrees()
    big_bases = {d: _filtered_basis(c, d, big_bound) for d in set(
        list(degrees)
        + [c.next_degree(d) for d in degrees]
        + [c.prev_degree(d) for d in degrees]
    )}
    big_keys = {d: set(b) for d, b in big_bases.items()}

    deltas = {}

    def delta(key):
        # key = (degree, generator, exponent); terms beyond the big bound
        # drop out.  A key of low enough level is both a cycle candidate and
        # a boundary source, so its image is computed once.
        col = deltas.get(key)
        if col is None:
            d, g, exp = key
            nd = c.next_degree(d)
            mono = ring.monomial(exp)
            mat = c.differential(d)
            col = {}
            for r in range(mat.rows):
                p = mat.entry(r, g)
                if p.is_zero():
                    continue
                for e2, coeff in base.reduce(p * mono).terms.items():
                    if (r, e2) in big_keys[nd]:
                        col[(nd, r, e2)] = coeff
            deltas[key] = col
        return col

    def level(d, cutoff):
        return [
            (d, g, exp)
            for (g, exp) in big_bases.get(d, [])
            if ring.weighted_degree(exp) <= cutoff
        ]

    return {
        d: cohomology_at(
            field, level(d, bound), delta, level(c.prev_degree(d), bound + slack)
        )[0]
        for d in degrees
    }
