"""Hochschild cochain and chain complexes of finite-dimensional curved
(or honest) graded algebras, truncated by tensor length.

All signs come from one mechanical scheme: bar variables are shifted, the
three operations b0 = s(h), b1 = s d s^{-1}, b2(sx, sy) = (-1)^{|x|} s(xy)
all have degree +1, and operators acting inside a tensor pick up the
Koszul sign over the (shifted) entries they jump across.  The curvature
enters the cochain differential by inserting h into an argument slot and
the chain differential by inserting h between tensor factors.

Truncation discipline: with tensor-length bound L, the differential is a
total map on lengths <= L-1.  Cohomology in a degree counts kernel
vectors of length <= L-1 modulo images of length-<= L-1 vectors, compared
inside the length-<= L ambient space; requested windows must satisfy
max(window) < L-1.
"""

from __future__ import annotations

from itertools import product as iproduct

from .errors import InputError, WindowExceedsBound
from .linalg import cohomology_at, matrix_from_columns


class CurvedAlgebra:
    """Finite-dimensional graded algebra with differential and curvature."""

    __slots__ = ("algebra", "grading", "degrees", "diff", "curvature")

    def __init__(self, algebra, grading, degrees, diff=None, curvature=None):
        if grading not in ("Z", "Z2"):
            raise InputError("grading must be 'Z' or 'Z2'")
        self.algebra = algebra
        self.grading = grading
        degrees = tuple(int(d) for d in degrees)
        if len(degrees) != algebra.dim:
            raise InputError("one degree per basis element")
        if grading == "Z2":
            degrees = tuple(d % 2 for d in degrees)
        self.degrees = degrees
        self.diff = {
            i: {k: v for k, v in val.items() if v}
            for i, val in (diff or {}).items()
            if val
        }
        self.curvature = list(curvature) if curvature else algebra.zero_vector()

    @property
    def field(self):
        return self.algebra.field

    @property
    def dim(self):
        return self.algebra.dim

    def deg(self, i):
        return self.degrees[i]

    def d_vector(self, v):
        out = self.algebra.zero_vector()
        for i, c in enumerate(v):
            if not c:
                continue
            for k, w in self.diff.get(i, {}).items():
                out[k] = out[k] + c * w
        return out

    def has_curvature(self):
        return any(self.curvature)

    def degree_matches(self, d1, d2):
        if self.grading == "Z2":
            return d1 % 2 == d2 % 2
        return d1 == d2


def validate_curved(a):
    """Check unit, associativity, gradedness, Leibniz, d(h)=0, d^2=[h,-].

    Returns (ok, witness); the witness names the first failing family.
    """
    alg = a.algebra
    w = alg.unit_defect()
    if w is not None:
        return False, {"check": "unit", "at": w}
    w = alg.associativity_defect()
    if w is not None:
        return False, {"check": "associativity", "at": w}
    if a.grading == "Z" and a.deg(alg.unit) != 0:
        return False, {"check": "unit-degree", "at": alg.basis[alg.unit]}
    for (i, j), val in alg.mult.items():
        for k, c in val.items():
            if c and not a.degree_matches(a.deg(k), a.deg(i) + a.deg(j)):
                return False, {
                    "check": "graded-product",
                    "at": (alg.basis[i], alg.basis[j], alg.basis[k]),
                }
    for i, val in a.diff.items():
        for k, c in val.items():
            if c and not a.degree_matches(a.deg(k), a.deg(i) + 1):
                return False, {"check": "d-degree", "at": alg.basis[i]}
    for k, c in enumerate(a.curvature):
        if c and not a.degree_matches(a.deg(k), 2):
            return False, {"check": "curvature-degree", "at": alg.basis[k]}
    # graded Leibniz on basis pairs
    for i in range(alg.dim):
        u = alg.basis_vector(i)
        du = a.d_vector(u)
        sign = a.field.from_int(-1 if a.deg(i) % 2 else 1)
        for j in range(alg.dim):
            v = alg.basis_vector(j)
            lhs = a.d_vector(alg.multiply(u, v))
            rhs = alg.multiply(du, v)
            xdv = alg.multiply(u, a.d_vector(v))
            rhs = [x + sign * y for x, y in zip(rhs, xdv)]
            if lhs != rhs:
                return False, {
                    "check": "leibniz",
                    "at": (alg.basis[i], alg.basis[j]),
                }
    if a.d_vector(a.curvature) != alg.zero_vector():
        return False, {"check": "d-of-curvature", "at": None}
    for i in range(alg.dim):
        u = alg.basis_vector(i)
        dd = a.d_vector(a.d_vector(u))
        hx = alg.multiply(a.curvature, u)
        xh = alg.multiply(u, a.curvature)
        comm = [x - y for x, y in zip(hx, xh)]
        if dd != comm:
            return False, {"check": "d-squared", "at": alg.basis[i]}
    return True, None


class HochschildComplexSpec:
    """Choice of variant (COCHAIN/CHAIN), support, length bound, reduction."""

    __slots__ = ("algebra", "variant", "support", "length_bound", "reduced")

    def __init__(self, algebra, variant="COCHAIN", support="SUM",
                 length_bound=6, reduced=True):
        if variant not in ("COCHAIN", "CHAIN"):
            raise InputError("variant must be COCHAIN or CHAIN")
        if support not in ("SUM", "PRODUCT"):
            raise InputError("support must be SUM or PRODUCT")
        if length_bound < 1:
            raise InputError("length bound must be >= 1")
        self.algebra = algebra
        self.variant = variant
        self.support = support
        self.length_bound = length_bound
        self.reduced = reduced

    def slot_indices(self):
        a = self.algebra
        if self.reduced:
            return [i for i in range(a.dim) if i != a.algebra.unit]
        return list(range(a.dim))


# -- the cochain side ----------------------------------------------------------


def _sdeg_in(a, i):
    """Shifted degree of a bar slot entry."""
    return a.deg(i) - 1


def _cochain_degree(a, inputs, out):
    """Cohomological degree: deg(out) + l - sum deg(in)."""
    n = a.deg(out) + len(inputs) - sum(a.deg(i) for i in inputs)
    return n % 2 if a.grading == "Z2" else n


def _prefix_sign_pow(a, inputs, upto):
    return sum(_sdeg_in(a, i) for i in inputs[:upto])


def _cochain_delta_basis(spec, key):
    """delta of the basis cochain key=(inputs, out): {target_key: scalar}."""
    a = spec.algebra
    alg = a.algebra
    field = a.field
    slots = set(spec.slot_indices())
    inputs, out = key
    ell = len(inputs)
    p = (_cochain_degree(a, inputs, out) - 1) % 2  # parity of shifted degree
    sign_phi = field.from_int(-1 if p else 1)  # (-1)^{|phi|}
    result = {}

    def bump(tkey, coeff):
        if not coeff:
            return
        cur = result.get(tkey, field.zero()) + coeff
        if cur:
            result[tkey] = cur
        else:
            result.pop(tkey, None)

    if ell + 1 <= spec.length_bound:
        # b2(phi (x) 1) and b2(1 (x) phi)
        for y in slots:
            s_o = field.from_int(-1 if a.deg(out) % 2 else 1)
            for k, c in alg.product_basis(out, y).items():
                bump((inputs + (y,), k), s_o * c)
            s_y = field.from_int(-1 if a.deg(y) % 2 else 1)
            koszul = field.from_int(-1 if (p * (_sdeg_in(a, y) % 2)) % 2 else 1)
            for k, c in alg.product_basis(y, out).items():
                bump(((y,) + inputs, k), koszul * s_y * c)
        # - (-1)^{|phi|} phi(1^r (x) b2 (x) 1^t)
        for r in range(ell):
            pre = field.from_int(
                -1 if _prefix_sign_pow(a, inputs, r) % 2 else 1
            )
            for y in slots:
                s_y = field.from_int(-1 if a.deg(y) % 2 else 1)
                for z in slots:
                    c = alg.product_basis(y, z).get(inputs[r])
                    if not c:
                        continue
                    tkey = (inputs[:r] + (y, z) + inputs[r + 1 :], out)
                    bump(tkey, -sign_phi * pre * s_y * c)
    # b1 outer
    for k, c in a.diff.get(out, {}).items():
        bump((inputs, k), c)
    # - (-1)^{|phi|} phi(... b1 ...)
    for r in range(ell):
        pre = field.from_int(-1 if _prefix_sign_pow(a, inputs, r) % 2 else 1)
        for y in slots:
            c = a.diff.get(y, {}).get(inputs[r])
            if not c:
                continue
            bump((inputs[:r] + (y,) + inputs[r + 1 :], out), -sign_phi * pre * c)
    # - (-1)^{|phi|} phi(... b0 ...): curvature insertion
    if a.has_curvature():
        for r in range(ell):
            c = a.curvature[inputs[r]]
            if not c:
                continue
            pre = field.from_int(
                -1 if _prefix_sign_pow(a, inputs, r) % 2 else 1
            )
            bump((inputs[:r] + inputs[r + 1 :], out), -sign_phi * pre * c)
    return result


def _cochain_basis(spec, max_length=None):
    a = spec.algebra
    slots = spec.slot_indices()
    bound = spec.length_bound if max_length is None else max_length
    keys = []
    for ell in range(bound + 1):
        for inputs in iproduct(slots, repeat=ell):
            for out in range(a.dim):
                keys.append((inputs, out))
    return keys


def _group_by_degree(a, keys, degree_of):
    table = {}
    for key in keys:
        table.setdefault(degree_of(key), []).append(key)
    return table


def _truncated_cohomology(spec, degree_of, delta_of, window, guard=True):
    """Dims and representatives in a window, for both variants."""
    a = spec.algebra
    L = spec.length_bound
    if guard and max(window) >= L - 1:
        raise WindowExceedsBound(
            f"window max {max(window)} needs length bound > {max(window) + 1}"
        )
    keys = _cochain_basis(spec) if spec.variant == "COCHAIN" else _chain_basis(spec)
    by_degree = _group_by_degree(a, keys, degree_of)
    degree = {key: n for n, ks in by_degree.items() for key in ks}
    slot = 0 if spec.variant == "COCHAIN" else 1

    def step(n):
        return n + 1 if a.grading == "Z" else (n + 1) % 2

    def defined(n):
        """Keys of degree n on which the truncated differential is total."""
        return [key for key in by_degree.get(n, []) if len(key[slot]) <= L - 1]

    deltas = {}

    def delta(key):
        # the part of delta(key) one degree up (all of it unless the
        # algebra's grading is broken); a key is a cycle candidate in its
        # degree and a boundary source for the next, so it is computed once
        d = deltas.get(key)
        if d is None:
            up = step(degree[key])
            d = deltas[key] = {
                t: c for t, c in delta_of(spec, key).items() if degree[t] == up
            }
        return d

    dims = {}
    reps = {}
    cache = {}
    for n in window:
        nn = n % 2 if a.grading == "Z2" else n
        if nn not in cache:
            prev_n = nn - 1 if a.grading == "Z" else (nn + 1) % 2
            cache[nn] = cohomology_at(a.field, defined(nn), delta, defined(prev_n))
        dims[n], reps[n] = cache[nn]
    return dims, reps


class HochschildCohomology:
    """Window of HH^* dims with representatives and cup products."""

    def __init__(self, spec, dims, reps):
        self.spec = spec
        self.dims = dims
        self.representatives = reps

    def hh0_basis(self):
        """Arity-0 parts of the degree-0 representatives, as elements of A."""
        a = self.spec.algebra
        out = []
        for rep in self.representatives.get(0, []):
            v = a.algebra.zero_vector()
            for (inputs, o), c in rep.items():
                if len(inputs) == 0:
                    v[o] = v[o] + c
            out.append(v)
        return out

    def cup(self, rep1, n1, rep2, n2):
        """Cup product cochain of two representative cochains."""
        a = self.spec.algebra
        alg = a.algebra
        field = a.field
        out = {}
        for (i1, o1), c1 in rep1.items():
            s_o1 = field.from_int(-1 if a.deg(o1) % 2 else 1)
            for (i2, o2), c2 in rep2.items():
                if len(i1) + len(i2) > self.spec.length_bound:
                    continue
                p2 = (_cochain_degree(a, i2, o2) - 1) % 2
                kos = _prefix_sign_pow(a, i1, len(i1)) % 2
                sign = field.from_int(-1 if (p2 * kos) % 2 else 1)
                for k, c in alg.product_basis(o1, o2).items():
                    key = (i1 + i2, k)
                    cur = out.get(key, field.zero()) + sign * s_o1 * c1 * c2 * c
                    if cur:
                        out[key] = cur
                    else:
                        out.pop(key, None)
        return out

    def cohomology_class(self, cochain, n):
        """Class coefficients of a cocycle against the degree-n reps."""
        spec = self.spec
        a = spec.algebra
        field = a.field
        nn = n % 2 if a.grading == "Z2" else n
        keys = _cochain_basis(spec)
        by_degree = _group_by_degree(
            a, keys, lambda key: _cochain_degree(a, key[0], key[1])
        )
        space = by_degree.get(nn, [])
        amb_index = {key: i for i, key in enumerate(space)}
        vec = [field.zero()] * len(space)
        for key, c in cochain.items():
            vec[amb_index[key]] = vec[amb_index[key]] + c
        rep_vecs = []
        for rep in self.representatives.get(n, []):
            rv = [field.zero()] * len(space)
            for key, c in rep.items():
                rv[amb_index[key]] = rv[amb_index[key]] + c
            rep_vecs.append(rv)
        prev_n = nn - 1 if a.grading == "Z" else (nn + 1) % 2
        ivecs = []
        for key in by_degree.get(prev_n, []):
            if len(key[0]) > spec.length_bound - 1:
                continue
            iv = [field.zero()] * len(space)
            hit = False
            for tkey, c in _cochain_delta_basis(spec, key).items():
                pos = amb_index.get(tkey)
                if pos is not None and c:
                    iv[pos] = iv[pos] + c
                    hit = True
            if hit:
                ivecs.append(iv)
        mat = matrix_from_columns(field, rep_vecs + ivecs, rows=len(space))
        sol = mat.solve(vec)
        if sol is None:
            return None
        return sol[: len(rep_vecs)]


def hochschild_cohomology(spec, window):
    """dims per degree in the window, with representatives and products."""
    if spec.variant != "COCHAIN":
        raise InputError("cohomology needs a COCHAIN spec")
    a = spec.algebra
    dims, reps = _truncated_cohomology(
        spec,
        lambda key: _cochain_degree(a, key[0], key[1]),
        _cochain_delta_basis,
        list(window),
    )
    return HochschildCohomology(spec, dims, reps)


# -- the chain side -------------------------------------------------------------


def _chain_basis(spec):
    a = spec.algebra
    slots = spec.slot_indices()
    keys = []
    for ell in range(spec.length_bound + 1):
        for inputs in iproduct(slots, repeat=ell):
            for a0 in range(a.dim):
                keys.append((a0, inputs))
    return keys


def _chain_degree(a, a0, inputs):
    """Homological degree: ell for ungraded algebras."""
    t = a.deg(a0) + sum(_sdeg_in(a, i) for i in inputs)
    return (-t) % 2 if a.grading == "Z2" else -t


# Sign normalisation of the chain differential, pinned by b^2 = 0 on
# graded-commutative, noncommutative, differential, and curved test
# algebras (see tests).
_CHAIN_SIGNS = (1, -1, -1, -1, -1)


def _chain_b_basis(spec, key):
    """b of the basis chain key=(a0, inputs): {target_key: scalar}."""
    a = spec.algebra
    alg = a.algebra
    field = a.field
    a0, inputs = key
    ell = len(inputs)
    result = {}

    def bump(tkey, coeff):
        if not coeff:
            return
        cur = result.get(tkey, field.zero()) + coeff
        if cur:
            result[tkey] = cur
        else:
            result.pop(tkey, None)

    unit = alg.unit
    s_a0 = field.from_int(-1 if a.deg(a0) % 2 else 1)

    def prefix(upto):
        return field.from_int(
            -1
            if (a.deg(a0) + _prefix_sign_pow(a, inputs, upto)) % 2
            else 1
        )

    k0, k1, k2, k3, k4 = _CHAIN_SIGNS
    if ell >= 1:
        # join a0 with x1
        for k, c in alg.product_basis(a0, inputs[0]).items():
            bump((k, inputs[1:]), k0 * s_a0 * c)
        # inner joins
        for j in range(ell - 1):
            pre = prefix(j)
            s_xj = field.from_int(-1 if a.deg(inputs[j]) % 2 else 1)
            for k, c in alg.product_basis(inputs[j], inputs[j + 1]).items():
                if spec.reduced and k == unit:
                    continue
                bump(
                    (a0, inputs[:j] + (k,) + inputs[j + 2 :]),
                    k1 * pre * s_xj * c,
                )
        # wrap: x_last moves to the front
        last = inputs[-1]
        kos = (_sdeg_in(a, last) % 2) * (
            (a.deg(a0) + _prefix_sign_pow(a, inputs, ell - 1)) % 2
        )
        wsign = field.from_int(-1 if kos % 2 else 1)
        for k, c in alg.product_basis(last, a0).items():
            bump((k, inputs[:-1]), k2 * wsign * c)
    # b1 terms
    for k, c in a.diff.get(a0, {}).items():
        bump((k, inputs), c)
    for j in range(ell):
        pre = prefix(j)
        for k, c in a.diff.get(inputs[j], {}).items():
            if spec.reduced and k == unit:
                continue
            bump((a0, inputs[:j] + (k,) + inputs[j + 1 :]), k3 * pre * c)
    # b0 insertions into the ell+1 gaps
    if a.has_curvature() and ell + 1 <= spec.length_bound:
        for j in range(ell + 1):
            pre = prefix(j)
            for k, c in enumerate(a.curvature):
                if not c or (spec.reduced and k == unit):
                    continue
                bump((a0, inputs[:j] + (k,) + inputs[j:]), k4 * pre * c)
    return result



def hochschild_homology(spec, window):
    """dims of HH_n for n in the window (homological indexing)."""
    if spec.variant != "CHAIN":
        raise InputError("homology needs a CHAIN spec")
    a = spec.algebra
    if max(window) >= spec.length_bound - 1:
        raise WindowExceedsBound(
            f"window max {max(window)} needs length bound > {max(window) + 1}"
        )

    # chains: b lowers homological degree by 1; reuse the cochain machinery
    # on the negated degree so "next" matches the shared bookkeeping.
    def neg_degree(key):
        d = _chain_degree(a, key[0], key[1])
        return d if a.grading == "Z2" else -d

    dims, _ = _truncated_cohomology(
        spec,
        neg_degree,
        _chain_b_basis,
        [(-n if a.grading == "Z" else n) for n in window],
        guard=False,
    )
    return {
        (-n if a.grading == "Z" else n): v for n, v in dims.items()
    }


def curvature_term_check(spec):
    """The assembled differential squares to zero on every basis element
    of tensor length <= L-2 (where both applications are fully defined)."""
    delta_of = (
        _cochain_delta_basis if spec.variant == "COCHAIN" else _chain_b_basis
    )
    keys = (
        _cochain_basis(spec, spec.length_bound - 2)
        if spec.variant == "COCHAIN"
        else [
            key
            for key in _chain_basis(spec)
            if len(key[1]) <= spec.length_bound - 2
        ]
    )
    field = spec.algebra.field
    for key in keys:
        acc = {}
        for mid, c in delta_of(spec, key).items():
            for tkey, c2 in delta_of(spec, mid).items():
                cur = acc.get(tkey, field.zero()) + c * c2
                if cur:
                    acc[tkey] = cur
                else:
                    acc.pop(tkey, None)
        if acc:
            return False
    return True
