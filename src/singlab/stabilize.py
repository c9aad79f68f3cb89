"""Stabilisation of A/(f_1..f_r) as a matrix factorisation, and the dg
algebra of polynomial differential operators that computes its
endomorphisms.

The stabilisation lives on the exterior algebra of A^r: the differential
is Koszul contraction by the f_i plus left wedging with the cofactor
vector of sigma, and (h+d)^2 = sigma makes the even/odd split a matrix
factorisation.

End(L^stab) is modelled by the algebra on x-monomials times normal-form
words theta_S T_U subject to theta_i theta_j = -theta_j theta_i,
T_i T_j = -T_j T_i, and the graded Weyl relations
T_i theta_j + theta_j T_i = delta_ij.  The differential is A-linear and
acts on generators by theta_i -> f_i, T_i -> sigma_i, extended by the
graded Leibniz rule.  Cohomology is computed exactly per (parity, weight)
slice whenever the weight data makes the differential homogeneous of one
uniform shift.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .errors import InputError, NotHomogeneous, NotQuadratic
from .linalg import ExactMatrix, cohomology_at
from .matfac import MatrixFactorisation
from .polymat import PolyMatrix
from .polyring import division_coefficients, format_poly
from .koszul import wedge_sign


def _subsets_by_parity(r):
    even, odd = [], []
    for size in range(r + 1):
        bucket = even if size % 2 == 0 else odd
        bucket.extend(combinations(range(r), size))
    return even, odd


class Stabilisation:
    """L^stab for L = A/(f_1..f_r) and sigma in (f_1..f_r)."""

    __slots__ = ("ring", "fs", "sigma", "sigma_coeffs", "mf",
                 "even_basis", "odd_basis")

    def __init__(self, ring, fs, sigma, sigma_coeffs):
        self.ring = ring
        self.fs = tuple(fs)
        self.sigma = sigma
        self.sigma_coeffs = tuple(sigma_coeffs)
        combo = ring.zero()
        for c, f in zip(sigma_coeffs, fs):
            combo = combo + c * f
        if combo != sigma:
            raise InputError("sigma coefficients do not recombine to sigma")
        r = len(fs)
        even, odd = _subsets_by_parity(r)
        self.even_basis = even
        self.odd_basis = odd

        def total_diff(subset):
            """(h+d)(e_subset) as {target_subset: Poly}."""
            out = {}
            for k, i in enumerate(subset):
                rest = subset[:k] + subset[k + 1 :]
                term = self.fs[i] * (-1 if k % 2 else 1)
                out[rest] = out.get(rest, ring.zero()) + term
            for l, coeff in enumerate(self.sigma_coeffs):
                if coeff.is_zero():
                    continue
                sign = wedge_sign(l, subset)
                if sign == 0:
                    continue
                merged = tuple(sorted(subset + (l,)))
                out[merged] = out.get(merged, ring.zero()) + coeff * sign
            return out

        eidx = {S: k for k, S in enumerate(even)}
        oidx = {S: k for k, S in enumerate(odd)}
        phi = [[ring.zero()] * len(odd) for _ in even]
        psi = [[ring.zero()] * len(even) for _ in odd]
        for col, S in enumerate(odd):
            for tgt, p in total_diff(S).items():
                phi[eidx[tgt]][col] = phi[eidx[tgt]][col] + p
        for col, S in enumerate(even):
            for tgt, p in total_diff(S).items():
                psi[oidx[tgt]][col] = psi[oidx[tgt]][col] + p
        mf = MatrixFactorisation(
            ring,
            sigma,
            PolyMatrix(ring, phi, len(even), len(odd)),
            PolyMatrix(ring, psi, len(odd), len(even)),
        )
        weights = self._canonical_weights()
        if weights is not None:
            mf = mf.graded(*weights)
        self.mf = mf

    def _canonical_weights(self):
        w = self.sigma.homogeneous_weight()
        if w is None:
            return None
        fw = []
        for f in self.fs:
            hw = f.homogeneous_weight()
            if hw is None:
                return None
            fw.append(hw)
        for c, d in zip(self.sigma_coeffs, fw):
            if not c.is_zero() and c.homogeneous_weight() != w - d:
                return None
        half = Fraction(w, 2)

        def weight(subset):
            return sum(fw[i] for i in subset) - len(subset) * half

        return (
            tuple(weight(S) for S in self.even_basis),
            tuple(weight(S) for S in self.odd_basis),
        )


def stabilise(ring, ideal_gens, sigma, sigma_coeffs=None):
    """Build L^stab; the cofactors default to deterministic Groebner division."""
    if sigma_coeffs is None:
        sigma_coeffs = division_coefficients(sigma, list(ideal_gens))
    return Stabilisation(ring, list(ideal_gens), sigma, list(sigma_coeffs))


# -- Poly(r): normal-form Weyl words -----------------------------------------


@lru_cache(maxsize=None)
def _normalize_word(word):
    """Normal form of a theta/T word: {(S, U): integer coefficient}.

    word is a tuple of ('th', i) / ('T', i) letters; the normal form has
    ascending thetas then ascending Ts.
    """
    for pos in range(len(word) - 1):
        (k1, i1), (k2, i2) = word[pos], word[pos + 1]
        if k1 == k2:
            if i1 == i2:
                return {}
            if i1 > i2:
                swapped = word[:pos] + (word[pos + 1], word[pos]) + word[pos + 2 :]
                return {key: -c for key, c in _normalize_word(swapped).items()}
        elif k1 == "T" and k2 == "th":
            # T_i theta_j = delta_ij - theta_j T_i
            out = {}
            swapped = word[:pos] + (word[pos + 1], word[pos]) + word[pos + 2 :]
            for key, c in _normalize_word(swapped).items():
                out[key] = out.get(key, 0) - c
            if i1 == i2:
                dropped = word[:pos] + word[pos + 2 :]
                for key, c in _normalize_word(dropped).items():
                    out[key] = out.get(key, 0) + c
            return {key: c for key, c in out.items() if c}
    thetas = tuple(i for k, i in word if k == "th")
    ts = tuple(i for k, i in word if k == "T")
    return {(thetas, ts): 1}


class PolyRElement:
    """Element of Poly(r): {(S, U): Poly coefficient}."""

    __slots__ = ("algebra", "parts")

    def __init__(self, algebra, parts):
        self.algebra = algebra
        self.parts = {k: p for k, p in parts.items() if not p.is_zero()}

    def is_zero(self):
        return not self.parts

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.algebra.scalar(other)
        return (
            isinstance(other, PolyRElement)
            and self.algebra is other.algebra
            and self.parts == other.parts
        )

    def __add__(self, other):
        parts = dict(self.parts)
        for k, p in other.parts.items():
            q = parts.get(k)
            q = p if q is None else q + p
            if q.is_zero():
                parts.pop(k, None)
            else:
                parts[k] = q
        return PolyRElement(self.algebra, parts)

    def __neg__(self):
        return PolyRElement(self.algebra, {k: -p for k, p in self.parts.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, PolyRElement):
            return PolyRElement(
                self.algebra, {k: p * other for k, p in self.parts.items()}
            )
        return self.algebra.multiply(self, other)

    def __rmul__(self, other):
        return self.__mul__(other)

    def parity(self):
        ps = {(len(S) + len(U)) % 2 for (S, U) in self.parts}
        if len(ps) > 1:
            raise InputError("mixed parity element")
        return ps.pop() if ps else 0

    def __repr__(self):
        bits = []
        for (S, U) in sorted(self.parts):
            word = "".join([f"th{i}" for i in S] + [f"T{i}" for i in U]) or "1"
            bits.append(f"({format_poly(self.parts[(S, U)])})*{word}")
        return " + ".join(bits) or "0"


class PolyRAlgebra:
    """Poly(r) over a polynomial ring, with Weyl-relation normal form."""

    __slots__ = ("ring", "r")

    def __init__(self, ring, r):
        self.ring = ring
        self.r = r

    def zero(self):
        return PolyRElement(self, {})

    def scalar(self, value):
        return PolyRElement(self, {((), ()): self.ring.constant(value)})

    def element(self, parts):
        out = {}
        for (S, U), p in parts.items():
            if not isinstance(p, type(self.ring.zero())):
                p = self.ring.constant(p)
            out[(tuple(S), tuple(U))] = p
        return PolyRElement(self, out)

    def theta(self, i):
        return self.element({((i,), ()): 1})

    def t_op(self, i):
        return self.element({((), (i,)): 1})

    def basis_words(self):
        for S in _all_subsets(self.r):
            for U in _all_subsets(self.r):
                yield (S, U)

    def multiply(self, a, b):
        out = {}
        for (S1, U1), p in a.parts.items():
            for (S2, U2), q in b.parts.items():
                word = (
                    tuple(("th", i) for i in S1)
                    + tuple(("T", i) for i in U1)
                    + tuple(("th", i) for i in S2)
                    + tuple(("T", i) for i in U2)
                )
                coeff_poly = p * q
                for key, c in _normalize_word(word).items():
                    cur = out.get(key)
                    add = coeff_poly * c
                    cur = add if cur is None else cur + add
                    if cur.is_zero():
                        out.pop(key, None)
                    else:
                        out[key] = cur
        return PolyRElement(self, out)


@lru_cache(maxsize=None)
def _all_subsets(r):
    out = []
    for size in range(r + 1):
        out.extend(combinations(range(r), size))
    return tuple(out)


def poly_r_multiply(a, b):
    return a * b


# -- the endomorphism dg algebra ----------------------------------------------


class EndDGAlgebra:
    """(Poly(r), delta) with delta theta_i = f_i, delta T_i = sigma_i."""

    __slots__ = ("algebra", "fs", "sigma_coeffs")

    def __init__(self, fs, sigma_coeffs):
        if len(fs) != len(sigma_coeffs):
            raise InputError("need one cofactor per generator")
        ring = fs[0].ring
        self.algebra = PolyRAlgebra(ring, len(fs))
        self.fs = tuple(fs)
        self.sigma_coeffs = tuple(sigma_coeffs)

    @property
    def ring(self):
        return self.algebra.ring

    def delta_word(self, S, U):
        """delta(theta_S T_U) via the graded Leibniz rule."""
        alg = self.algebra
        acc = alg.zero()
        for j in range(len(S)):
            rest = S[:j] + S[j + 1 :]
            sign = -1 if j % 2 else 1
            acc = acc + alg.element({(rest, U): self.fs[S[j]] * sign})
        sgn_s = -1 if len(S) % 2 else 1
        for j in range(len(U)):
            rest = U[:j] + U[j + 1 :]
            sign = -1 if j % 2 else 1
            acc = acc + alg.element(
                {(S, rest): self.sigma_coeffs[U[j]] * (sign * sgn_s)}
            )
        return acc

    def delta(self, elt):
        acc = self.algebra.zero()
        for (S, U), p in elt.parts.items():
            acc = acc + p * self.delta_word(S, U)
        return acc

    def delta_squared_is_zero(self):
        """Exact check on every normal-form word (A-linearity covers the rest)."""
        for S, U in self.algebra.basis_words():
            if not self.delta(self.delta_word(S, U)).is_zero():
                return False
        return True


def end_dg_algebra(fs, sigma_coeffs):
    return EndDGAlgebra(list(fs), list(sigma_coeffs))


def end_dg_algebra_of(stab):
    return EndDGAlgebra(list(stab.fs), list(stab.sigma_coeffs))


class CohomologyTable:
    """Exact slice cohomology of an EndDGAlgebra.

    dims: (parity, weight) -> dimension; representatives: PolyRElements,
    chosen deterministically (the kernel basis vectors, in order, that are
    independent of the image and of the vectors chosen before them).
    """

    def __init__(self, end_dg, dims, reps, slices, shift, weights):
        self.end_dg = end_dg
        self.dims = dims
        self.representatives = reps
        self._slices = slices
        self.shift = shift
        self.weights = weights

    def dim(self, parity, weight):
        return self.dims.get((parity % 2, weight), 0)

    def cohomology_class(self, elt, weight):
        """Coefficients of a cocycle's class w.r.t. the representatives.

        Returns None when elt is not a cocycle in that slot; coboundaries
        yield the zero vector.
        """
        parity = elt.parity()
        if not self.end_dg.delta(elt).is_zero():
            return None
        key = (parity, weight)
        if key not in self._slices:
            return None
        basis, index, image = self._slices[key]
        field = self.end_dg.ring.field
        reps = self.representatives.get(key, [])
        cols = [_coefficients(r) for r in reps] + image
        entries = {
            (index[w], j): c for j, col in enumerate(cols) for w, c in col.items()
        }
        mat = ExactMatrix(len(basis), len(cols), entries, field)
        vec = [field.zero()] * len(basis)
        for w, c in _coefficients(elt).items():
            vec[index[w]] = c
        sol = mat.solve(vec)
        if sol is None:
            return None
        return sol[: len(reps)]


def _coefficients(elt):
    """A PolyRElement as {(e, S, U): coeff}."""
    return {
        (e, S, U): c
        for (S, U), p in elt.parts.items()
        for e, c in p.terms.items()
    }


def _word_delta(end_dg, word):
    """delta(x^e theta_S T_U) as {(e2, S2, U2): coeff}."""
    e, S, U = word
    mono = end_dg.ring.monomial(e)
    return {
        (e2, S2, U2): c
        for (S2, U2), p in end_dg.delta_word(S, U).parts.items()
        for e2, c in (mono * p).terms.items()
    }


def _slice_basis_words(end_dg, parity, weight, wth, wt):
    ring = end_dg.ring
    out = []
    for S in _all_subsets(end_dg.algebra.r):
        for U in _all_subsets(end_dg.algebra.r):
            if (len(S) + len(U)) % 2 != parity:
                continue
            rest = weight - sum(wth[i] for i in S) - sum(wt[i] for i in U)
            if rest < 0 or rest != int(rest):
                continue
            for e in ring.monomials_of_weight(int(rest)):
                out.append((e, S, U))
    return out


def end_cohomology(end_dg, weight_bound, theta_weights=None, t_weights=None):
    """Slice cohomology table of (Poly(r), delta).

    theta_weights / t_weights default to the weights of f_i / sigma_i
    (so delta preserves weight); passing explicit weights is allowed as
    long as delta is homogeneous of one uniform shift, e.g. all-zero
    weights grade by x-degree alone when the f_i share one degree.
    """
    ring = end_dg.ring
    field = ring.field
    r = end_dg.algebra.r
    fw = []
    for f in end_dg.fs:
        hw = f.homogeneous_weight()
        if hw is None:
            raise NotHomogeneous(f"{format_poly(f)} is not weight-homogeneous")
        fw.append(hw)
    cw = []
    for c in end_dg.sigma_coeffs:
        hw = c.homogeneous_weight() if not c.is_zero() else None
        cw.append(hw)
    wth = list(theta_weights) if theta_weights is not None else list(fw)
    wt = (
        list(t_weights)
        if t_weights is not None
        else [cw[i] if cw[i] is not None else 0 for i in range(r)]
    )
    shifts = {fw[i] - wth[i] for i in range(r)}
    shifts |= {cw[i] - wt[i] for i in range(r) if cw[i] is not None}
    if len(shifts) > 1:
        raise NotHomogeneous(f"delta shifts {sorted(shifts)} are not uniform")
    shift = shifts.pop() if shifts else 0

    bases = {}
    home = {}  # word -> the (parity, weight) slice it spans

    def basis_at(parity, weight):
        key = (parity % 2, weight)
        if key not in bases:
            words = _slice_basis_words(end_dg, key[0], weight, wth, wt)
            index = {wkey: k for k, wkey in enumerate(words)}
            bases[key] = (words, index)
            home.update(dict.fromkeys(words, key))
        return bases[key]

    columns = {}

    def delta(word):
        # a word is a cycle candidate in its slice and a boundary source
        # for the next one, so its column is computed once
        col = columns.get(word)
        if col is None:
            col = columns[word] = _word_delta(end_dg, word)
            parity, weight = home[word]
            _, tgt_index = basis_at(parity + 1, weight + shift)
            if any(t not in tgt_index for t in col):
                raise NotHomogeneous("delta image leaves the slice")
        return col

    dims = {}
    reps = {}
    slices = {}
    weight_list = []
    w = 0
    while w <= weight_bound:
        weight_list.append(w)
        w += 1
    for weight in weight_list:
        for parity in (0, 1):
            words, index = basis_at(parity, weight)
            if not words:
                continue
            prev_words, _ = basis_at(parity + 1, weight - shift)
            dim, chosen = cohomology_at(field, words, delta, prev_words)
            key = (parity, weight)
            slices[key] = (words, index, [delta(w) for w in prev_words])
            if dim:
                dims[key] = dim
                rep_elts = []
                for vec in chosen:
                    parts = {}
                    for (e, S, U), c in vec.items():
                        cur = parts.get((S, U), ring.zero())
                        parts[(S, U)] = cur + ring.monomial(e, c)
                    rep_elts.append(PolyRElement(end_dg.algebra, parts))
                reps[key] = rep_elts
    return CohomologyTable(end_dg, dims, reps, slices, shift, (wth, wt))


def end_cohomology_truncated(end_dg, order_bound):
    """Order-truncated cohomology dims for non-quasi-homogeneous data.

    Works in ring/m^{order_bound+1}: basis monomials of weighted degree
    <= order_bound, kernel vectors from degree <= order_bound - maxdeg,
    compared inside the full truncation.  Results carry the truncation
    label and may exhibit boundary artifacts near the bound; they are
    reported descriptively, not asserted exactly.
    """
    ring = end_dg.ring
    field = ring.field
    maxdeg = max(
        [f.total_weight() for f in end_dg.fs]
        + [c.total_weight() for c in end_dg.sigma_coeffs if not c.is_zero()]
        + [0]
    )
    big = order_bound + maxdeg
    bases = {}
    for parity in (0, 1):
        words = []
        for S in _all_subsets(end_dg.algebra.r):
            for U in _all_subsets(end_dg.algebra.r):
                if (len(S) + len(U)) % 2 != parity:
                    continue
                for e in ring.monomials_up_to_weight(big):
                    words.append((e, S, U))
        bases[parity] = (words, {w: k for k, w in enumerate(words)})

    deltas = {}

    def delta(word):
        # terms beyond the truncation drop out; a word of low enough degree
        # is both a cycle candidate and a boundary source, computed once
        col = deltas.get(word)
        if col is None:
            _, S, U = word
            _, tgt_index = bases[(len(S) + len(U) + 1) % 2]
            col = deltas[word] = {
                t: c for t, c in _word_delta(end_dg, word).items()
                if t in tgt_index
            }
        return col

    def upto(parity, cutoff):
        return [w for w in bases[parity][0] if ring.weighted_degree(w[0]) <= cutoff]

    dims = {}
    for parity in (0, 1):
        dims[parity], _ = cohomology_at(
            field,
            upto(parity, order_bound - maxdeg),
            delta,
            upto((parity + 1) % 2, order_bound),
        )
    return {"truncated_at": order_bound, "dims": dims}


# -- Clifford presentations ----------------------------------------------------


class CliffordPresentation:
    """Generators Gamma_i with Gamma_i Gamma_j + Gamma_j Gamma_i = c_ij."""

    __slots__ = ("variables", "constants")

    def __init__(self, variables, constants):
        self.variables = tuple(variables)
        self.constants = constants

    @property
    def dimension(self):
        return 2 ** len(self.variables)

    def anticommutator_constant(self, i, j):
        return self.constants[(min(i, j), max(i, j))]

    def to_json(self):
        return {
            "generators": [f"G_{v}" for v in self.variables],
            "relations": {
                f"G_{self.variables[i]}*G_{self.variables[j]}"
                f" + G_{self.variables[j]}*G_{self.variables[i]}": str(c)
                for (i, j), c in sorted(self.constants.items())
            },
            "dimension": self.dimension,
        }


def clifford_of_quadratic(sigma):
    """Clifford presentation of a quadratic form, normalised so that the
    cohomology generators square to minus the diagonal coefficients
    (sigma = x^2 gives Gamma^2 = -1)."""
    ring = sigma.ring
    ok = not sigma.is_zero() and all(
        sum(e) == 2 for e in sigma.terms
    )
    if not ok:
        raise NotQuadratic(format_poly(sigma))
    n = ring.nvars
    field = ring.field
    half = field.one() / field.from_int(2)
    constants = {}
    for i in range(n):
        for j in range(i, n):
            e = [0] * n
            e[i] += 1
            e[j] += 1
            coeff = sigma.terms.get(tuple(e), field.zero())
            b = coeff if i == j else coeff * half
            constants[(i, j)] = -2 * b
    return CliffordPresentation(ring.variables, constants)
