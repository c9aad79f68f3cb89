"""Bar and cobar constructions with degreewise-finite truncations, and the
Koszul dual algebra (dual of the bar construction).

Bar words live in the tensor coalgebra on the shifted augmentation ideal;
the differential combines the internal differential with the signed sum
of adjacent products.  Every sign follows the same shifted-Koszul scheme
as the Hochschild module: a letter of degree d contributes d-1 to sign
prefixes, and joining two letters costs (-1)^{deg of the left letter}.

Cobar words are bounded by total letter weight (for coalgebras built
from bar complexes a letter's weight is its bar word length), which keeps
the counit check Omega B A -> A finite.
"""

from __future__ import annotations

from itertools import product as iproduct

from .errors import (
    InputError,
    NotAugmented,
    NotConilpotent,
    WindowExceedsBound,
)
from .findim import FinDimAlgebra
from .linalg import matrix_from_columns


class AugmentedAlgebra:
    """Finite-dimensional graded algebra whose non-unit basis spans an
    ideal (the augmentation ideal), with an optional differential."""

    __slots__ = ("algebra", "degrees", "diff")

    def __init__(self, algebra, degrees, diff=None):
        self.algebra = algebra
        self.degrees = tuple(int(d) for d in degrees)
        if len(self.degrees) != algebra.dim:
            raise InputError("one degree per basis element")
        self.diff = {
            i: {k: v for k, v in val.items() if v}
            for i, val in (diff or {}).items()
            if val
        }
        self._validate()

    def _validate(self):
        alg = self.algebra
        if alg.unit_defect() is not None:
            raise NotAugmented("unit axioms fail")
        if alg.associativity_defect() is not None:
            raise NotAugmented("product is not associative")
        unit = alg.unit
        for (i, j), val in alg.mult.items():
            if i != unit and j != unit and val.get(unit):
                raise NotAugmented(
                    f"product {alg.basis[i]}*{alg.basis[j]} meets the unit"
                )
        for i, val in self.diff.items():
            if i == unit and val:
                raise NotAugmented("differential does not kill the unit")
            if val.get(unit):
                raise NotAugmented("differential leaves the augmentation ideal")

    @property
    def field(self):
        return self.algebra.field

    def abar(self):
        return [i for i in range(self.algebra.dim) if i != self.algebra.unit]

    def deg(self, i):
        return self.degrees[i]


# -- bar construction -----------------------------------------------------------


class BarPiece:
    """Word length n piece of the bar construction."""

    __slots__ = ("length", "basis", "degrees", "internal", "external")

    def __init__(self, length, basis, degrees, internal, external):
        self.length = length
        self.basis = basis
        self.degrees = degrees
        self.internal = internal  # {word: {word: coeff}} same length
        self.external = external  # {word: {word: coeff}} length - 1


class BarComplex:
    """Words of length <= L over the shifted augmentation ideal."""

    __slots__ = ("aug", "length_bound", "pieces")

    def __init__(self, aug, length_bound):
        if length_bound < 1:
            raise InputError("need length bound >= 1")
        self.aug = aug
        self.length_bound = length_bound
        letters = aug.abar()
        field = aug.field
        alg = aug.algebra
        self.pieces = {}
        for n in range(length_bound + 1):
            basis = list(iproduct(letters, repeat=n))
            degrees = [self.word_degree(w) for w in basis]
            internal = {}
            external = {}
            for w in basis:
                d_i = {}
                for j in range(n):
                    pre = -1 if self._prefix(w, j) % 2 else 1
                    for k, c in aug.diff.get(w[j], {}).items():
                        tw = w[:j] + (k,) + w[j + 1 :]
                        cur = d_i.get(tw, field.zero()) + pre * c
                        if cur:
                            d_i[tw] = cur
                        else:
                            d_i.pop(tw, None)
                if d_i:
                    internal[w] = d_i
                d_e = {}
                for j in range(n - 1):
                    pre = self._prefix(w, j)
                    sj = aug.deg(w[j])
                    sign = -1 if (pre + sj) % 2 else 1
                    for k, c in alg.product_basis(w[j], w[j + 1]).items():
                        tw = w[:j] + (k,) + w[j + 2 :]
                        cur = d_e.get(tw, field.zero()) + sign * c
                        if cur:
                            d_e[tw] = cur
                        else:
                            d_e.pop(tw, None)
                if d_e:
                    external[w] = d_e
            self.pieces[n] = BarPiece(n, basis, degrees, internal, external)

    def _prefix(self, word, upto):
        return sum(self.aug.deg(i) - 1 for i in word[:upto])

    def word_degree(self, word):
        return sum(self.aug.deg(i) - 1 for i in word)

    def delta(self, word):
        """Full differential of a basis word: {word: coeff}."""
        n = len(word)
        out = {}
        for src in (self.pieces[n].internal, self.pieces[n].external):
            for tw, c in src.get(word, {}).items():
                cur = out.get(tw, self.aug.field.zero()) + c
                if cur:
                    out[tw] = cur
                else:
                    out.pop(tw, None)
        return out

    def basis_by_degree(self):
        table = {}
        for n, piece in self.pieces.items():
            for w, d in zip(piece.basis, piece.degrees):
                table.setdefault(d, []).append(w)
        return table


def bar(aug, length_bound):
    return BarComplex(aug, length_bound)


# -- conilpotent coalgebras ------------------------------------------------------


class ConilpotentCoalgebra:
    """Graded coalgebra with coaugmentation, reduced comultiplication
    structure constants, an optional differential, and letter weights
    controlling cobar truncation."""

    __slots__ = ("field", "basis", "degrees", "coaug", "reduced_delta",
                 "diff", "weights")

    def __init__(self, field, basis, degrees, coaug, reduced_delta,
                 diff=None, weights=None):
        self.field = field
        self.basis = tuple(basis)
        self.degrees = tuple(int(d) for d in degrees)
        self.coaug = coaug
        self.reduced_delta = {
            i: {k: v for k, v in val.items() if v}
            for i, val in reduced_delta.items()
            if val
        }
        self.diff = {
            i: {k: v for k, v in val.items() if v}
            for i, val in (diff or {}).items()
            if val
        }
        self.weights = tuple(weights) if weights else (1,) * len(self.basis)

    @property
    def dim(self):
        return len(self.basis)

    def coideal(self):
        return [i for i in range(self.dim) if i != self.coaug]

    def check_coassociative(self):
        """(reduced Delta (x) 1) Delta = (1 (x) reduced Delta) Delta."""
        for i in self.coideal():
            lhs = {}
            rhs = {}
            for (j, k), c in self.reduced_delta.get(i, {}).items():
                for (a, b), c2 in self.reduced_delta.get(j, {}).items():
                    key = (a, b, k)
                    lhs[key] = lhs.get(key, self.field.zero()) + c * c2
                for (a, b), c2 in self.reduced_delta.get(k, {}).items():
                    key = (j, a, b)
                    rhs[key] = rhs.get(key, self.field.zero()) + c * c2
            lhs = {k: v for k, v in lhs.items() if v}
            rhs = {k: v for k, v in rhs.items() if v}
            if lhs != rhs:
                return False
        return True

    def check_conilpotent(self):
        """Iterated reduced Delta vanishes after at most dim steps."""
        frontier = {i: True for i in self.coideal()}
        for _ in range(self.dim + 1):
            new = {}
            for i in frontier:
                for (j, k) in self.reduced_delta.get(i, {}):
                    new[j] = True
                    new[k] = True
            if not new:
                return True
            frontier = new
        # weights must strictly decrease along Delta for conilpotency
        for i in self.coideal():
            for (j, k) in self.reduced_delta.get(i, {}):
                if self.weights[j] + self.weights[k] > self.weights[i]:
                    return False
        return True


def bar_coalgebra(bar_complex):
    """The truncated bar construction as a coalgebra under deconcatenation."""
    aug = bar_complex.aug
    field = aug.field
    words = []
    for n in range(bar_complex.length_bound + 1):
        words.extend(bar_complex.pieces[n].basis)
    index = {w: i for i, w in enumerate(words)}
    degrees = [bar_complex.word_degree(w) for w in words]
    reduced_delta = {}
    for w in words:
        if len(w) < 2:
            continue
        val = {}
        for cut in range(1, len(w)):
            val[(index[w[:cut]], index[w[cut:]])] = field.one()
        reduced_delta[index[w]] = val
    diff = {}
    for w in words:
        d = bar_complex.delta(w)
        if d:
            diff[index[w]] = {index[tw]: c for tw, c in d.items()}
    names = ["|".join(aug.algebra.basis[i] for i in w) or "1" for w in words]
    return ConilpotentCoalgebra(
        field,
        names,
        degrees,
        index[()],
        reduced_delta,
        diff,
        weights=[len(w) for w in words],
    )


def dual_coalgebra(aug, weights=None):
    """Linear dual of a finite-dimensional augmented algebra.

    The comultiplication is the transpose of the product; degrees are
    negated.  (Used with zero differential.)"""
    if aug.diff:
        raise InputError("dual_coalgebra implemented for zero differential")
    alg = aug.algebra
    field = aug.field
    unit = alg.unit
    reduced_delta = {}
    for (j, k), val in alg.mult.items():
        if j == unit or k == unit:
            continue
        for i, c in val.items():
            if i == unit or not c:
                continue
            reduced_delta.setdefault(i, {})
            cur = reduced_delta[i].get((j, k), field.zero()) + c
            if cur:
                reduced_delta[i][(j, k)] = cur
            else:
                reduced_delta[i].pop((j, k), None)
    c = ConilpotentCoalgebra(
        field,
        [f"{name}*" for name in alg.basis],
        [-d for d in aug.degrees],
        unit,
        reduced_delta,
        weights=weights,
    )
    if not c.check_conilpotent():
        raise NotConilpotent("augmentation ideal is not nilpotent")
    return c


def dual_algebra(coalg):
    """Linear dual of a coalgebra: product = transpose of the full Delta
    with the Koszul sign (f(x)g)(x(x)y) = (-1)^{|g||x|} f(x) g(y)."""
    field = coalg.field
    n = coalg.dim
    unit = coalg.coaug
    mult = {}

    def full_delta(i):
        out = dict(coalg.reduced_delta.get(i, {}))
        if i == unit:
            out[(unit, unit)] = field.one()
        else:
            out[(i, unit)] = out.get((i, unit), field.zero()) + field.one()
            out[(unit, i)] = out.get((unit, i), field.zero()) + field.one()
        return out

    for j in range(n):
        for k in range(n):
            val = {}
            for i in range(n):
                for (a, b), c in full_delta(i).items():
                    if a == j and b == k:
                        sign = (-coalg.degrees[k]) * (-coalg.degrees[a])
                        s = field.from_int(-1 if sign % 2 else 1)
                        val[i] = val.get(i, field.zero()) + s * c
            val = {i: v for i, v in val.items() if v}
            if val:
                mult[(j, k)] = val
    names = [name[:-1] if name.endswith("*") else f"{name}*" for name in coalg.basis]
    alg = FinDimAlgebra(field, names, mult, unit)
    return AugmentedAlgebra(alg, [-d for d in coalg.degrees])


# -- cobar construction ----------------------------------------------------------


class CobarComplex:
    """Tensor algebra words on the shifted coideal, truncated by total
    letter weight."""

    __slots__ = ("coalgebra", "weight_bound", "words", "index")

    def __init__(self, coalgebra, weight_bound):
        self.coalgebra = coalgebra
        self.weight_bound = weight_bound
        letters = coalgebra.coideal()
        words = [()]
        frontier = [((), 0)]
        while frontier:
            new = []
            for w, wt in frontier:
                for l in letters:
                    wt2 = wt + coalgebra.weights[l]
                    if wt2 <= weight_bound:
                        nw = w + (l,)
                        words.append(nw)
                        new.append((nw, wt2))
            frontier = new
        self.words = words
        self.index = {w: i for i, w in enumerate(words)}

    def letter_degree(self, l):
        return self.coalgebra.degrees[l] + 1

    def word_degree(self, w):
        return sum(self.letter_degree(l) for l in w)

    def word_weight(self, w):
        return sum(self.coalgebra.weights[l] for l in w)

    def _prefix(self, w, upto):
        return sum(self.letter_degree(l) for l in w[:upto])

    def delta(self, w):
        """Differential: internal on each letter, plus letter splitting."""
        c = self.coalgebra
        field = c.field
        out = {}

        def bump(tw, coeff):
            if not coeff:
                return
            if self.word_weight(tw) > self.weight_bound:
                return
            cur = out.get(tw, field.zero()) + coeff
            if cur:
                out[tw] = cur
            else:
                out.pop(tw, None)

        for j, l in enumerate(w):
            pre = -1 if self._prefix(w, j) % 2 else 1
            for k, coeff in c.diff.get(l, {}).items():
                bump(w[:j] + (k,) + w[j + 1 :], -pre * coeff)
            for (a, b), coeff in c.reduced_delta.get(l, {}).items():
                sign = -1 if (c.degrees[a] + 1) % 2 else 1
                bump(w[:j] + (a, b) + w[j + 1 :], pre * sign * coeff)
        return out

    def basis_by_degree(self):
        table = {}
        for w in self.words:
            table.setdefault(self.word_degree(w), []).append(w)
        return table


def cobar(coalgebra, weight_bound):
    if not coalgebra.check_conilpotent():
        raise NotConilpotent("cobar needs a conilpotent coalgebra")
    return CobarComplex(coalgebra, weight_bound)


# -- cohomology bookkeeping ------------------------------------------------------


def _complex_cohomology(field, basis_by_degree, delta_of, degree, shift=1):
    """dim ker / im at one degree of a {degree: basis} complex."""
    space = basis_by_degree.get(degree, [])
    if not space:
        return 0, []
    index = {w: i for i, w in enumerate(space)}
    tgt = basis_by_degree.get(degree + shift, [])
    tgt_index = {w: i for i, w in enumerate(tgt)}
    cols = []
    for w in space:
        vec = [field.zero()] * len(tgt)
        for tw, c in delta_of(w).items():
            pos = tgt_index.get(tw)
            if pos is not None:
                vec[pos] = vec[pos] + c
        cols.append(vec)
    mat = matrix_from_columns(field, cols, rows=len(tgt))
    kernel = mat.kernel_basis()
    prev = basis_by_degree.get(degree - shift, [])
    ivecs = []
    for w in prev:
        vec = [field.zero()] * len(space)
        hit = False
        for tw, c in delta_of(w).items():
            pos = index.get(tw)
            if pos is not None and c:
                vec[pos] = vec[pos] + c
                hit = True
        if hit:
            ivecs.append(vec)
    rank_i = matrix_from_columns(field, ivecs, rows=len(space)).rank() if ivecs else 0
    both = matrix_from_columns(field, ivecs + list(kernel), rows=len(space)).rank()
    return both - rank_i, (space, index, kernel, ivecs)


class KoszulDual:
    """Cohomology of (BA)^* in a window, with the convolution product."""

    def __init__(self, aug, bar_complex, dims, reps, cycle_data):
        self.augmented = aug
        self.bar_complex = bar_complex
        self.dims = dims
        self._reps = reps  # degree -> list of functionals {word: scalar}
        self._cycles = cycle_data  # degree -> (space, index, cycle vectors)

    def functional(self, degree, k):
        return self._reps[degree][k]

    def convolve(self, f, g, g_degree=0):
        """Convolution product through deconcatenation with Koszul signs."""
        field = self.augmented.field
        bc = self.bar_complex
        out = {}
        fkeys = list(f.items())
        gkeys = dict(g.items())
        for n in range(bc.length_bound + 1):
            for w in bc.pieces[n].basis:
                acc = field.zero()
                for cut in range(n + 1):
                    left, right = w[:cut], w[cut:]
                    fv = dict(fkeys).get(left)
                    if not fv:
                        continue
                    gv = gkeys.get(right)
                    if not gv:
                        continue
                    sign = (g_degree % 2) * (bc.word_degree(left) % 2)
                    s = field.from_int(-1 if sign else 1)
                    acc = acc + s * fv * gv
                if acc:
                    out[w] = acc
        return out

    def class_of(self, functional, degree):
        """Coefficients of a dual-cocycle's class against the reps."""
        data = self._cycles.get(degree)
        if data is None:
            return None
        space, index, _, _, chosen = data
        field = self.augmented.field
        # evaluate on the chosen homology class representatives
        values = []
        for z in chosen:
            acc = field.zero()
            for w, c in functional.items():
                pos = index.get(w)
                if pos is not None:
                    acc = acc + c * z[pos]
            values.append(acc)
        return values


def koszul_dual_cohomology(aug, length_bound, window):
    """dims of H^n((BA)^*) for n in the window, with dual representatives.

    H^n of the dual equals the dual of H^{-n}(BA); representatives are
    functionals supported on chosen homology classes and vanishing on
    boundaries and a fixed complement.
    """
    if max(window) >= length_bound - 1:
        raise WindowExceedsBound(
            f"window max {max(window)} needs length bound > {max(window) + 1}"
        )
    bc = bar(aug, length_bound)
    field = aug.field
    table = bc.basis_by_degree()
    dims = {}
    reps = {}
    cycles = {}
    for n in window:
        dim, data = _complex_cohomology(field, table, bc.delta, -n)
        dims[n] = dim
        if data is None or dim == 0:
            reps[n] = []
            continue
        space, index, kernel, ivecs = data
        mat = matrix_from_columns(field, ivecs + list(kernel), rows=len(space))
        _, pivots = mat.rref()
        chosen = [
            kernel[p - len(ivecs)] for p in pivots if p >= len(ivecs)
        ]
        # dual functionals: 1 on one chosen class, 0 on the others,
        # 0 on boundaries and on a completing complement
        others = ivecs
        span = matrix_from_columns(field, chosen + others, rows=len(space))
        _, span_piv = span.rref()
        complement = []
        for j in range(len(space)):
            unit_vec = [field.zero()] * len(space)
            unit_vec[j] = field.one()
            test = matrix_from_columns(
                field, chosen + others + complement + [unit_vec],
                rows=len(space),
            )
            if test.rank() > span.rank() + len(complement):
                complement.append(unit_vec)
        full = matrix_from_columns(
            field, chosen + others + complement, rows=len(space)
        )
        funcs = []
        for k in range(dim):
            rhs = [field.zero()] * (len(chosen) + len(others) + len(complement))
            rhs[k] = field.one()
            sol = full.transpose().solve(rhs)
            funcs.append(
                {space[i]: sol[i] for i in range(len(space)) if sol[i]}
            )
        reps[n] = funcs
        cycles[n] = (space, index, kernel, ivecs, chosen)
    return KoszulDual(aug, bc, dims, reps, cycles)


def counit_h0_check(aug, length_bound):
    """H^0 of the truncated cobar-of-bar has dim A, the counit matrix is
    surjective, and its kernel equals the image of the differential.

    The kernel condition is verified through ranks: the counit kills the
    image of d, is surjective, and codim(im d) = dim A, which together
    force ker(counit) = im(d)."""
    if any(d != 0 for d in aug.degrees):
        raise InputError("counit check implemented for degree-0 algebras")
    from .linalg import SpanBuilder

    bc = bar(aug, length_bound)
    c = bar_coalgebra(bc)
    om = cobar(c, length_bound)
    field = aug.field
    alg = aug.algebra
    table = om.basis_by_degree()
    deg0 = table.get(0, [])
    degm1 = table.get(-1, [])
    index0 = {w: i for i, w in enumerate(deg0)}

    # counit: a cobar word of bar letters multiplies the letter contents;
    # any letter of bar length != 1 kills the word.
    letter_words = {}
    for i in c.coideal():
        name = c.basis[i]
        if c.weights[i] == 1:
            letter_words[i] = alg.basis.index(name)
    counit_cols = []
    for w in deg0:
        vec = alg.unit_vector()
        dead = False
        for l in w:
            target = letter_words.get(l)
            if target is None:
                dead = True
                break
            vec = alg.multiply(vec, alg.basis_vector(target))
        counit_cols.append(alg.zero_vector() if dead else vec)
    surj = SpanBuilder(field, alg.dim)
    for col in counit_cols:
        surj.add(col)
    if surj.rank != alg.dim:
        return False

    # image of d : degree -1 -> degree 0, streamed; also check the counit
    # kills every image vector
    span = SpanBuilder(field, len(deg0))
    for w in degm1:
        vec = [field.zero()] * len(deg0)
        hit = False
        for tw, coeff in om.delta(w).items():
            pos = index0.get(tw)
            if pos is not None and coeff:
                vec[pos] = vec[pos] + coeff
                hit = True
        if not hit:
            continue
        applied = alg.zero_vector()
        for pos, coeff in enumerate(vec):
            if coeff:
                applied = [
                    a + coeff * b for a, b in zip(applied, counit_cols[pos])
                ]
        if any(applied):
            return False  # im(d) not inside ker(counit)
        span.add(vec)
    return len(deg0) - span.rank == alg.dim
