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

The bar complex lists its words and their degrees up front but computes
the differential of a word only when asked, so a Koszul dual window reads
only the degrees it needs; its cohomology goes through
`linalg.cohomology_at`.
"""

from __future__ import annotations

from .errors import (
    InputError,
    NotAugmented,
    NotConilpotent,
    WindowExceedsBound,
)
from .findim import FinDimAlgebra
from .linalg import ExactMatrix, SpanBuilder, cohomology_at


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

    __slots__ = ("length", "basis", "degrees")

    def __init__(self, length, basis, degrees):
        self.length = length
        self.basis = basis
        self.degrees = degrees


class BarComplex:
    """Words of length <= L over the shifted augmentation ideal.

    Only the words and their degrees are stored; `delta` computes the
    differential of one word when asked."""

    __slots__ = ("aug", "length_bound", "pieces")

    def __init__(self, aug, length_bound):
        if length_bound < 1:
            raise InputError("need length bound >= 1")
        self.aug = aug
        self.length_bound = length_bound
        letters = aug.abar()
        shifted = [aug.deg(i) - 1 for i in letters]
        basis, degrees = [()], [0]
        self.pieces = {0: BarPiece(0, basis, degrees)}
        for n in range(1, length_bound + 1):
            # each shorter word followed by each letter: lexicographic order
            basis = [w + (i,) for w in basis for i in letters]
            degrees = [d + s for d in degrees for s in shifted]
            self.pieces[n] = BarPiece(n, basis, degrees)

    def word_degree(self, word):
        return sum(self.aug.deg(i) - 1 for i in word)

    def delta(self, word):
        """Full differential of a basis word: {word: coeff}.

        The internal part (same length) comes before the external part
        (adjacent products, one letter shorter)."""
        aug = self.aug
        field = aug.field
        alg = aug.algebra
        out = {}

        def bump(tw, coeff):
            cur = out.get(tw, field.zero()) + coeff
            if cur:
                out[tw] = cur
            else:
                out.pop(tw, None)

        prefix = [0]
        for i in word:
            prefix.append(prefix[-1] + aug.deg(i) - 1)
        for j, letter in enumerate(word):
            pre = -1 if prefix[j] % 2 else 1
            for k, c in aug.diff.get(letter, {}).items():
                bump(word[:j] + (k,) + word[j + 1 :], pre * c)
        for j in range(len(word) - 1):
            sign = -1 if (prefix[j] + aug.deg(word[j])) % 2 else 1
            for k, c in alg.product_basis(word[j], word[j + 1]).items():
                bump(word[:j] + (k,) + word[j + 2 :], sign * c)
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


# -- the Koszul dual ------------------------------------------------------------


class KoszulDual:
    """Cohomology of (BA)^* in a window, with the convolution product."""

    def __init__(self, aug, bar_complex, dims, reps, cycle_data):
        self.augmented = aug
        self.bar_complex = bar_complex
        self.dims = dims
        self._reps = reps  # degree -> list of functionals {word: scalar}
        self._cycles = cycle_data  # degree -> chosen cycles {word: scalar}

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
        chosen = self._cycles.get(degree)
        if chosen is None:
            return None
        field = self.augmented.field
        # evaluate on the chosen homology class representatives
        values = []
        for z in chosen:
            acc = field.zero()
            for w, c in functional.items():
                if w in z:
                    acc = acc + c * z[w]
            values.append(acc)
        return values


def _dual_functionals(field, space, chosen, images):
    """Functionals on `space` that are 1 on one chosen cycle and 0 on the
    others, on the boundaries `images`, and on the unit vectors that
    complete them to a basis (each unit vector outside the span so far)."""
    pos = {w: i for i, w in enumerate(space)}
    one = field.one()
    rows = [{pos[w]: c for w, c in vec.items()} for vec in chosen + images]
    span = SpanBuilder(field)
    for row in rows:
        span.add(row)
    rows += [{j: one} for j in range(len(space)) if span.add({j: one})]
    # The rows span the space, so rref([rows | first len(chosen) unit
    # columns]) is [I | F] on top, and column k of F is functional k.
    size = len(space)
    entries = {(r, j): v for r, row in enumerate(rows) for j, v in row.items()}
    for k in range(len(chosen)):
        entries[(k, size + k)] = one
    red, _ = ExactMatrix(len(rows), size + len(chosen), entries, field).rref()
    funcs = [{} for _ in chosen]
    for (i, j), v in sorted(red.entries.items()):
        if j >= size:
            funcs[j - size][space[i]] = v
    return funcs


def koszul_dual_cohomology(aug, length_bound, window):
    """dims of H^n((BA)^*) for n in the window, with dual representatives.

    H^n of the dual equals the dual of H^{-n}(BA); representatives are
    functionals supported on chosen homology classes and vanishing on
    boundaries and a fixed complement.  Only the words of the degrees the
    window reads have their differential computed.
    """
    if max(window) >= length_bound - 1:
        raise WindowExceedsBound(
            f"window max {max(window)} needs length bound > {max(window) + 1}"
        )
    bc = bar(aug, length_bound)
    field = aug.field
    table = bc.basis_by_degree()
    deltas = {}

    def delta(word):
        # the part of d(word) one degree up (all of it for a graded
        # algebra); a word is a cycle candidate in its degree and a
        # boundary source for the next one, so it is computed once
        d = deltas.get(word)
        if d is None:
            up = bc.word_degree(word) + 1
            d = deltas[word] = {
                tw: c for tw, c in bc.delta(word).items()
                if bc.word_degree(tw) == up
            }
        return d

    dims = {}
    reps = {}
    cycles = {}
    for n in window:
        space = table.get(-n, [])
        prev = table.get(-n - 1, [])
        dims[n], chosen = cohomology_at(field, space, delta, prev)
        if not chosen:
            reps[n] = []
            continue
        images = [delta(w) for w in prev]
        reps[n] = _dual_functionals(field, space, chosen, images)
        cycles[n] = chosen
    return KoszulDual(aug, bc, dims, reps, cycles)


def counit_h0_check(aug, length_bound):
    """H^0 of the truncated cobar-of-bar has dim A, the counit matrix is
    surjective, and its kernel equals the image of the differential.

    The kernel condition is verified through ranks: the counit kills the
    image of d, is surjective, and codim(im d) = dim A, which together
    force ker(counit) = im(d)."""
    if any(d != 0 for d in aug.degrees):
        raise InputError("counit check implemented for degree-0 algebras")
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
    surj = SpanBuilder(field)
    for col in counit_cols:
        surj.add(dict(enumerate(col)))
    if surj.rank != alg.dim:
        return False

    # image of d : degree -1 -> degree 0, streamed; also check the counit
    # kills every image vector
    span = SpanBuilder(field)
    for w in degm1:
        vec = {
            index0[tw]: coeff
            for tw, coeff in om.delta(w).items()
            if tw in index0 and coeff
        }
        if not vec:
            continue
        applied = alg.zero_vector()
        for pos, coeff in vec.items():
            applied = [
                a + coeff * b for a, b in zip(applied, counit_cols[pos])
            ]
        if any(applied):
            return False  # im(d) not inside ker(counit)
        span.add(vec)
    return len(deg0) - span.rank == alg.dim
