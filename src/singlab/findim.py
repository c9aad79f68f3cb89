"""Finite-dimensional algebras by structure constants, plus stock examples.

Elements are coordinate vectors over the basis; multiplication tables are
sparse dicts (i, j) -> {k: scalar}.  This is the shared substrate for
Hochschild complexes, bar/cobar constructions, and Drinfeld quotients.
"""

from __future__ import annotations

from .errors import InputError, NotIdempotent
from .linalg import ExactMatrix, matrix_from_columns


class FinDimAlgebra:
    """Associative unital algebra on a finite basis."""

    __slots__ = ("field", "basis", "mult", "unit")

    def __init__(self, field, basis, mult, unit):
        self.field = field
        self.basis = tuple(basis)
        self.mult = {
            key: {k: v for k, v in val.items() if v}
            for key, val in mult.items()
        }
        self.unit = unit

    @property
    def dim(self):
        return len(self.basis)

    def zero_vector(self):
        return [self.field.zero()] * self.dim

    def unit_vector(self):
        v = self.zero_vector()
        v[self.unit] = self.field.one()
        return v

    def basis_vector(self, i):
        v = self.zero_vector()
        v[i] = self.field.one()
        return v

    def element(self, coeffs):
        """Vector from {basis name or index: scalar, int, or text}."""
        v = self.zero_vector()
        for key, c in coeffs.items():
            i = key if isinstance(key, int) else basis_index(self.basis, key)
            if isinstance(c, (int, str)):
                c = scalar_reader(self.field)(c)
            v[i] = v[i] + c
        return v

    def product_basis(self, i, j):
        return self.mult.get((i, j), {})

    def multiply(self, u, v):
        out = self.zero_vector()
        for i, a in enumerate(u):
            if not a:
                continue
            for j, b in enumerate(v):
                if not b:
                    continue
                for k, c in self.product_basis(i, j).items():
                    out[k] = out[k] + a * b * c
        return out

    # -- validation -----------------------------------------------------

    def unit_defect(self):
        for i in range(self.dim):
            e = self.basis_vector(i)
            if self.multiply(self.unit_vector(), e) != e:
                return ("left-unit", self.basis[i])
            if self.multiply(e, self.unit_vector()) != e:
                return ("right-unit", self.basis[i])
        return None

    def associativity_defect(self):
        for i in range(self.dim):
            u = self.basis_vector(i)
            for j in range(self.dim):
                v = self.basis_vector(j)
                uv = self.multiply(u, v)
                for k in range(self.dim):
                    w = self.basis_vector(k)
                    if self.multiply(uv, w) != self.multiply(
                        u, self.multiply(v, w)
                    ):
                        return (self.basis[i], self.basis[j], self.basis[k])
        return None

    # -- linear algebra over the algebra ---------------------------------

    def center_basis(self):
        """Basis of the centre: solve [x, e_i] = 0 for all i."""
        rows = []
        for i in range(self.dim):
            e = self.basis_vector(i)
            for r in range(self.dim):
                row = {}
                for j in range(self.dim):
                    c = self.product_basis(j, i).get(r, self.field.zero())
                    c = c - self.product_basis(i, j).get(r, self.field.zero())
                    if c:
                        row[j] = c
                rows.append(row)
        entries = {}
        for rr, row in enumerate(rows):
            for j, c in row.items():
                entries[(rr, j)] = c
        mat = ExactMatrix(len(rows), self.dim, entries, self.field)
        return mat.kernel_basis()

    def is_idempotent(self, e):
        return self.multiply(e, e) == e

    def subspace_basis(self, vectors):
        """Deterministic echelonised basis of a span."""
        if not vectors:
            return []
        mat = matrix_from_columns(self.field, vectors, rows=self.dim)
        red, pivots = mat.transpose().rref()
        return [
            [red.entry(r, c) for c in range(self.dim)]
            for r in range(len(pivots))
        ]

    def left_ideal_times(self, vectors_a, vectors_b):
        prods = [
            self.multiply(a, b) for a in vectors_a for b in vectors_b
        ]
        return self.subspace_basis([p for p in prods if any(p)])

    def to_json(self):
        from .fields import field_name, format_scalar

        return {
            "field": field_name(self.field),
            "basis": list(self.basis),
            "unit": self.basis[self.unit],
            "products": {
                f"{self.basis[i]},{self.basis[j]}": {
                    self.basis[k]: format_scalar(v) for k, v in val.items()
                }
                for (i, j), val in sorted(self.mult.items())
                if val
            },
        }


def basis_index(basis, name):
    """Position of the basis element `name` of an input document."""
    if name not in basis:
        raise InputError(f"unknown basis element {name!r}")
    return basis.index(name)


def pair_indices(basis, key):
    """(i, j) of an "a,b" key naming two basis elements."""
    names = key.split(",")
    if len(names) != 2:
        raise InputError(f"key {key!r} must name two basis elements as 'a,b'")
    return tuple(basis_index(basis, name.strip()) for name in names)


def scalar_reader(field):
    """Text such as "1/2" or 3 to a scalar of `field`."""
    from .polyring import Ring, parse_poly

    scalar_ring = Ring((), field=field)
    return lambda text: parse_poly(scalar_ring, str(text)).constant_term()


def algebra_from_json(doc, field=None):
    from .fields import field_by_name

    if field is None:
        field = field_by_name(doc.get("field", "rat"))
    basis = list(doc["basis"])
    unit = basis_index(basis, doc["unit"])
    scalar_of = scalar_reader(field)
    mult = {}
    for key, val in doc.get("products", {}).items():
        mult[pair_indices(basis, key)] = {
            basis_index(basis, k): scalar_of(v) for k, v in val.items()
        }
    return FinDimAlgebra(field, basis, mult, unit)


# -- stock examples ------------------------------------------------------------


def truncated_polynomial_algebra(field, n):
    """k[x]/x^n with basis 1, x, ..., x^{n-1}."""
    basis = ["1"] + [f"x^{k}" if k > 1 else "x" for k in range(1, n)]
    mult = {}
    for i in range(n):
        for j in range(n):
            if i + j < n:
                mult[(i, j)] = {i + j: field.one()}
    return FinDimAlgebra(field, basis, mult, 0)


def matrix_algebra(field, n):
    """M_n(k) with basis E_{ij} row-major."""
    basis = [f"E{i}{j}" for i in range(n) for j in range(n)]
    mult = {}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    if j == k:
                        mult[(i * n + j, k * n + l)] = {
                            i * n + l: field.one()
                        }
    unit = None
    # unit = sum of E_ii is not a basis element; extend by a change of basis
    # instead we keep E_ij basis and mark the unit via a separate wrapper
    return _with_unit_element(
        FinDimAlgebra(field, basis, mult, 0),
        [field.one() if i % (n + 1) == 0 else field.zero() for i in range(n * n)],
    )


def _with_unit_element(alg, unit_vector):
    """Change basis so the unit becomes basis element 0."""
    field = alg.field
    n = alg.dim
    pivot = next(i for i, v in enumerate(unit_vector) if v)
    cols = [unit_vector] + [
        alg.basis_vector(i) for i in range(n) if i != pivot
    ]
    to_old = matrix_from_columns(field, cols, rows=n)
    names = ["1"] + [alg.basis[i] for i in range(n) if i != pivot]
    mult = {}
    for i in range(n):
        for j in range(n):
            prod_old = alg.multiply(
                [to_old.entry(r, i) for r in range(n)],
                [to_old.entry(r, j) for r in range(n)],
            )
            coords = to_old.solve(prod_old)
            mult[(i, j)] = {
                k: coords[k] for k in range(n) if coords[k]
            }
    return FinDimAlgebra(field, names, mult, 0)


def upper_triangular_algebra(field, n):
    """Upper-triangular n x n matrices."""
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    index = {p: k for k, p in enumerate(pairs)}
    basis = [f"E{i}{j}" for (i, j) in pairs]
    mult = {}
    for a, (i, j) in enumerate(pairs):
        for b, (k, l) in enumerate(pairs):
            if j == k:
                mult[(a, b)] = {index[(i, l)]: field.one()}
    alg = FinDimAlgebra(field, basis, mult, 0)
    unit = alg.zero_vector()
    for i in range(n):
        unit[index[(i, i)]] = field.one()
    return _with_unit_element(alg, unit)


def endomorphism_algebra(field, action_matrices, module_dim):
    """End_R(M) for M given by commuting generator actions on k^module_dim.

    Returns (algebra, basis_matrices): the commutant of the actions, with
    matrix multiplication as the product.
    """
    rows = []
    for act in action_matrices:
        for r in range(module_dim):
            for c in range(module_dim):
                row = {}
                for a in range(module_dim):
                    for b in range(module_dim):
                        coeff = field.zero()
                        if b == c:
                            coeff = coeff + act.entry(r, a)
                        if a == r:
                            coeff = coeff - act.entry(b, c)
                        if coeff:
                            row[a * module_dim + b] = (
                                row.get(a * module_dim + b, field.zero())
                                + coeff
                            )
                rows.append(row)
    entries = {}
    for rr, row in enumerate(rows):
        for j, c in row.items():
            entries[(rr, j)] = c
    mat = ExactMatrix(len(rows), module_dim * module_dim, entries, field)
    kernel = mat.kernel_basis()
    mats = []
    for vec in kernel:
        m = ExactMatrix(
            module_dim,
            module_dim,
            {
                (a, b): vec[a * module_dim + b]
                for a in range(module_dim)
                for b in range(module_dim)
                if vec[a * module_dim + b]
            },
            field,
        )
        mats.append(m)
    flat = matrix_from_columns(
        field,
        [[m.entry(a, b) for a in range(module_dim) for b in range(module_dim)]
         for m in mats],
        rows=module_dim * module_dim,
    )
    mult = {}
    n = len(mats)
    for i in range(n):
        for j in range(n):
            prod = mats[i] @ mats[j]
            coords = flat.solve(
                [prod.entry(a, b) for a in range(module_dim)
                 for b in range(module_dim)]
            )
            if coords is None:
                raise InputError("commutant not closed under product")
            mult[(i, j)] = {k: coords[k] for k in range(n) if coords[k]}
    alg = FinDimAlgebra(field, [f"T{k}" for k in range(n)], mult, 0)
    ident = [
        field.one() if a == b else field.zero()
        for a in range(module_dim)
        for b in range(module_dim)
    ]
    unit_coords = flat.solve(ident)
    if unit_coords is None:
        raise InputError("identity not in the commutant")
    alg = _with_unit_element(alg, unit_coords)
    # re-derive basis matrices in the new ordering: unit first
    pivot = next(i for i, v in enumerate(unit_coords) if v)
    new_mats = [_combine(mats, unit_coords, field)]
    new_mats += [m for k, m in enumerate(mats) if k != pivot]
    return alg, new_mats


def _combine(mats, coords, field):
    out = ExactMatrix.zero(field, mats[0].rows, mats[0].cols)
    for m, c in zip(mats, coords):
        if c:
            out = out + m.scale(c)
    return out


def idempotent_from_projection(alg, mats, module_dim, keep_coords):
    """Coordinates in alg of the projection onto given module coordinates."""
    field = alg.field
    proj = ExactMatrix(
        module_dim,
        module_dim,
        {(i, i): field.one() for i in keep_coords},
        field,
    )
    flat = matrix_from_columns(
        field,
        [[m.entry(a, b) for a in range(module_dim) for b in range(module_dim)]
         for m in mats],
        rows=module_dim * module_dim,
    )
    coords = flat.solve(
        [proj.entry(a, b) for a in range(module_dim) for b in range(module_dim)]
    )
    if coords is None:
        raise NotIdempotent("projection is not in the endomorphism algebra")
    return coords
