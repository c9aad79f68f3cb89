"""Sparse exact matrices over QQ, QQ(i), or GF(p), with rref, kernels and
the cohomology of a finite complex.

Elimination is sparse Gauss-Jordan on rows stored as ``{col: value}``
dicts, using only the field's own ``+ - * /``.  One routine, `_reduce`,
reduces a row against normalised pivot rows in increasing column order;
`ExactMatrix.rref` and `SpanBuilder` both use it.  `cohomology_at` is the
one "cycles modulo boundaries" routine of the algebra modules: it takes
basis keys and a ``delta(key) -> {key: coeff}`` callback, never dense
vectors.  All matrices are immutable after construction; every operation
returns a fresh matrix.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

from .errors import FieldMismatch, InputError
from .fields import check_same_field


def _reduce(work, tails):
    """Reduce the sparse row `work` in place against the pivot rows `tails`.

    `tails` maps a pivot column c to its normalised pivot row without the
    leading 1 at c; every entry of that row lies right of c.  A heap yields
    the row's pivot columns in increasing order, so each elimination only
    fills columns further right and a cleared column never comes back."""
    heap = [c for c in work if c in tails]
    heapify(heap)
    while heap:
        c = heappop(heap)
        x = work.pop(c, None)
        if x is None:
            continue
        for j, v in tails[c].items():
            if j in work:
                s = work[j] - x * v
                if s:
                    work[j] = s
                else:
                    del work[j]
            else:
                work[j] = -(x * v)
                if j in tails:
                    heappush(heap, j)
    return work


def _new_pivot(work, field):
    """Split a reduced nonzero row into its pivot column and normalised tail."""
    c = min(work)
    inv = field.one() / work.pop(c)
    return c, {j: v * inv for j, v in work.items()}


class ExactMatrix:
    """Sparse matrix with entries in a single exact field."""

    __slots__ = ("rows", "cols", "entries", "field", "_rref")

    def __init__(self, rows, cols, entries, field):
        if rows < 0 or cols < 0:
            raise InputError("negative matrix dimensions")
        self.rows = rows
        self.cols = cols
        clean = {}
        for (r, c), v in entries.items():
            if not (0 <= r < rows and 0 <= c < cols):
                raise InputError(f"entry ({r},{c}) outside {rows}x{cols}")
            if not field.contains(v):
                raise FieldMismatch(f"entry ({r},{c}) not in {field}")
            if type(v) is int:
                v = field.from_int(v)
            if v:
                clean[(r, c)] = v
        self.entries = clean
        self.field = field
        self._rref = None

    @classmethod
    def from_rows(cls, field, data):
        rows = len(data)
        cols = len(data[0]) if data else 0
        entries = {}
        for r, row in enumerate(data):
            if len(row) != cols:
                raise InputError("ragged rows")
            for c, v in enumerate(row):
                if isinstance(v, int):
                    v = field.from_int(v)
                if v:
                    entries[(r, c)] = v
        return cls(rows, cols, entries, field)

    @classmethod
    def identity(cls, field, n):
        return cls(n, n, {(i, i): field.one() for i in range(n)}, field)

    @classmethod
    def zero(cls, field, rows, cols):
        return cls(rows, cols, {}, field)

    def entry(self, r, c):
        return self.entries.get((r, c), self.field.zero())

    def items(self):
        """Deterministic (row, col) -> value iteration."""
        for key in sorted(self.entries):
            yield key, self.entries[key]

    def transpose(self):
        return ExactMatrix(
            self.cols,
            self.rows,
            {(c, r): v for (r, c), v in self.entries.items()},
            self.field,
        )

    def __eq__(self, other):
        return (
            isinstance(other, ExactMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.field == other.field
            and self.entries == other.entries
        )

    def __add__(self, other):
        self._check_shapes(other, same=True)
        entries = dict(self.entries)
        for key, v in other.entries.items():
            s = entries.get(key, self.field.zero()) + v
            if s:
                entries[key] = s
            else:
                entries.pop(key, None)
        return ExactMatrix(self.rows, self.cols, entries, self.field)

    def __neg__(self):
        return ExactMatrix(
            self.rows, self.cols, {k: -v for k, v in self.entries.items()}, self.field
        )

    def __sub__(self, other):
        return self + (-other)

    def scale(self, scalar):
        if not scalar:
            return ExactMatrix.zero(self.field, self.rows, self.cols)
        return ExactMatrix(
            self.rows,
            self.cols,
            {k: scalar * v for k, v in self.entries.items()},
            self.field,
        )

    def _check_shapes(self, other, same=False):
        check_same_field(self.field, other.field)
        if same and (self.rows, self.cols) != (other.rows, other.cols):
            raise InputError("shape mismatch")

    def __matmul__(self, other):
        self._check_shapes(other)
        if self.cols != other.rows:
            raise InputError("inner dimension mismatch")
        by_row = {}
        for (r, k), v in self.entries.items():
            by_row.setdefault(r, []).append((k, v))
        by_col = {}
        for (k, c), v in other.entries.items():
            by_col.setdefault(k, []).append((c, v))
        entries = {}
        for r, terms in by_row.items():
            acc = {}
            for k, v in terms:
                for c, w in by_col.get(k, ()):
                    key = c
                    s = acc.get(key, self.field.zero()) + v * w
                    acc[key] = s
            for c, s in acc.items():
                if s:
                    entries[(r, c)] = s
        return ExactMatrix(self.rows, other.cols, entries, self.field)

    def apply(self, vector):
        """Matrix times a column vector (list of scalars)."""
        if len(vector) != self.cols:
            raise InputError("vector length mismatch")
        out = [self.field.zero()] * self.rows
        for (r, c), v in self.entries.items():
            out[r] = out[r] + v * vector[c]
        return out

    def is_zero(self):
        return not self.entries

    # -- elimination ----------------------------------------------------

    def rref(self):
        """Reduced row echelon form and the tuple of pivot columns."""
        if self._rref is not None:
            return self._rref
        rows = [{} for _ in range(self.rows)]
        for (r, c), v in self.entries.items():
            rows[r][c] = v
        tails = {}
        for work in rows:
            if _reduce(work, tails):
                c, tail = _new_pivot(work, self.field)
                tails[c] = tail
        # A tail is already free of the pivots found before it; clearing the
        # later ones right to left only meets fully reduced rows.
        pivots = tuple(sorted(tails))
        for c in reversed(pivots):
            _reduce(tails[c], tails)
        one = self.field.one()
        entries = {}
        for i, c in enumerate(pivots):
            entries[(i, c)] = one
            for j, v in tails[c].items():
                entries[(i, j)] = v
        result = (ExactMatrix(self.rows, self.cols, entries, self.field), pivots)
        self._rref = result
        return result

    def rank(self):
        return len(self.rref()[1])

    def kernel_basis(self):
        """Vectors spanning ker(self); count = cols - rank."""
        zero = self.field.zero()
        out = []
        for vec in _kernel(self):
            dense = [zero] * self.cols
            for j, v in vec.items():
                dense[j] = v
            out.append(dense)
        return out

    def solve(self, rhs):
        """One solution of self @ x = rhs, or None when inconsistent."""
        if len(rhs) != self.rows:
            raise InputError("rhs length mismatch")
        entries = dict(self.entries)
        for r, v in enumerate(rhs):
            if isinstance(v, int):
                v = self.field.from_int(v)
            if v:
                entries[(r, self.cols)] = v
        aug = ExactMatrix(self.rows, self.cols + 1, entries, self.field)
        red, pivots = aug.rref()
        if self.cols in pivots:
            return None
        zero = self.field.zero()
        x = [zero] * self.cols
        for i, c in enumerate(pivots):
            x[c] = red.entries.get((i, self.cols), zero)
        return x

    def __repr__(self):
        return f"ExactMatrix({self.rows}x{self.cols} over {self.field})"


def matrix_from_columns(field, columns, rows=None):
    """Assemble a matrix whose columns are the given vectors."""
    if rows is None:
        rows = len(columns[0]) if columns else 0
    entries = {}
    for c, col in enumerate(columns):
        if len(col) != rows:
            raise InputError("ragged columns")
        for r, v in enumerate(col):
            if v:
                entries[(r, c)] = v
    return ExactMatrix(rows, len(columns), entries, field)


class SpanBuilder:
    """Incremental echelonised span of sparse vectors ``{index: value}``.

    add() reduces the vector against the current pivot rows and keeps it
    when it contributes a new pivot; rank queries are O(1)."""

    __slots__ = ("field", "tails")

    def __init__(self, field):
        self.field = field
        self.tails = {}  # pivot column -> normalised row without its leading 1

    @property
    def rank(self):
        return len(self.tails)

    def _reduce(self, vec):
        return _reduce({i: v for i, v in vec.items() if v}, self.tails)

    def add(self, vec):
        """Insert; returns True when the rank grew."""
        work = self._reduce(vec)
        if not work:
            return False
        c, tail = _new_pivot(work, self.field)
        self.tails[c] = tail
        return True

    def contains(self, vec):
        return not self._reduce(vec)


def _kernel(mat):
    """Sparse kernel vectors ``{col: value}`` of `mat`, one per free column."""
    red, pivots = mat.rref()
    pivot_set = set(pivots)
    one = mat.field.one()
    basis = {f: {f: one} for f in range(mat.cols) if f not in pivot_set}
    for (i, f), v in red.entries.items():
        if f in basis:
            basis[f][pivots[i]] = -v
    return list(basis.values())


def cohomology_at(field, cycles, delta, boundaries):
    """Cohomology at one spot of a finite complex, from sparse data.

    `cycles` lists the keys whose cycles count, `delta(key)` is the
    differential of a basis key as ``{key: coeff}``, and `boundaries` lists
    the keys whose differentials land in this spot.  The kernel of delta on
    `cycles` comes from one rref; the boundaries, then the kernel vectors,
    go into one `SpanBuilder`.  Returns ``(dim, reps)``: `reps` are the
    kernel vectors that raised its rank, as ``{key: coeff}`` in `cycles`
    order, and ``dim = len(reps)``.  The boundaries need not be cycles (a
    truncated complex may have d^2 != 0 at its edge); the count is always
    rank(boundaries + cycles) - rank(boundaries).
    """
    if not cycles:
        return 0, []
    rows = {}
    entries = {}
    for j, key in enumerate(cycles):
        for t, c in delta(key).items():
            entries[(rows.setdefault(t, len(rows)), j)] = c
    kernel = _kernel(ExactMatrix(len(rows), len(cycles), entries, field))
    if not kernel:
        return 0, []
    index = {key: j for j, key in enumerate(cycles)}
    span = SpanBuilder(field)
    for key in boundaries:
        span.add({index.setdefault(t, len(index)): c
                  for t, c in delta(key).items()})
    reps = [
        {cycles[j]: vec[j] for j in sorted(vec)}
        for vec in kernel
        if span.add(vec)
    ]
    return len(reps), reps
