"""Seeded job streams for the singlab benchmark.

A job is one `singlab` command line plus the JSON documents it reads.  Each
workload is a fixed mix of job templates.  A stream is a list of rounds; a
round instantiates every template of the mix once, in a shuffled order, with
fresh basis and variable names, coefficients and primes drawn from the seed.
The jobs of a stream are therefore distinct inputs, but nothing drawn from
the seed changes a job's shape (degrees, depths, truncations, basis order,
exponents), so every round does the same work.

Every job carries an `expect` record naming the oracle in `oracles.py` that
checks its output, with the closed-form values that oracle compares against.
"""

from __future__ import annotations

import random
from fractions import Fraction

WORKLOADS = ("drinfeld", "groebner", "dg-cohomology")

# Primes for `gf:p` jobs.  All exceed every exponent, truncation and total
# weight used below, so the closed forms of the oracles hold over them.
PRIMES = tuple(p for p in range(30011, 32768, 2)
               if all(p % q for q in range(3, 182, 2)))


def _names(rng, count):
    """Distinct identifiers such as `q17`; never the imaginary unit `i`."""
    out = []
    taken = set()
    while len(out) < count:
        name = rng.choice("abcdefghjkmnpqrstuvw") + str(rng.randrange(100))
        if name not in taken:
            taken.add(name)
            out.append(name)
    return out


def _field(rng, kind):
    return "rat" if kind == "rat" else f"gf:{rng.choice(PRIMES)}"


def _coeff(rng):
    return rng.choice((-7, -5, -3, -2, -1, 1, 2, 3, 5, 7))


def _poly(terms):
    """Polynomial text from (integer coefficient, monomial text) pairs."""
    text = ""
    for c, mono in terms:
        sign = "-" if c < 0 else ("+" if text else "")
        text += f"{sign}{abs(c)}*{mono}"
    return text


# -- finite-dimensional algebras ---------------------------------------------


def _truncated_poly_doc(names, field, degrees=None):
    """k[x]/x^n on the basis 1, x, ..., x^(n-1), named by `names`."""
    n = len(names)
    products = {}
    for i in range(n):
        for j in range(n):
            if i + j < n:
                products[f"{names[i]},{names[j]}"] = {names[i + j]: "1"}
    doc = {"basis": list(names), "unit": names[0], "products": products,
           "field": field}
    if degrees is not None:
        doc["degrees"] = degrees
    return doc


def _matmul(a, b):
    size = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(size)) for j in range(size)]
            for i in range(size)]


def _coordinates(target, basis):
    """Coefficients of `target` in the span of the matrices `basis`."""
    size = len(target)
    width = len(basis)
    rows = [[Fraction(m[i][j]) for m in basis] + [Fraction(target[i][j])]
            for i in range(size) for j in range(size)]
    pivots = []
    r = 0
    for c in range(width):
        p = next((k for k in range(r, len(rows)) if rows[k][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        piv = rows[r][c]
        rows[r] = [v / piv for v in rows[r]]
        for k in range(len(rows)):
            if k != r and rows[k][c]:
                f = rows[k][c]
                rows[k] = [a - f * b for a, b in zip(rows[k], rows[r])]
        pivots.append(c)
        r += 1
    if any(row[-1] for row in rows[r:]):
        raise ValueError("product leaves the algebra")
    return {c: rows[k][-1] for k, c in enumerate(pivots) if rows[k][-1]}


def _end_algebra_doc(n, names, field):
    """End_R(R + k) for R = k[x]/x^n, by its action on R + k = k^(n+1).

    The basis is the unit, x^1..x^(n-1) acting on R, the maps k -> soc R and
    R -> k, and the projection d onto k; e = id_R is then `unit - d`.
    """
    size = n + 1

    def unit_matrix(cells):
        m = [[0] * size for _ in range(size)]
        for r, c in cells:
            m[r][c] = 1
        return m

    xs = [unit_matrix([(i + j, j) for j in range(n) if i + j < n])
          for i in range(n)]
    to_soc = unit_matrix([(n - 1, n)])
    to_k = unit_matrix([(n, 0)])
    proj_k = unit_matrix([(n, n)])
    one = [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(xs[0], proj_k)]
    mats = [one] + xs[1:] + [to_soc, to_k, proj_k]
    products = {}
    for i, a in enumerate(mats):
        for j, b in enumerate(mats):
            coords = _coordinates(_matmul(a, b), mats)
            if coords:
                products[f"{names[i]},{names[j]}"] = {
                    names[k]: str(v) for k, v in coords.items()}
    doc = {"basis": list(names), "unit": names[0], "products": products,
           "field": field}
    return doc, {names[0]: "1", names[-1]: "-1"}


# -- drinfeld ------------------------------------------------------------------

# (family, n, depth, field kind, copies per round).  `end` is End_R(R + k)
# with e = id_R; `unit` is k[x]/x^n with e = 1.
#
# Each mix is shaped so that its median and its 90th-percentile job land
# inside a block of copies of one template, away from the block's edges:
# a quantile that falls between two templates of different cost would jump
# with every small timing change.  Here the median falls among the end2.d4
# rat copies and the 90th percentile among the end3.d4 gf copies.
DRINFELD_MIX = (
    ("end", 3, 4, "rat", 1), ("end", 3, 4, "gf", 3),
    ("end", 2, 5, "rat", 1), ("unit", 2, 6, "rat", 1),
    ("unit", 3, 4, "rat", 1), ("end", 2, 5, "gf", 1),
    ("unit", 2, 6, "gf", 1), ("unit", 3, 4, "gf", 1),
    ("end", 2, 4, "rat", 9),
    ("end", 2, 4, "gf", 4), ("unit", 2, 5, "rat", 2), ("unit", 2, 5, "gf", 2),
)


def _drinfeld_job(rng, family, n, depth, kind):
    field = _field(rng, kind)
    if family == "end":
        names = _names(rng, n + 3)
        algebra, idem = _end_algebra_doc(n, names, field)
        # stable Ext of k over k[x]/x^n: k in every degree
        inner = 1
        outer = (n + 1) ** 2
    else:
        names = _names(rng, n)
        algebra = _truncated_poly_doc(names, field)
        idem = {names[0]: "1"}
        inner = 0  # A<e> with e = 1 is acyclic
        outer = n * n
    window = list(range(-(depth - 2), 1))
    # Q^0 = A and Q^(-1-i) = Ae (x) (eAe)^(x)i (x) eA
    components = {"0": n + 3 if family == "end" else n}
    for i in range(depth + 1):
        components[str(-1 - i)] = outer * n ** i
    return {
        "family": f"drinfeld.{family}{n}.d{depth}",
        "field": kind,
        "argv": ["quiver", "drinfeld", "{file}", "--depth", str(depth),
                 f"--window={window[0]}:0"],
        "file": {"algebra": algebra, "idempotent": idem},
        "expect": {"oracle": "drinfeld", "components": components,
                   "cohomology": {str(d): inner for d in window}},
    }


# -- groebner ------------------------------------------------------------------

# Brieskorn-Pham exponent vectors (quasi-homogeneous, mu = prod(a - 1)).
BP_EXPONENTS = ((3, 4), (5, 7), (4, 6), (3, 4, 5), (2, 3, 7),
                (3, 3, 4, 4), (2, 3, 3, 4), (3, 3, 3, 3))

# Semi-quasi-homogeneous perturbations: (principal exponents, perturbing
# monomials), each monomial above the Newton diagonal (sum e_i/a_i > 1), so
# the local mu at 0 is that of the principal part, and sigma is not
# quasi-homogeneous, so tjurina runs a real Buchberger.
SQH = {
    "light": ((5, 6), ((3, 3),)),
    "light2": ((6, 7), ((4, 3), (2, 6))),
    "heavy": ((9, 11), ((5, 5), (4, 7))),
}

def _bp_job(rng, command, exps, kind):
    field = _field(rng, kind)
    names = _names(rng, len(exps))
    sigma = _poly((_coeff(rng), f"{v}^{a}") for v, a in zip(names, exps))
    mu = 1
    for a in exps:
        mu *= a - 1
    key = "milnorNumber" if command == "milnor" else "tjurinaNumber"
    return {
        "family": f"{command}.bp{len(exps)}.{'-'.join(map(str, exps))}",
        "field": kind,
        "argv": [command, "--ring", ",".join(names), "--field", field,
                 f"--sigma={sigma}"],
        "expect": {"oracle": "milnor", "key": key, "equal": mu},
    }


def _sqh_jobs(rng, label, kind):
    """A `milnor` and a `tjurina` job on one semi-quasi-homogeneous sigma.

    singlab computes global invariants, so mu counts every critical point:
    it lies between the local mu of the principal part and the Bezout bound
    (d - 1)^n, and tau <= mu is checked across the pair.
    """
    field = _field(rng, kind)
    exps, extra = SQH[label]
    names = _names(rng, len(exps))
    terms = [(_coeff(rng), f"{v}^{a}") for v, a in zip(names, exps)]
    for mono in extra:
        terms.append((_coeff(rng), "*".join(
            f"{v}^{k}" for v, k in zip(names, mono) if k)))
    sigma = _poly(terms)
    local_mu = 1
    for a in exps:
        local_mu *= a - 1
    degree = max(max(exps), *(sum(m) for m in extra))
    bezout = (degree - 1) ** len(exps)
    jobs = []
    for command, key, low in (("milnor", "milnorNumber", local_mu),
                              ("tjurina", "tjurinaNumber", 1)):
        jobs.append({
            "family": f"{command}.sqh.{label}",
            "field": kind,
            "argv": [command, "--ring", ",".join(names), "--field", field,
                     f"--sigma={sigma}"],
            "expect": {"oracle": "milnor", "key": key, "at_least": low,
                       "at_most": bezout, "pair": f"{field}|{sigma}"},
        })
    return jobs


def _katsura_polys(names, rng):
    n = len(names) - 1

    def var(k):
        return names[abs(k)] if abs(k) <= n else None

    polys = []
    for m in range(n):
        terms = []
        for l in range(-n, n + 1):
            a, b = var(l), var(m - l)
            if a is not None and b is not None:
                terms.append(f"{a}*{b}")
        polys.append("+".join(terms) + f"-{names[m]}")
    polys.append(names[0] + "".join(f"+2*{v}" for v in names[1:]) + "-1")
    return [f"{_coeff(rng)}*({p})" for p in polys]


def _cyclic_polys(names, rng):
    n = len(names)
    polys = []
    for k in range(1, n):
        polys.append("+".join(
            "*".join(names[(i + j) % n] for j in range(k)) for i in range(n)))
    polys.append("*".join(names) + "-1")
    return [f"{_coeff(rng)}*({p})" for p in polys]


def _gb_job(rng, system, size, kind):
    field = _field(rng, kind)
    if system == "katsura":
        names = _names(rng, size + 1)
        gens = _katsura_polys(names, rng)
        staircase = 2 ** size
    else:
        names = _names(rng, size)
        gens = _cyclic_polys(names, rng)
        staircase = 70
    return {
        "family": f"gb.{system}{size}",
        "field": kind,
        "argv": ["poly", "gb", "--ring", ",".join(names), "--field", field,
                 "--gens=" + ";".join(gens)],
        "expect": {"oracle": "staircase", "size": staircase,
                   "variables": names},
    }


# The median falls among the Brieskorn-Pham jobs, which all cost about the
# same, and the 90th percentile among the heavy semi-quasi-homogeneous
# tjurina gf copies (see the note above DRINFELD_MIX).  Each `sqh` entry makes a milnor/tjurina pair.
GROEBNER_MIX = (
    [("gb", ("cyclic", 5, "gf"), 1)]
    + [("gb", ("katsura", 4, k), 1) for k in ("rat", "gf")]
    + [("gb", ("katsura", 3, k), 2) for k in ("rat", "gf")]
    + [("sqh", ("heavy", "rat"), 1), ("sqh", ("heavy", "gf"), 3)]
    + [("sqh", (label, k), 1) for label in ("light", "light2")
       for k in ("rat", "gf")]
    + [("bp", (c, e, k), 1) for c in ("milnor", "tjurina")
       for e in BP_EXPONENTS for k in ("rat", "gf")]
)


# -- dg-cohomology ---------------------------------------------------------------


def _hh_trunc_job(rng, variant, n, trunc, top, kind):
    field = _field(rng, kind)
    doc = _truncated_poly_doc(_names(rng, n), field, degrees=[0] * n)
    doc["grading"] = "Z"
    # HH of k[x]/x^n with p not dividing n: n in degree 0, n - 1 above
    dims = {str(d): (n if d == 0 else n - 1) for d in range(top + 1)}
    return {
        "family": f"hh.{variant}.x{n}.t{trunc}",
        "field": kind,
        "argv": ["hh", "{file}", "--variant", variant, "--trunc", str(trunc),
                 "--window", f"0:{top}"],
        "file": doc,
        "expect": {"oracle": "dims", "dims": dims},
    }


def _hh_clifford_job(rng, kind):
    field = _field(rng, kind)
    one, t = _names(rng, 2)
    a = rng.choice((1, 2, 3, 5, 6, 7))
    doc = {
        "grading": "Z2", "basis": [one, t], "degrees": [0, 1], "unit": one,
        "field": field,
        "products": {f"{one},{one}": {one: "1"}, f"{one},{t}": {t: "1"},
                     f"{t},{one}": {t: "1"}, f"{t},{t}": {one: str(-a)}},
    }
    # curved Clifford algebra k[t]/(t^2 + a): k in even degrees, 0 in odd
    dims = {str(d): 1 - d % 2 for d in range(5)}
    return {
        "family": "hh.cochain.clifford",
        "field": kind,
        "argv": ["hh", "{file}", "--trunc", "6", "--window", "0:4"],
        "file": doc,
        "expect": {"oracle": "dims", "dims": dims},
    }


def _koszul_job(rng, n, trunc, top, kind):
    doc = _truncated_poly_doc(_names(rng, n), _field(rng, kind),
                              degrees=[0] * n)
    return {
        "family": f"koszul-dual.x{n}.t{trunc}",
        "field": kind,
        "argv": ["koszul-dual", "{file}", "--trunc", str(trunc),
                 "--window", f"0:{top}"],
        "file": doc,
        # the Koszul dual of k[x]/x^n is k in each degree
        "expect": {"oracle": "dims",
                   "dims": {str(d): 1 for d in range(top + 1)}},
    }


def _bar_job(rng, n, trunc, kind):
    doc = _truncated_poly_doc(_names(rng, n), _field(rng, kind),
                              degrees=[0] * n)
    return {
        "family": f"bar.x{n}.t{trunc}",
        "field": kind,
        "argv": ["bar", "{file}", "--trunc", str(trunc)],
        "file": doc,
        "expect": {"oracle": "bar",
                   "dims": {str(m): (n - 1) ** m for m in range(trunc + 1)}},
    }


# (variables, weights or None, exponents, weight bound) for endcoh; the ideal
# is the maximal ideal, sigma the weighted sum of powers.
ENDCOH = {
    "A1": (1, None, (2,), 3),
    "A3": (1, None, (4,), 6),
    "quad2": (2, None, (2, 2), 3),
    "quad3": (3, None, (2, 2, 2), 3),
    "weighted": (3, (3, 3, 2), (2, 2, 3), 10),
}


def _endcoh_job(rng, label, kind):
    nvars, weights, exps, bound = ENDCOH[label]
    names = _names(rng, nvars)
    sigma = _poly((_coeff(rng), f"{v}^{a}") for v, a in zip(names, exps))
    argv = ["endcoh", "--ring", ",".join(names), "--field", _field(rng, kind),
            f"--sigma={sigma}", "--ideal", ";".join(names),
            "--weight-bound", str(bound)]
    if weights:
        argv[3:3] = ["--weights", ",".join(map(str, weights))]
    return {
        "family": f"endcoh.{label}",
        "field": kind,
        "argv": argv,
        "expect": {"oracle": "endcoh"},
    }


# The median falls among the koszul-dual x3 rat copies and the 90th
# percentile among the hh cochain x3 trunc-6 copies (see the note above
# DRINFELD_MIX).
DG_MIX = (
    [("clifford", (k,), 1) for k in ("rat", "gf")]
    + [("hh", ("chain", 2, 6, 4, k), 1) for k in ("rat", "gf")]
    + [("endcoh", (label, k), 1) for label in ("A1", "A3")
       for k in ("rat", "gf")]
    + [("bar", (3, 5, k), 1) for k in ("rat", "gf")]
    + [("koszul", (2, 8, 6, "rat"), 1), ("koszul", (3, 8, 3, "gf"), 1),
       ("bar", (4, 6, "rat"), 1), ("endcoh", ("quad2", "rat"), 1)]
    + [("koszul", (3, 8, 3, "rat"), 6)]
    + [("hh", ("cochain", 3, 5, 3, "rat"), 2),
       ("hh", ("cochain", 3, 5, 3, "gf"), 2),
       ("hh", ("chain", 3, 5, 3, "rat"), 2),
       ("hh", ("chain", 3, 5, 3, "gf"), 2),
       ("hh", ("cochain", 3, 6, 4, "gf"), 5),
       ("endcoh", ("weighted", "gf"), 2)]
    + [("endcoh", ("quad3", k), 1) for k in ("rat", "gf")]
)

_MAKERS = {
    "drinfeld": _drinfeld_job,
    "bp": _bp_job,
    "sqh": _sqh_jobs,
    "gb": _gb_job,
    "hh": _hh_trunc_job,
    "clifford": _hh_clifford_job,
    "koszul": _koszul_job,
    "bar": _bar_job,
    "endcoh": _endcoh_job,
}


def _mix(workload):
    if workload == "drinfeld":
        return [("drinfeld", (fam, n, d, k), c)
                for fam, n, d, k, c in DRINFELD_MIX]
    if workload == "groebner":
        return list(GROEBNER_MIX)
    if workload == "dg-cohomology":
        return list(DG_MIX)
    raise ValueError(f"unknown workload {workload!r}")


def stream(workload, seed):
    """The workload's endless job stream for `seed`, one round at a time."""
    rng = random.Random(f"{workload}/{seed}")
    mix = _mix(workload)
    r = 0
    while True:
        jobs = []
        for maker, params, copies in mix:
            for _ in range(copies):
                made = _MAKERS[maker](rng, *params)
                jobs.extend(made if isinstance(made, list) else [made])
        rng.shuffle(jobs)
        for j, job in enumerate(jobs):
            job["id"] = f"r{r}.j{j}"
        yield jobs
        r += 1


# Small fixed jobs run once per fresh worker before it reports ready, so
# lazy imports and first-call costs land in setup_s, not in the timed jobs.
def warmup(workload):
    rng = random.Random(f"{workload}/warmup")
    if workload == "drinfeld":
        jobs = [_drinfeld_job(rng, "end", 2, 3, "rat"),
                _drinfeld_job(rng, "unit", 2, 3, "gf")]
    elif workload == "groebner":
        jobs = [_bp_job(rng, "milnor", (2, 3), "rat"),
                *_sqh_jobs(rng, "light", "gf"),
                _gb_job(rng, "katsura", 2, "rat")]
    else:
        jobs = [_hh_trunc_job(rng, "cochain", 2, 3, 1, "rat"),
                _hh_trunc_job(rng, "chain", 2, 3, 1, "gf"),
                _koszul_job(rng, 2, 4, 2, "rat"),
                _bar_job(rng, 2, 2, "gf"),
                _endcoh_job(rng, "A1", "rat")]
    for k, job in enumerate(jobs):
        job["id"] = f"warmup{k}"
    return jobs
