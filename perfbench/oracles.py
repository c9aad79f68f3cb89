"""Correctness checks for benchmark jobs, independent of the singlab code.

`check(job, stdout)` returns None when the output is right and a one-line
reason otherwise.  Each oracle compares the command's JSON output against a
closed form that `workloads.py` derived from the job's parameters:

- drinfeld: component dimensions |Ae| |eAe|^i |eA|, and cohomology k in
  each window degree for End_R(R + k) with e = id_R (stable Ext of k over
  k[x]/x^n), 0 for k[x]/x^n with e = 1;
- milnor: mu = tau = prod(a_i - 1) for Brieskorn-Pham sums; for their
  semi-quasi-homogeneous perturbations the global mu lies between the local
  mu of the principal part and the Bezout bound, and `check_pairs` asks
  tau <= mu of the same sigma;
- staircase: the standard monomials of the returned leading monomials
  number 2^n for Katsura-n and 70 for cyclic-5;
- dims: HH of k[x]/x^n is (n, n-1, n-1, ...), the curved Clifford algebra
  has k in even degrees and 0 in odd, the Koszul dual of k[x]/x^n is k in
  each degree;
- bar: piece m of the bar construction on k[x]/x^n has dimension (n-1)^m;
- endcoh: no closed form; dimensions must be non-negative integers, and the
  job is also repeated and its output compared byte for byte.
"""

from __future__ import annotations

import json
import re


def _load(stdout):
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as ex:
        raise _Mismatch(f"stdout is not JSON: {ex}") from ex
    if not isinstance(doc, dict):
        raise _Mismatch("stdout is not a JSON object")
    return doc


class _Mismatch(Exception):
    pass


def _expect_equal(what, got, want):
    if got != want:
        raise _Mismatch(f"{what}: got {got!r}, want {want!r}")


def _drinfeld(doc, expect):
    _expect_equal("components", doc.get("dims"), expect["components"])
    _expect_equal("cohomology", doc.get("cohomology"), expect["cohomology"])


def _milnor(doc, expect):
    key = expect["key"]
    number = doc.get(key)
    if not isinstance(number, int) or doc.get("finite") is not True:
        raise _Mismatch(f"{key} is {number!r}, finite={doc.get('finite')!r}")
    _expect_equal("basis size", len(doc.get("basis", ())), number)
    if "equal" in expect:
        _expect_equal(key, number, expect["equal"])
    elif not expect["at_least"] <= number <= expect["at_most"]:
        raise _Mismatch(f"{key} {number} not in "
                        f"[{expect['at_least']}, {expect['at_most']}]")


_MONO = re.compile(r"^([A-Za-z_]\w*)(?:\^(\d+))?$")


def _exponents(text, index):
    exp = [0] * len(index)
    if text == "1":
        return tuple(exp)
    for factor in text.split("*"):
        m = _MONO.match(factor)
        if m is None or m.group(1) not in index:
            raise _Mismatch(f"unreadable leading monomial {text!r}")
        exp[index[m.group(1)]] += int(m.group(2) or 1)
    return tuple(exp)


def staircase_size(leading, nvars):
    """Number of monomials divisible by none of `leading`; None if infinite."""
    bounds = []
    for i in range(nvars):
        pure = [e[i] for e in leading
                if e[i] > 0 and all(e[j] == 0 for j in range(nvars) if j != i)]
        if not pure:
            return None
        bounds.append(min(pure))
    count = 0

    def visit(prefix):
        nonlocal count
        k = len(prefix)
        # a leading monomial that already divides the prefix rules out
        # every completion of it
        for e in leading:
            if all(e[j] <= prefix[j] for j in range(k)) and not any(e[k:]):
                return
        if k == nvars:
            count += 1
            return
        for v in range(bounds[k]):
            visit(prefix + (v,))

    visit(())
    return count


def _staircase(doc, expect):
    names = expect["variables"]
    index = {v: i for i, v in enumerate(names)}
    leading = [_exponents(t, index) for t in doc.get("leading", ())]
    _expect_equal("basis size", len(doc.get("basis", ())), len(leading))
    _expect_equal("staircase size", staircase_size(leading, len(names)),
                  expect["size"])


def _dims(doc, expect):
    _expect_equal("dims", doc.get("dims"), expect["dims"])


def _bar(doc, expect):
    pieces = doc.get("pieces", {})
    got = {m: p.get("dim") for m, p in pieces.items()}
    _expect_equal("piece dims", got, expect["dims"])
    for m, p in pieces.items():
        _expect_equal(f"piece {m} degrees", len(p.get("degrees", ())),
                      p.get("dim"))


def _endcoh(doc, expect):
    dims = doc.get("dims")
    if not isinstance(dims, dict) or not all(
            isinstance(v, int) and v >= 0 for v in dims.values()):
        raise _Mismatch(f"dims {dims!r} are not non-negative integers")


ORACLES = {
    "drinfeld": _drinfeld,
    "milnor": _milnor,
    "staircase": _staircase,
    "dims": _dims,
    "bar": _bar,
    "endcoh": _endcoh,
}

# Oracles that pin the whole answer; jobs checked by any other oracle are
# also repeated, and the repeat must print the same bytes.
CLOSED_FORM = {"drinfeld", "staircase", "dims", "bar"}


def needs_repeat(job):
    expect = job["expect"]
    return expect["oracle"] not in CLOSED_FORM and "equal" not in expect


def check_pairs(outputs):
    """Reasons keyed by job id where a tjurina job's tau exceeds the mu of
    its paired milnor job.  `outputs` maps job id to (job, stdout) for the
    jobs that exited 0; a tjurina job whose milnor job is not among them is
    left to its own oracle."""
    numbers = {}
    for job, stdout in outputs.values():
        expect = job["expect"]
        if "pair" in expect:
            try:
                value = json.loads(stdout).get(expect["key"])
            except (json.JSONDecodeError, AttributeError):
                value = None
            numbers[(expect["pair"], expect["key"])] = value
    bad = {}
    for job_id, (job, _) in outputs.items():
        expect = job["expect"]
        if expect.get("key") != "tjurinaNumber" or "pair" not in expect:
            continue
        tau = numbers.get((expect["pair"], "tjurinaNumber"))
        if (expect["pair"], "milnorNumber") not in numbers:
            continue
        mu = numbers[(expect["pair"], "milnorNumber")]
        if not (isinstance(tau, int) and isinstance(mu, int) and tau <= mu):
            bad[job_id] = f"tau {tau!r} vs mu {mu!r} of the same sigma"
    return bad


def check(job, stdout):
    """None when `stdout` is a correct answer to `job`, else the reason."""
    try:
        ORACLES[job["expect"]["oracle"]](_load(stdout), job["expect"])
    except _Mismatch as ex:
        return str(ex)
    return None
