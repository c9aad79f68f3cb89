"""Per-layer tracing of singlab from outside the program.

`Tracer` replaces the public entry points of each layer with wrappers that
record a span (name, start, end, parent, job id) per call, plus counters
measured at the same boundary (matrix shapes, nnz, ranks, basis sizes, ...).
Class methods are patched on the class.  A module-level function is patched
under every name that refers to it in every loaded singlab module, because
`from .polyring import format_poly`-style imports copy the binding and
patching the defining module alone would miss those callers.

`install()` and `uninstall()` swap the wrappers in and out, so untraced
rounds run the original code.  Spans stay in memory; `summarize()` turns
them into per-layer metrics and `write()` dumps them when the run ends.

A span's self time is its duration minus the durations of its direct
children.  Calls nest strictly in one thread, so children never overlap and
the self times of all spans of a job add up to the job's wall time exactly.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter


def _field_kind(field):
    """`gf` for prime fields, `rat` for characteristic 0."""
    return "gf" if getattr(field, "characteristic", 0) else "rat"


# -- counters taken at the layer boundaries ------------------------------------


def _rref_name(args):
    return "linalg.rref." + _field_kind(args[0].field)


def _rref_before(tracer, args):
    return args[0]._rref is not None


def _rref_after(tracer, args, result, memo_hit):
    c = tracer.counters
    c["linalg.rref_memo_hits"] += memo_hit
    if memo_hit:
        return
    mat = args[0]
    red, pivots = result
    c["linalg.rref_cells"] += mat.rows * mat.cols
    c["linalg.rref_nnz_in"] += len(mat.entries)
    c["linalg.rref_nnz_out"] += len(red.entries)
    c["linalg.rref_rank"] += len(pivots)
    c["linalg.rref_min_dim"] += min(mat.rows, mat.cols)


def _span_add_after(tracer, args, result, _):
    tracer.counters["linalg.span_add_raised"] += bool(result)


def _normal_form_after(tracer, args, result, _):
    # the span just closed, so the top of the stack is the caller's span
    parent = tracer.stack[-1] if tracer.stack else -1
    if parent >= 0 and tracer.spans[parent][0] == "polyring.buchberger":
        rem = result[0] if isinstance(result, tuple) else result
        tracer.counters["polyring.spair_nf"] += 1
        tracer.counters["polyring.spair_nf_zero"] += rem.is_zero()


def _buchberger_after(tracer, args, result, _):
    tracer.counters["polyring.gb_size"] += len(result.generators)


def _quotient_basis_after(tracer, args, result, _):
    tracer.counters["polyring.staircase_size"] += len(result.monomials)


def _component_basis_after(tracer, args, result, _):
    tracer.counters["quiverlab.basis_size"] += len(result)


# (module, attribute path, name, hooks).  The name may be a function of
# the call's arguments.
TARGETS = (
    ("cli", "main", "cli.main", None, None),
    ("linalg", "ExactMatrix.rref", _rref_name, _rref_before, _rref_after),
    ("linalg", "ExactMatrix.kernel_basis", "linalg.kernel", None, None),
    ("linalg", "ExactMatrix.solve", "linalg.solve", None, None),
    ("linalg", "SpanBuilder.add", "linalg.span_add", None, _span_add_after),
    ("polyring", "parse_poly", "polyring.parse", None, None),
    ("polyring", "format_poly", "polyring.format", None, None),
    ("polyring", "buchberger", "polyring.buchberger", None,
     _buchberger_after),
    ("polyring", "normal_form", "polyring.normal_form", None,
     _normal_form_after),
    ("polyring", "quotient_basis", "polyring.quotient_basis", None,
     _quotient_basis_after),
    ("findim", "FinDimAlgebra.multiply", "findim.multiply", None, None),
    ("quiverlab", "DrinfeldComplex.differential", "quiverlab.differential",
     None, None),
    ("quiverlab", "DrinfeldComplex.component_basis",
     "quiverlab.component_basis", None, _component_basis_after),
    ("quiverlab", "drinfeld_cohomology", "quiverlab.cohomology", None, None),
    ("hochschild", "hochschild_cohomology", "hochschild.cohomology", None,
     None),
    ("hochschild", "hochschild_homology", "hochschild.cohomology", None,
     None),
    ("koszuldual", "koszul_dual_cohomology", "koszuldual.cohomology", None,
     None),
    ("koszuldual", "BarComplex.delta", "koszuldual.bar_delta", None, None),
    ("stabilize", "stabilise", "stabilize.stabilise", None, None),
    ("stabilize", "EndDGAlgebra.delta_word", "stabilize.delta", None, None),
    ("stabilize", "end_cohomology", "stabilize.end_cohomology", None, None),
)

# Cheap, very frequent calls that are counted (as `<name>_calls`) but get no
# span, so their time stays in the caller's self time.
COUNT_ONLY = {"quiverlab.component_basis", "koszuldual.bar_delta"}

# Span name -> per-layer self-time metric.  Every span name appears here
# once, so the metrics partition each job's wall time.
SELF_METRICS = {
    "job": "trace.unwrapped_s",
    "cli.main": "cli.self_s",
    "linalg.rref.rat": "linalg.rref_s.rat",
    "linalg.rref.gf": "linalg.rref_s.gf",
    "linalg.kernel": "linalg.kernel_s",
    "linalg.solve": "linalg.solve_s",
    "linalg.span_add": "linalg.span_add_s",
    "polyring.parse": "polyring.parse_s",
    "polyring.format": "polyring.format_s",
    "polyring.buchberger": "polyring.buchberger_s",
    "polyring.normal_form": "polyring.normal_form_s",
    "polyring.quotient_basis": "polyring.quotient_basis_s",
    "findim.multiply": "findim.multiply_s",
    "quiverlab.differential": "quiverlab.differential_s",
    "quiverlab.cohomology": "quiverlab.cohomology_self_s",
    "hochschild.cohomology": "hochschild.cohomology_self_s",
    "koszuldual.cohomology": "koszuldual.cohomology_self_s",
    "stabilize.stabilise": "stabilize.stabilise_s",
    "stabilize.delta": "stabilize.delta_s",
    "stabilize.end_cohomology": "stabilize.end_cohomology_self_s",
}


class Tracer:
    """Wrappers for the layer entry points, and the spans they record."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, job id]
        self.stack = []
        self.job = None
        self.counters = Counter()
        self._patches = []
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "singlab" or n.startswith("singlab.")]
        for mod_name, path, name, before, after in TARGETS:
            module = sys.modules[f"singlab.{mod_name}"]
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                wrapper = self._wrap(original, name, before, after)
                self._patches.append((owner, attr, original, wrapper))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, name, before, after)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original, wrapper))

    def install(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def _wrap(self, fn, name, before, after):
        tracer = self
        counters = self.counters
        clock = time.perf_counter

        if name in COUNT_ONLY:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counters[name + "_calls"] += 1
                result = fn(*args, **kwargs)
                if after is not None:
                    after(tracer, args, result, None)
                return result
            return counted

        @functools.wraps(fn)
        def spanned_call(*args, **kwargs):
            label = name(args) if callable(name) else name
            state = before(tracer, args) if before is not None else None
            spans = tracer.spans
            stack = tracer.stack
            rec = [label, 0.0, 0.0, stack[-1] if stack else -1, tracer.job]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(tracer, args, result, state)
            return result
        return spanned_call

    def run_job(self, job_id, call):
        """Run `call()` as job `job_id` under a root span named `job`."""
        self.job = job_id
        rec = ["job", 0.0, 0.0, -1, job_id]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            return call()
        finally:
            rec[2] = time.perf_counter()
            self.stack.clear()
            self.job = None

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")

    def summarize(self, rounds, scales):
        """Per-layer metrics, each summed over the traced jobs and divided by
        the number of traced rounds: {name: (value, unit)}.  Times are in
        reference seconds: each span is scaled by its job's factor in
        `scales` (see refclock.py)."""
        calls = Counter()
        total = Counter()
        selfs = Counter()
        for (label, start, end, _, job), own in zip(self.spans,
                                                    self._self_times()):
            scale = scales[job]
            calls[label] += 1
            total[label] += (end - start) * scale
            selfs[label] += own * scale
        c = self.counters

        def ratio(num, den):
            return num / den if den else 0.0

        per_round = 1.0 / rounds
        out = {}
        for label, metric in SELF_METRICS.items():
            out[metric] = (selfs[label] * per_round, "s/round")
        rref_calls = calls["linalg.rref.rat"] + calls["linalg.rref.gf"]
        out["linalg.rref_s"] = (
            (selfs["linalg.rref.rat"] + selfs["linalg.rref.gf"]) * per_round,
            "s/round")
        counts = {
            "linalg.rref_calls": rref_calls,
            "linalg.rref_cells": c["linalg.rref_cells"],
            "linalg.rref_nnz_in": c["linalg.rref_nnz_in"],
            "linalg.kernel_calls": calls["linalg.kernel"],
            "linalg.solve_calls": calls["linalg.solve"],
            "linalg.span_add_calls": calls["linalg.span_add"],
            "polyring.buchberger_calls": calls["polyring.buchberger"],
            "polyring.normal_form_calls": calls["polyring.normal_form"],
            "polyring.gb_size": c["polyring.gb_size"],
            "polyring.staircase_size": c["polyring.staircase_size"],
            "findim.multiply_calls": calls["findim.multiply"],
            "quiverlab.differential_calls": calls["quiverlab.differential"],
            "quiverlab.basis_size": c["quiverlab.basis_size"],
            "koszuldual.bar_delta_calls": c["koszuldual.bar_delta_calls"],
            "stabilize.delta_calls": calls["stabilize.delta"],
            "trace.spans": len(self.spans),
        }
        for metric, value in counts.items():
            out[metric] = (value * per_round, "1/round")
        out["linalg.fill_ratio"] = (
            ratio(c["linalg.rref_nnz_out"], c["linalg.rref_nnz_in"]), "ratio")
        out["linalg.rank_yield"] = (
            ratio(c["linalg.rref_rank"], c["linalg.rref_min_dim"]), "ratio")
        out["linalg.memo_hit_ratio"] = (
            ratio(c["linalg.rref_memo_hits"], rref_calls), "ratio")
        out["linalg.span_add_yield"] = (
            ratio(c["linalg.span_add_raised"], calls["linalg.span_add"]),
            "ratio")
        out["polyring.spair_zero_ratio"] = (
            ratio(c["polyring.spair_nf_zero"], c["polyring.spair_nf"]),
            "ratio")
        out["cli.main_s"] = (total["cli.main"] * per_round, "s/round")
        out["trace.job_s"] = (total["job"] * per_round, "s/round")
        return out

    def _self_times(self):
        """Each span's duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def accounting_gap(self):
        """|sum of all self times - sum of job wall times|, in seconds; zero
        up to rounding when no span is counted twice or missed."""
        unknown = {rec[0] for rec in self.spans} - set(SELF_METRICS)
        if unknown:
            raise ValueError(f"spans without a self-time metric: {unknown}")
        job_sum = sum(end - start for label, start, end, _, _ in self.spans
                      if label == "job")
        return abs(sum(self._self_times()) - job_sum)
