"""A reference clock that cancels the host's changing speed.

The benchmark's host runs the same Python code at speeds that differ by up
to a factor of two for tens of seconds at a time, because it shares its
processors.  Raw wall times then say more about the host than about the
program.  So the benchmark times `reference()`, a fixed pure-Python loop
that uses none of singlab, next to every job, and reports each job's time
scaled to the speed at which one pass of that loop takes `NOMINAL_S`:

    reference seconds = wall seconds * NOMINAL_S / reference pass time

The loop mixes what singlab spends its time on: exact Fraction arithmetic,
a slotted modular-integer class, dicts keyed by tuples, and string and JSON
work.  A change to singlab cannot change the loop's time, so it moves the
reference seconds exactly as it moves the wall seconds on a steady host.
"""

from __future__ import annotations

import json
import statistics
import time
from fractions import Fraction

# One pass of `reference()` on an unloaded host of the kind the benchmark
# was tuned on.  Any constant works; this one keeps reference seconds close
# to wall seconds there.
NOMINAL_S = 0.0007


class _Mod:
    __slots__ = ("v", "p")

    def __init__(self, v, p):
        self.v = v % p
        self.p = p

    def __add__(self, other):
        return _Mod(self.v + other.v, self.p)

    def __mul__(self, other):
        return _Mod(self.v * other.v, self.p)


def reference():
    s = Fraction(0)
    for i in range(1, 40):
        s += Fraction(1, i) * Fraction(i + 1, 3)
    a = _Mod(3, 32003)
    acc = _Mod(0, 32003)
    for i in range(260):
        acc = acc + a * _Mod(i, 32003)
    table = {}
    for i in range(400):
        key = (i % 37, i % 11)
        table[key] = table.get(key, 0) + i
    ordered = sorted(table.items())
    words = [f"x{i}^{i % 7}*y{i % 5}" for i in range(100)]
    text = "+".join(words)
    letters = sum(1 for ch in text if ch.isalnum())
    return json.dumps({"w": words[:30], "n": letters, "s": str(s),
                       "a": acc.v, "t": len(ordered)}, sort_keys=True)


def pass_seconds(passes=3):
    """Median wall time of `passes` runs of the reference loop."""
    times = []
    for _ in range(passes):
        start = time.perf_counter()
        reference()
        times.append(time.perf_counter() - start)
    return statistics.median(times)
