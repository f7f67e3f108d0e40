"""Fixed reference computations that measure the machine's current speed.

On a shared host the same code runs up to about 1.8 times slower for
seconds to minutes at a time, by the load on the other guests.  Work of
one kind slows alike, so a fixed computation of the same kind, run next to
each operation, measures the slowdown that operation met.  ``Ops`` runs
the workload's probe before the first operation of a repetition and after
each operation, and divides each operation's time by the mean of the two
probes around it, times :data:`REF_S`.  ``run_norm_s`` sums over the
operations the median of that quotient over the repetitions: the
repetition's time on a machine where one probe takes ``REF_S`` seconds.

Interpreter loops slow more than numpy loops, so a probe must match its
workload.  :func:`python_work` (``Fraction`` sums, small int arithmetic,
big-int products, dict inserts) serves the workloads whose time is mostly
in the interpreter.  :func:`mixed_work` adds a numpy ``gcd.outer`` for
``lattice``, whose ``is_distributive`` spends most of its time in that
ufunc; with :func:`python_work` alone its ``run_norm_s`` rose whenever the
host sped up.  The probes use the standard library and numpy only, so no
change to arithring moves them, and they allocate under 1 MB, so they do
not move ``peak_rss_mb``.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

REF_S = 0.02  # nominal probe time: the unit of run_norm_s is REF_S / probe time
_MODULUS = (1 << 127) - 1


def python_work() -> None:
    s = Fraction(0)
    for i in range(1, 3000):
        s += Fraction(1, i % 97 + 1)
    x = 0
    for i in range(60_000):
        x += i * i % 7
    y = (1 << 40) + 12345
    for _ in range(10_000):
        y = y * y % _MODULUS
    for _ in range(8):
        d = {}
        for i in range(0, 4000 * 7, 7):
            d[i] = i


def mixed_work() -> None:
    # imported here, not at the top: numpy's import belongs to setup_s
    import numpy as np

    python_work()
    row = np.arange(1, 241, dtype=np.int64) * 2310
    for _ in range(8):
        np.gcd.outer(row, row)


def timed(work) -> float:
    start = perf_counter()
    work()
    return perf_counter() - start
