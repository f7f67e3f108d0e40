#!/usr/bin/env python3
"""Benchmark the int64 numpy kernels against the exact big-int route.

Times Dirichlet convolution with the hyperbola-split numpy kernel and with
the exact pure-Python divisor-pair loop (``ring._convolve_exact``) on
the same values, plus the multiplicative sieves.  The exact loop is timed only
up to ``MAX_EXACT``.  Two ``Q`` rows time ``ring.convolve`` over rationals
against the ``Fraction`` loop at N = 10^4 and assert that both give the same
values: random values with denominators 1..6 (L = 60, so F / L runs through
the ``Z`` route), and f(n) = 1/n, whose L = lcm(1..N) is too wide to scale
by, so ``ring.convolve`` keeps the ``Fraction`` loop.  Usage:

    python3 benchmarks/bench_convolve.py [--max-n 1000000] [--repeats 3]
"""

from __future__ import annotations

import argparse
import time
from fractions import Fraction

import numpy as np

from arithring import kernels, ring

MAX_EXACT = 10**5
Q_N = 10**4


def best_of(repeats, fn, *args):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - start)
    return best


def random_dense(n, rng):
    arr = np.zeros(n + 1, np.int64)
    arr[1:] = rng.integers(0, 10, size=n)
    return arr


def bench_convolution(sizes, repeats):
    rng = np.random.default_rng(0xBE9C)
    print(f"{'convolve n':>12} {'numpy':>12} {'exact':>12} {'speedup':>9}")
    for n in sizes:
        a = random_dense(n, rng)
        b = random_dense(n, rng)
        fast = best_of(repeats, kernels.convolve_i64, a, b)
        line = f"{n:>12,} {fast * 1e3:>10.1f}ms"
        if n <= MAX_EXACT:
            la, lb = a[1:].tolist(), b[1:].tolist()
            exact = best_of(repeats, ring._convolve_exact, la, lb, n, 0)
            line += f" {exact * 1e3:>10.1f}ms {exact / fast:>8.1f}x"
        print(line)


def random_rationals(n, rng):
    nums = rng.integers(-9, 10, size=n).tolist()
    dens = rng.integers(1, 7, size=n).tolist()
    return ring.make([Fraction(p, q) for p, q in zip(nums, dens)], ring.Domain.Q)


def bench_q(n, repeats):
    rng = np.random.default_rng(0xF4AC)
    harmonic = ring.make([Fraction(1, k) for k in range(1, n + 1)], ring.Domain.Q)
    inputs = [
        ("dens 1..6", random_rationals(n, rng), random_rationals(n, rng)),
        ("1/n", harmonic, harmonic),
    ]
    print(f"\n{'Q convolve ' + format(n, ','):>16} {'convolve':>12} {'Fraction':>12} {'speedup':>9}")
    for name, f, g in inputs:
        loop_args = (f.values, g.values, n, Fraction(0))
        assert ring.convolve(f, g).values == ring._convolve_exact(*loop_args)
        got = best_of(repeats, ring.convolve, f, g)
        loop = best_of(repeats, ring._convolve_exact, *loop_args)
        print(f"{name:>16} {got * 1e3:>10.1f}ms {loop * 1e3:>10.1f}ms {loop / got:>8.1f}x")


def bench_sieves(n, repeats):
    jobs = [
        ("primes_mask", kernels.primes_mask, (n,)),
        ("mobius", kernels.mobius_i64, (n,)),
        ("euler_phi", kernels.phi_i64, (n,)),
        ("tau", kernels.tau_i64, (n,)),
        ("sigma_1", kernels.sigma_i64, (n, 1)),
        ("liouville", kernels.liouville_i64, (n,)),
    ]
    print(f"\n{'sieve at ' + format(n, ','):>12} {'numpy':>12}")
    for name, fn, args in jobs:
        print(f"{name:>12} {best_of(repeats, fn, *args) * 1e3:>10.1f}ms")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=10**6)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()

    sizes = [n for n in (10**4, 10**5, 10**6) if n <= args.max_n]
    bench_convolution(sizes, args.repeats)
    bench_q(Q_N, args.repeats)
    bench_sieves(min(10**6, args.max_n), args.repeats)


if __name__ == "__main__":
    main()
