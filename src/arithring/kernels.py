"""Low-level int64 kernels: Dirichlet convolution and multiplicative sieves.

The kernels are vectorised numpy.  Convolution uses Dirichlet's hyperbola
split, about 2*sqrt(n) strided passes; the multiplicative sieve makes one
strided pass per prime up to sqrt(n), and over ``dtype=object`` it is the
exact big-int route.  Products too wide for the gate also run on
:func:`convolve_i64`: ``ring`` reduces them modulo primes p whose residues
pass :func:`convolution_fits_i64` with max_a = max_b = p - 1, one kernel
call per prime, and rebuilds the exact values from the residues.  The
operands alone choose the route; primality masks and the sieve's
cofactors are int64 on every route, since they hold no function values.

All arrays here are 1-indexed: length ``n + 1`` with slot 0 unused (zero).
Every kernel is exact in int64; callers must gate inputs so no intermediate
can overflow (see :func:`convolution_fits_i64`).
"""

from __future__ import annotations

import math

import numpy as np

# Kept for the benchmark's provenance: perfbench/run.py records both in
# every result.  numba is not used, and the int64 route is numpy whatever
# the input.
HAVE_NUMBA = False


def active_backend() -> str:
    return "numpy"


# 2**62 leaves one spare bit below int64; convolution partial sums of k terms
# bounded by max|a| * max|b| * k never wrap if the full bound clears this.
I64_SAFE = 1 << 62


def convolution_fits_i64(max_a: int, max_b: int, n: int) -> bool:
    """A-priori overflow gate for convolve_i64.

    Each output is a sum of at most tau(m) <= 2*sqrt(n) terms, each bounded
    by max|a| * max|b|, so the whole computation stays inside int64 whenever
    max_a * max_b * 2 * isqrt(n) < 2**62.  Exact integer arithmetic, no
    estimates.
    """
    return max_a * max_b * 2 * math.isqrt(n) < I64_SAFE


def convolve_i64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(a * b)(k) = sum over divisor pairs d*m = k of a[d] b[m], k <= n.

    Dirichlet's hyperbola split at s = isqrt(n): rows d <= s add a[d] * b
    along out[d::d]; the pairs with d > s have m <= n // (s + 1), and each
    such column m adds b[m] * a[s+1 : n//m + 1] along out[(s+1)*m::m].
    Every pair is visited once, in about 2*sqrt(n) vectorised passes.  The
    gate bounds every partial sum, so the summation order cannot change a
    value.
    """
    n = a.shape[0] - 1
    s = math.isqrt(n)
    out = np.zeros(n + 1, np.int64)
    for d, ad in enumerate(a[1 : s + 1].tolist(), 1):
        if ad:
            out[d::d] += ad * b[1 : n // d + 1]
    for m, bm in enumerate(b[1 : n // (s + 1) + 1].tolist(), 1):
        if bm:
            out[(s + 1) * m :: m] += bm * a[s + 1 : n // m + 1]
    return out


def primes_mask(n: int) -> np.ndarray:
    mask = np.zeros(n + 1, np.bool_)
    if n >= 2:
        mask[2:] = True
        for p in range(2, math.isqrt(n) + 1):
            if mask[p]:
                mask[p * p :: p] = False
    return mask


def _multiplicative(n: int, rule, dtype=np.int64) -> np.ndarray:
    """f(m) = prod of rule(p, e) over the prime powers p^e exactly dividing m.

    An m <= n has at most one prime factor above isqrt(n), with exponent 1,
    so strided passes run only for p <= isqrt(n), each also dividing p^e out
    of the int64 cofactor rem[m].  Then rem[m] is 1 or that large prime, and
    one vectorised rule(rem, 1) finishes.
    """
    out = np.ones(n + 1, dtype)
    out[0] = 0
    rem = np.arange(n + 1, dtype=np.int64)
    for p in np.flatnonzero(primes_mask(math.isqrt(n))).tolist():
        # g[i] covers the multiple (i + 1) * p; ascending prime powers
        # overwrite so the surviving entry matches the exact valuation.
        g = np.empty(n // p, dtype)
        q, e = 1, 0
        while q * p <= n:
            q, e = q * p, e + 1
            g[q // p - 1 :: q // p] = rule(p, e)
            rem[q::q] //= p
        out[p::p] *= g
    big = np.flatnonzero(rem > 1)
    out[big] *= rule(rem[big].astype(dtype), 1)
    return out


def sigma_rule(k: int):
    """sigma_k(p^e) = 1 + p^k + ... + p^(ke), tau at k = 0.  It never forms
    p^(2k), so rule(rem, 1) on int64 large primes stays inside the gate."""
    return lambda p, e: sum(p ** (k * i) for i in range(e + 1))


# built-in name -> (its int64 kernel, f(p^e) for p an int or, at e = 1, an
# array of primes); the values fit int64 for any feasible sieve size
RULES = {
    "mobius": ("mobius_i64", lambda p, e: -1 if e == 1 else 0),
    "euler_phi": ("phi_i64", lambda p, e: p**e - p ** (e - 1)),
    "tau": ("tau_i64", sigma_rule(0)),
    "liouville_lambda": ("liouville_i64", lambda p, e: 1 - 2 * (e & 1)),
}


def mobius_i64(n: int) -> np.ndarray:
    return _multiplicative(n, RULES["mobius"][1])


def phi_i64(n: int) -> np.ndarray:
    return _multiplicative(n, RULES["euler_phi"][1])


def tau_i64(n: int) -> np.ndarray:
    return _multiplicative(n, RULES["tau"][1])


def liouville_i64(n: int) -> np.ndarray:
    return _multiplicative(n, RULES["liouville_lambda"][1])


def sigma_i64(n: int, k: int) -> np.ndarray:
    return _multiplicative(n, sigma_rule(k))
