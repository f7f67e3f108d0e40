"""Low-level kernels: Dirichlet convolution and multiplicative sieves.

The kernels are vectorised numpy over int32 or int64 or, with
``dtype=object``, over exact Python ints or ``Fraction``s; a convolution
runs in its operands' common dtype.  Convolution uses Dirichlet's
hyperbola split, about 2*sqrt(n) strided passes, and is the package's
one convolution: ``ring`` runs it on int64 operands that pass
:func:`convolution_fits_i64`, on int32 ones that pass it at 2**30 and on
``object`` operands, and :mod:`arithring.crt` once per prime p on
residues (max_a = max_b = p - 1 pass the gate).
The multiplicative sieve makes one strided pass per prime up to sqrt(n).
Primality masks are bool and the sieve's cofactors the narrowest signed
type that holds n, on every route, since they hold no function values.

All arrays here are 1-indexed: length ``n + 1`` with slot 0 unused (zero).
Over int32 or int64 a kernel is exact only behind a gate that bounds
every intermediate (see :func:`convolution_fits_i64`).
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


# 2**62 leaves one spare bit below int64, and 2**30 below int32; convolution
# partial sums of k terms bounded by max|a| * max|b| * k never wrap in that
# width if the full bound clears its limit.
I64_SAFE = 1 << 62
I32_SAFE = 1 << 30


def convolution_fits_i64(max_a: int, max_b: int, n: int, safe: int = I64_SAFE) -> bool:
    """A-priori overflow gate for convolve_i64 on operands of one integer width.

    Each output is a sum of at most tau(m) <= 2*sqrt(n) terms, each bounded
    by max|a| * max|b|, so the whole computation stays inside int64 whenever
    max_a * max_b * 2 * isqrt(n) < I64_SAFE = 2**62, and inside int32
    whenever it is below I32_SAFE = 2**30; `safe` is the limit tested.
    Exact integer arithmetic, no estimates.
    """
    return max_a * max_b * 2 * math.isqrt(n) < safe


def convolve_i64(a: np.ndarray, b: np.ndarray, lo: int = 0) -> np.ndarray:
    """(a * b)(k) = sum over divisor pairs d*m = k of a[d] b[m], lo < k <= n.

    n = len(b) - 1; `a` may be shorter, and is zero past its end.
    Dirichlet's hyperbola split at s = isqrt(n): rows d <= s add a[d] * b
    along out[d::d] from the first multiple of d above lo; the pairs with
    d > s have m <= n // (s + 1), and each such column m adds b[m] * a[j]
    along out[j*m::m] from j = max(s + 1, lo // m + 1) to a's end.  Every
    pair is visited once, in about 2*sqrt(n) vectorised passes, and a zero
    a[d] or b[m] skips its pass; past a's end there are no columns.  The
    output has the operands' common dtype: int32 or int64, where the gate
    at that width bounds every partial sum, or ``object`` when either
    operand is; slots 0..lo are 0.  The name predates int32 and ``object``
    operands; perfbench's tracer and the benchmark's per-layer metrics know
    the kernel by it.
    """
    n, na = b.shape[0] - 1, a.shape[0] - 1
    s = math.isqrt(n)
    dtype = object if object in (a.dtype, b.dtype) else np.result_type(a, b)
    a, b = a.astype(dtype, copy=False), b.astype(dtype, copy=False)
    out = np.zeros(n + 1, dtype)
    for d, ad in enumerate(a[1 : s + 1].tolist(), 1):
        if ad:
            first = lo // d + 1
            out[first * d :: d] += ad * b[first : n // d + 1]
    if na <= s:  # a is zero from s + 1 on: no column has a pair
        return out
    for m, bm in enumerate(b[1 : n // (s + 1) + 1].tolist(), 1):
        if bm:
            first = max(s + 1, lo // m + 1)
            out[first * m : na * m + 1 : m] += bm * a[first : n // m + 1]
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
    of the cofactor rem[m].  Then rem[m] is 1 or that large prime, and one
    vectorised rule(rem, 1) finishes.  rem is held in the narrowest signed
    type that holds -n - 1, and so n: the strided passes are memory-bound,
    and at n = 30 000 an int16 cofactor moves a quarter of int64's bytes.
    """
    out = np.ones(n + 1, dtype)
    out[0] = 0
    rem = np.arange(n + 1, dtype=np.min_scalar_type(-n - 1))
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
