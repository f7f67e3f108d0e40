"""Small integer helpers: primality, trial-division factoring, divisor lists."""

from __future__ import annotations

import itertools
import math

from . import kernels

# Witnesses proving primality for every n < _MR_PROOF_LIMIT (Sorenson &
# Webster 2015, OEIS A014233): the limit is psi_12, the least strong
# pseudoprime to all twelve bases, and from it on the test is
# strong-probable-prime only.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_PROOF_LIMIT = 318_665_857_834_031_151_167_461

_prime_cache: list[int] = []
_prime_cache_limit = 0


def _primes_upto(limit: int) -> list[int]:
    global _prime_cache, _prime_cache_limit
    if limit > _prime_cache_limit:
        new_limit = max(limit, 2 * _prime_cache_limit, 1 << 10)
        mask = kernels.primes_mask(new_limit)
        _prime_cache = [int(p) for p in mask.nonzero()[0]]
        _prime_cache_limit = new_limit
    return _prime_cache


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def smallest_prime_factor(n: int) -> int:
    """Least divisor of n greater than 1 (n itself when n is irreducible).

    The cached primes are tried first, then a primality proof (below
    _MR_PROOF_LIMIT); the sieve grows to sqrt(n) only when neither settles
    n, so neither 2^100 nor a proven prime needs a sieve to sqrt(n).
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    root = math.isqrt(n)
    cached = _primes_upto(1)  # the cache as it stands, at least the primes to 2^10
    for p in cached:
        if p > root:
            return n
        if n % p == 0:
            return p
    if n < _MR_PROOF_LIMIT and is_prime(n):
        return n
    for p in itertools.islice(_primes_upto(root), len(cached), None):
        if p > root:
            break
        if n % p == 0:
            return p
    return n


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization [(p, e), ...] with p ascending, by trial division."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    out: list[tuple[int, int]] = []
    while n > 1:
        p = smallest_prime_factor(n)
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        out.append((p, e))
    return out


def divisors(n: int) -> list[int]:
    """All divisors of n, ascending."""
    divs = [1]
    for p, e in factorize(n):
        divs = [d * q for d in divs for q in _powers(p, e)]
    return sorted(divs)


def _powers(p: int, e: int) -> list[int]:
    out = [1]
    for _ in range(e):
        out.append(out[-1] * p)
    return out
