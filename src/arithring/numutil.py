"""Small integer helpers: primality, factoring by Euclid's chain, divisor lists.

Factoring follows Euclid's argument that any proper divisor of a composite
n starts a descending chain of proper divisors ending at an irreducible,
so any method that finds *a* proper divisor can drive it.  The primes
below 2^10 are divided out first.  Each remaining part is then either
proven prime by the 12-base Miller-Rabin test (a proof below psi_12) or
split by Pollard-Brent rho (Brent, BIT 20, 1980), in about part^(1/4)
steps, and both pieces recurse.  A part at or above psi_12 that the test
calls prime cannot be proven prime, so it is refused with ValueError, and
so is a part that rho cannot split within _RHO_MAX_STEPS steps.

This module uses the standard library alone, the small primes included
(a bytearray sieve), so :mod:`arithring.lattice` and the CLI's ``euclid``
and ``prime-check`` run without loading numpy.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Iterator, Optional

# Witnesses proving primality for every n < MR_PROOF_LIMIT (Sorenson &
# Webster 2015, OEIS A014233): the limit is psi_12, the least strong
# pseudoprime to all twelve bases, and from it on the test is
# strong-probable-prime only.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
MR_PROOF_LIMIT = 318_665_857_834_031_151_167_461


def _primes_below(n: int) -> tuple[int, ...]:
    """The primes below n, by the sieve of Eratosthenes."""
    composite = bytearray(n)
    for p in range(2, math.isqrt(n - 1) + 1):
        if not composite[p]:
            composite[p * p :: p] = b"\1" * len(range(p * p, n, p))
    return tuple(p for p in range(2, n) if not composite[p])


_SMALL_PRIMES = _primes_below(1 << 10)

# rho steps between gcds: one gcd per batch of products |x - y| mod n
_RHO_BATCH = 128

# rho steps allowed for one part, summed over its restarts.  A step costs
# about 0.55 us on a 2-vCPU x86 host, so a refusal arrives within about 5 s;
# a balanced 80-bit semiprime takes about 9 * 10^5 steps.
_RHO_MAX_STEPS = 1 << 23


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


def _rho(n: int, c: int, budget: int) -> tuple[Optional[int], int]:
    """A divisor g > 1 of odd composite n from the sequence y -> y^2 + c
    mod n started at 2 (Brent's cycle search), and the steps left of
    `budget`.  g == n when the sequence meets its cycle modulo every prime
    of n at once, and g is None when the next round of r + r steps would
    pass the budget."""
    y, r, q, g = 2, 1, 1, 1
    while g == 1:
        if 2 * r > budget:
            return None, budget
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and g == 1:
            ys = y
            for _ in range(min(_RHO_BATCH, r - k)):
                y = (y * y + c) % n
                q = q * abs(x - y) % n
            g = math.gcd(q, n)
            k += _RHO_BATCH
        budget -= r + min(k, r)
        r *= 2
    if g == n:  # the batch overshot: step through it one gcd at a time
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            g = math.gcd(abs(x - ys), n)
    return g, budget


def _prime_factors(n: int) -> Iterator[int]:
    """The prime factors of n >= 1, ascending with multiplicity.

    Lazy: the primes below 2^10 come out before any larger part is tested,
    so a small factor is found even when the cofactor would be refused.
    """
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            yield p
            n //= p
    # every prime left in n exceeds every prime yielded so far
    parts, large = [n] if n > 1 else [], []
    while parts:
        m = parts.pop()
        if is_prime(m):
            if m >= MR_PROOF_LIMIT:
                raise ValueError(
                    f"cannot prove {m} prime: the 12-base Miller-Rabin test "
                    f"is a proof only below {MR_PROOF_LIMIT}"
                )
            large.append(m)
        else:
            g, budget, c = m, _RHO_MAX_STEPS, 0
            while g == m:
                c += 1
                g, budget = _rho(m, c, budget)
            if g is None:
                raise ValueError(
                    f"cannot split {m}: Pollard-Brent rho found no divisor "
                    f"within {_RHO_MAX_STEPS} steps"
                )
            parts += (g, m // g)
    yield from sorted(large)


def prime_factors(n: int) -> list[int]:
    """Ascending prime multiset of n >= 1 (empty for 1)."""
    n = operator.index(n)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return list(_prime_factors(n))


def smallest_prime_factor(n: int) -> int:
    """Least divisor of n greater than 1 (n itself when n is irreducible)."""
    n = operator.index(n)
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    return next(_prime_factors(n))


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization [(p, e), ...] with p ascending."""
    return [(p, len(list(run))) for p, run in itertools.groupby(prime_factors(n))]


def divisors(n: int) -> list[int]:
    """All divisors of n, ascending."""
    return divisors_of(factorize(n))


def divisors_of(factorization: list[tuple[int, int]]) -> list[int]:
    """All divisors of p_1^e_1 ... p_k^e_k, given as [(p, e), ...], ascending.

    Each prime appends the runs D*p, ..., D*p^e to the ascending list D of
    the divisors found so far.  Every run is ascending, so the one sort
    that follows is a Timsort merge of e + 1 runs, and the list is
    ascending again before the next prime.
    """
    divs = [1]
    for p, e in factorization:
        run = divs
        for _ in range(e):
            run = [d * p for d in run]
            divs += run
        divs.sort()
    return divs
