"""Integer helper sanity against brute-force oracles."""

from __future__ import annotations

import math

import pytest

from arithring import numutil

from conftest import naive_divisor_list, naive_is_prime, trial_division


def test_is_prime_matches_naive():
    for n in range(0, 2000):
        assert numutil.is_prime(n) == naive_is_prime(n), n


def test_is_prime_known_large_values():
    assert numutil.is_prime((1 << 61) - 1)
    assert not numutil.is_prime((1 << 61) - 3)
    assert numutil.is_prime(2**31 - 1)
    assert not numutil.is_prime(561)  # Carmichael
    assert not numutil.is_prime(3215031751)  # strong pseudoprime to 2,3,5,7


def test_smallest_prime_factor():
    assert numutil.smallest_prime_factor(2) == 2
    assert numutil.smallest_prime_factor(91) == 7
    assert numutil.smallest_prime_factor(97) == 97
    for n in (10**6 + 3, 10**6 + 7, 2**31 - 1, 4295229443):
        assert numutil.smallest_prime_factor(n) == trial_division(n)[0]
    with pytest.raises(ValueError):
        numutil.smallest_prime_factor(1)


def test_smallest_prime_factor_of_a_prime_builds_no_sieve(monkeypatch):
    monkeypatch.setattr(numutil, "_prime_cache", [])
    monkeypatch.setattr(numutil, "_prime_cache_limit", 0)
    p = 70368744177643  # the largest prime below 2^46
    assert numutil.smallest_prime_factor(p) == p
    assert numutil._prime_cache_limit < math.isqrt(p)


def test_smallest_prime_factor_trusts_is_prime_only_below_its_proof_bound(monkeypatch):
    # psi_12 = 399165290221 * 798330580441 is the least strong pseudoprime to
    # all twelve bases and psi_13 = 1287836182261 * 2575672364521 the least
    # one to those and 41: is_prime wrongly accepts both, so they must sieve
    psi12 = 318665857834031151167461
    psi13 = 3317044064679887385961981
    assert numutil._MR_PROOF_LIMIT == psi12
    primes_upto = numutil._primes_upto

    def no_large_sieve(limit):
        if limit > 1 << 20:
            raise MemoryError(f"sieve to {limit}")
        return primes_upto(limit)

    monkeypatch.setattr(numutil, "_primes_upto", no_large_sieve)
    p = 318665857834031151167441  # the largest prime below psi12
    assert numutil.smallest_prime_factor(p) == p
    for n in (psi12, psi13):
        assert numutil.is_prime(n)
        with pytest.raises(MemoryError):
            numutil.smallest_prime_factor(n)


def test_factorize_and_divisors():
    assert numutil.factorize(360) == [(2, 3), (3, 2), (5, 1)]
    assert numutil.factorize(1) == []
    assert numutil.divisors(12) == [1, 2, 3, 4, 6, 12]
    assert numutil.divisors(1) == [1]
    for n in range(1, 400):
        assert numutil.divisors(n) == naive_divisor_list(n)
        flat = [p for p, e in numutil.factorize(n) for _ in range(e)]
        assert flat == trial_division(n) if n > 1 else flat == []
