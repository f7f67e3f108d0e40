"""Integer helper sanity against brute-force oracles."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from arithring import kernels, numutil

from conftest import naive_divisor_list, naive_is_prime, trial_division


def test_is_prime_matches_naive():
    for n in range(0, 2000):
        assert numutil.is_prime(n) == naive_is_prime(n), n


def test_small_primes_match_the_kernel_sieve():
    expected = tuple(kernels.primes_mask(1 << 10).nonzero()[0].tolist())
    assert numutil._SMALL_PRIMES == expected and len(expected) == 172


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


def test_prime_factors_needs_a_positive_n():
    assert numutil.prime_factors(1) == []
    for n in (0, -12):
        with pytest.raises(ValueError, match=f"n must be >= 1, got {n}"):
            numutil.prime_factors(n)


def test_smallest_prime_factor_of_a_prime_builds_no_sieve(no_large_sieve):
    p = 70368744177643  # the largest prime below 2^46
    assert numutil.smallest_prime_factor(p) == p


PSI12 = 318665857834031151167461  # 399165290221 * 798330580441
PSI13 = 3317044064679887385961981  # 1287836182261 * 2575672364521


def test_smallest_prime_factor_trusts_is_prime_only_below_its_proof_bound(no_large_sieve):
    # psi_12 is the least strong pseudoprime to all twelve bases and psi_13
    # the least one to those and 41: is_prime wrongly accepts both, so they
    # are refused, by a message that names the proof bound
    assert numutil.MR_PROOF_LIMIT == PSI12
    p = 318665857834031151167441  # the largest prime below psi12
    assert numutil.smallest_prime_factor(p) == p
    assert numutil.prime_factors(p) == [p]
    for n in (PSI12, PSI13):
        assert numutil.is_prime(n)
        for factor in (numutil.smallest_prime_factor, numutil.factorize):
            with pytest.raises(ValueError, match=str(PSI12)):
                factor(n)


def test_a_small_factor_is_found_before_an_unprovable_cofactor(no_large_sieve):
    assert numutil.smallest_prime_factor(2 * PSI12) == 2
    with pytest.raises(ValueError, match=str(PSI12)):
        numutil.prime_factors(2 * PSI12)


@given(st.integers(1, 10**12 - 1))
def test_prime_factors_match_trial_division(n):
    expected = trial_division(n) if n > 1 else []
    assert numutil.prime_factors(n) == expected
    assert numutil.factorize(n) == [(p, expected.count(p)) for p in sorted(set(expected))]


@pytest.mark.parametrize("p", [1031, 1217, 1249, 1277, 65537, 10**6 + 3])
@pytest.mark.parametrize("k", [2, 3])
def test_powers_of_primes_above_the_small_primes(p, k):
    assert numutil.prime_factors(p**k) == trial_division(p**k) == [p] * k


# Chernick's (6k + 1)(12k + 1)(18k + 1) with all three factors prime
CARMICHAEL = (
    (1171, 2341, 3511),
    (1237, 2473, 3709),
    (1531, 3061, 4591),
    (601747, 1203493, 1805239),
)


@pytest.mark.parametrize("factors", CARMICHAEL)
def test_carmichael_numbers_with_large_factors(factors):
    n = math.prod(factors)
    assert all((n - 1) % (p - 1) == 0 for p in factors)  # Korselt's criterion
    assert not numutil.is_prime(n)
    assert numutil.prime_factors(n) == trial_division(n) == list(factors)


def test_balanced_semiprimes():
    n = 999983 * 1000003  # near 10^12
    assert numutil.prime_factors(n) == trial_division(n) == [999983, 1000003]
    # near 10^16 trial division is too slow to serve as the oracle; both
    # factors are proven prime below psi_12
    p, q = 10**8 + 7, 10**8 + 37
    assert numutil.is_prime(p) and numutil.is_prime(q)
    assert numutil.prime_factors(p * q) == [p, q]


def test_rho_restarts_when_its_first_sequence_meets_every_cycle_at_once():
    # y -> y^2 + 1 from 2 reaches its cycles modulo 1031 and 1223 in the
    # same step, so that sequence yields n itself and c = 2 has to run
    n = 1031 * 1223
    assert numutil._rho(n, 1, numutil._RHO_MAX_STEPS)[0] == n
    assert numutil.prime_factors(n) == trial_division(n) == [1031, 1223]
    assert numutil.prime_factors(1217**2) == [1217, 1217]
    assert numutil._rho(1217**2, 1, numutil._RHO_MAX_STEPS)[0] == 1217**2


def test_rho_steps_are_capped_per_part_summed_over_restarts(monkeypatch):
    # 1031 * 1223 takes 62 steps with c = 1, which end at n itself, and 30
    # with c = 2: each run fits in 91 steps, their sum does not
    n = 1031 * 1223
    assert numutil._rho(n, 1, 91) == (n, 91 - 62)
    assert numutil._rho(n, 2, 91) == (1223, 91 - 30)
    monkeypatch.setattr(numutil, "_RHO_MAX_STEPS", 92)
    assert numutil.prime_factors(n) == [1031, 1223]
    monkeypatch.setattr(numutil, "_RHO_MAX_STEPS", 91)
    with pytest.raises(ValueError, match=f"cannot split {n}: .* within 91 steps"):
        numutil.prime_factors(n)
    assert numutil.smallest_prime_factor(2 * n) == 2  # small primes come first


def test_factorize_and_divisors():
    assert numutil.factorize(360) == [(2, 3), (3, 2), (5, 1)]
    assert numutil.factorize(1) == []
    assert numutil.divisors(12) == [1, 2, 3, 4, 6, 12]
    assert numutil.divisors(1) == [1]
    for n in range(1, 400):
        assert numutil.divisors(n) == naive_divisor_list(n)
        flat = [p for p, e in numutil.factorize(n) for _ in range(e)]
        assert flat == trial_division(n) if n > 1 else flat == []
