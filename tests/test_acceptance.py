"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.  Timed
criteria use the stated wall-clock budgets.
"""

from __future__ import annotations

import random
import time

from arithring import (
    Domain,
    FactorizationClaim,
    Verdict,
    add,
    are_associates,
    build,
    certify,
    chain_cover,
    co_ideal,
    complements_of,
    convolve,
    divide,
    epsilon,
    identity_suite,
    inverse,
    is_boolean,
    is_distributive,
    kernels,
    make,
    nu,
    rank,
    restrict,
    scale,
    verify_factorization,
)
from arithring.factorization import PRIME_LEADING_MAGNITUDE, PRIME_SUPPORT
from arithring.lattice import euclid_factorization, prime_property_check

from conftest import brute_force_width, trial_division

Q, Z = Domain.Q, Domain.Z


def _report(num: int, name: str, ok: bool, note: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({note})" if note else ""
    print(f"\nACCEPTANCE {num:02d} {name}: {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed {suffix}"


def test_01_indicator_law():
    n = 200
    start = time.perf_counter()
    ok = True
    for p in range(1, n + 1):
        for q in range(1, n // p + 1):
            if convolve(nu(p, n, Q), nu(q, n, Q)) != nu(p * q, n, Q):
                ok = False
    elapsed = time.perf_counter() - start
    _report(1, "indicator law nu_p*nu_q=nu_pq, pq<=200", ok and elapsed < 1.0,
            f"{elapsed:.2f} s, budget 1 s")


def test_02_identity_suite_ten_thousand():
    start = time.perf_counter()
    report = identity_suite(10**4)
    elapsed = time.perf_counter() - start
    _report(2, "identity suite at N=10^4", report.ok and elapsed < 10.0,
            f"{elapsed:.2f} s, budget 10 s")


def test_03_inverse_correctness():
    rng = random.Random(0x1DE)
    n = 512
    ok = True
    for _ in range(100):
        vals = [rng.randint(-9, 9) for _ in range(n)]
        if vals[0] == 0:
            vals[0] = rng.choice([v for v in range(-9, 10) if v])
        f = make(vals, Q)
        if convolve(f, inverse(f)) != epsilon(n, Q):
            ok = False
    mu_by_recursion = inverse(build("one", 1000, Z))
    ok = ok and mu_by_recursion == build("mobius", 1000)
    _report(3, "100 random unit inverses, inverse(one)=mobius at 10^3", ok)


def test_04_rank_laws():
    rng = random.Random(0xAB5)
    n = 256
    ok = True
    for trial in range(200):
        domain = Q if trial % 2 else Z
        a = rng.randint(1, 16)
        b = rng.randint(1, min(16, n // a))  # keep the rank product within bound
        f = _random_with_rank(rng, a, n, domain)
        g = _random_with_rank(rng, b, n, domain)
        product = convolve(f, g)
        r = rank(product)
        if not r.visible:
            ok = False  # a zero divisor would show up exactly here
            continue
        if r.index != a * b or product[a * b] != f[a] * g[b]:
            ok = False
    _report(4, "rank(f*g)=rank(f)rank(g), leading product, no zero divisors", ok)


def _random_with_rank(rng, r, n, domain):
    vals = [0] * n
    vals[r - 1] = rng.choice([v for v in range(-9, 10) if v])
    for i in range(r, n):
        vals[i] = rng.randint(-9, 9)
    return make(vals, domain)


def test_05_lattice_thirty():
    poset = co_ideal(30)
    cover = chain_cover(poset)
    ok = (
        len(poset) == 8
        and poset.atoms == (2, 3, 5)
        and cover.width == 3
        and complements_of(2, poset) == [15]
        and complements_of(3, poset) == [10]
        and complements_of(5, poset) == [6]
        and is_boolean(poset)
    )
    _report(5, "co-ideal of 30: 8 elements, 3 chains, complements, boolean", ok)


def test_06_lattice_twelve():
    poset = co_ideal(12)
    cover = chain_cover(poset)
    pairs = {
        x: complements_of(x, poset) for x in poset.elements
    }
    ok = (
        cover.width == 2
        and pairs == {1: [12], 2: [], 3: [4], 4: [3], 6: [], 12: [1]}
        and is_distributive(poset)
        and not is_boolean(poset)
    )
    _report(6, "co-ideal of 12: 2 chains, complements {1,12},{3,4}, not boolean", ok)


def test_07_dilworth_two_ten():
    start = time.perf_counter()
    poset = co_ideal(210)
    cover = chain_cover(poset)
    brute = brute_force_width(list(poset.elements))  # all 2^16 subsets
    elapsed = time.perf_counter() - start
    ok = (
        cover.width == 6
        and len(cover.antichain) == 6
        and brute == 6
        and len(poset.atoms) == 4  # fewer atoms than chains
        and elapsed < 5.0
    )
    _report(7, "co-ideal of 210: width 6 by brute force, 4 atoms", ok,
            f"{elapsed:.2f} s, budget 5 s")


def test_08_euclid_factorizer_and_prime_property():
    ok = True
    for n in range(2, 10**5 + 1):
        if euclid_factorization(n) != trial_division(n):
            ok = False
            break
    pairs = [(a, b) for a in range(1, 201) for b in range(1, 201)]
    primes_to_fifty = [p for p in range(2, 51) if all(p % d for d in range(2, p))]
    for p in primes_to_fifty:
        if not prime_property_check(p, pairs):
            ok = False
    _report(8, "euclid factorizer to 10^5, prime property p<=50, a,b<=200", ok)


def test_09_divisibility_probes():
    f = add(nu(2, 12, Q), nu(3, 12, Q))
    result = divide(f, nu(2, 12, Q))
    ok = (
        not result.divisible
        and result.witness == 3
        and not are_associates(nu(2, 12, Q), f)
    )
    _report(9, "divide(nu_2+nu_3, nu_2) fails at 3; not associates", ok)


def test_10_integer_ring_probes():
    rng = random.Random(0x1A7)
    two_eps = scale(epsilon(16, Z), 2)
    cert = certify(two_eps)
    ok = cert.verdict is Verdict.IRREDUCIBLE and (
        cert.reason.kind,
        cert.reason.value,
    ) == (PRIME_LEADING_MAGNITUDE, 2)
    four_eps = scale(epsilon(16, Z), 4)
    claim = FactorizationClaim(epsilon(16, Z), (two_eps, two_eps))
    report = verify_factorization(four_eps, claim)
    ok = ok and report.ok and report.all_factors_certified
    for _ in range(100):
        f = make([rng.randint(-9, 9) for _ in range(rng.randint(1, 24))], Z)
        g = make([rng.randint(-9, 9) for _ in range(rng.randint(1, 24))], Z)
        product = convolve(f, g)
        if abs(product[1]) != abs(f[1]) * abs(g[1]):
            ok = False
    _report(10, "certify(2eps), verify 4eps=(2eps)^2, |f(1)| multiplicative", ok)


def test_11_prime_support_examples():
    ok = True
    for name in ("prime_char", "pi_squared"):
        for domain in (Z, Q):
            cert = certify(build(name, 100, domain))
            if cert.verdict is not Verdict.IRREDUCIBLE:
                ok = False
            elif (cert.reason.kind, cert.reason.value) != (PRIME_SUPPORT, 2):
                ok = False
    _report(11, "prime_char and pi_squared irreducible by prime support at 2", ok)


def test_12_truncation_coherence():
    rng = random.Random(0x7C0)
    n = 64
    ok = True
    for trial in range(50):
        domain = Q if trial % 2 else Z
        f = make([rng.randint(-9, 9) for _ in range(n)], domain)
        g = make([rng.randint(-9, 9) for _ in range(n)], domain)
        product = convolve(f, g)
        for m in (1, n // 2, n):
            if restrict(product, m) != convolve(restrict(f, m), restrict(g, m)):
                ok = False
    _report(12, "restrict commutes with convolve at M in {1, N/2, N}", ok)


def test_13_dense_convolution_performance():
    rng = random.Random(0xF457)
    n = 10**6
    f = make([rng.randint(0, 9) for _ in range(n)], Z)
    g = make([rng.randint(0, 9) for _ in range(n)], Z)
    start = time.perf_counter()
    product = convolve(f, g)
    elapsed = time.perf_counter() - start
    spot_ok = product[1] == f[1] * g[1] and product[6] == (
        f[1] * g[6] + f[2] * g[3] + f[3] * g[2] + f[6] * g[1]
    )
    _report(13, f"dense Z convolution at N=10^6 ({kernels.active_backend()} backend)",
            spot_ok and elapsed < 5.0, f"{elapsed:.2f} s, budget 5 s")
