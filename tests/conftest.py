"""Shared oracles and hypothesis strategies.

The oracles here are deliberately independent of the library's fast paths:
convolution by per-index trial division, classical functions by per-index
factorization/counting or a per-multiple valuation loop, antichains by
testing every pair, poset width by exhaustive antichain enumeration or
by bipartite matching, lattice verdicts by checking every pair or triple.
Expected values frozen into tests were computed with these.
"""

from __future__ import annotations

import math
import random
from collections import deque
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from arithring import ArithFunc, Domain, make

# example timings swing on shared machines; a per-example deadline is flaky
settings.register_profile("arithring", deadline=None)
settings.load_profile("arithring")


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------


def naive_convolve(f: ArithFunc, g: ArithFunc) -> ArithFunc:
    """Trial-division convolution oracle: scan every d <= n for d | n."""
    assert f.domain is g.domain
    n = min(f.bound, g.bound)
    zero = Fraction(0) if f.domain is Domain.Q else 0
    out = []
    for m in range(1, n + 1):
        acc = zero
        for d in range(1, m + 1):
            if m % d == 0:
                acc += f[d] * g[m // d]
        out.append(acc)
    return make(out, f.domain)


def naive_divisor_list(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def trial_division(n: int) -> list[int]:
    """Ascending prime multiset by classic 2,3,5,... trial division."""
    out = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def naive_is_prime(n: int) -> bool:
    return n >= 2 and len(naive_divisor_list(n)) == 2


def naive_mobius(n: int) -> int:
    factors = trial_division(n) if n > 1 else []
    if len(set(factors)) != len(factors):
        return 0
    return (-1) ** len(factors)


def naive_phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def naive_tau(n: int) -> int:
    return len(naive_divisor_list(n))


def naive_sigma(n: int, k: int) -> int:
    return sum(d**k for d in naive_divisor_list(n))


def naive_liouville(n: int) -> int:
    return (-1) ** len(trial_division(n)) if n > 1 else 1


def exact_multiplicative(n: int, prime_power_value) -> ArithFunc:
    """f(m) = prod f(p^e) by a per-multiple valuation loop: every multiple
    m of each prime p finds the exponent of p by repeated division."""
    out = [1] * (n + 1)
    composite = [False] * (n + 1)
    for p in range(2, n + 1):
        if composite[p]:
            continue
        for m in range(p, n + 1, p):
            composite[m] = True
            mm, e = m // p, 1
            while mm % p == 0:
                mm //= p
                e += 1
            out[m] *= prime_power_value(p, e)
    return make(out[1:], Domain.Z)


def pairwise_antichain(members) -> bool:
    """No member divides another, tested over every pair (duplicates fail)."""
    return not any(
        x % y == 0 or y % x == 0 for i, x in enumerate(members) for y in members[i + 1 :]
    )


def brute_force_width(elements: list[int]) -> int:
    """Maximum antichain size by enumerating all subsets (|elements| <= 20)."""
    n = len(elements)
    assert n <= 20
    comparable = [0] * n
    for i in range(n):
        for j in range(n):
            if i != j and (
                elements[j] % elements[i] == 0 or elements[i] % elements[j] == 0
            ):
                comparable[i] |= 1 << j
    best = 0
    for subset in range(1 << n):
        size = subset.bit_count()
        if size <= best:
            continue
        ok = True
        for i in range(n):
            if subset >> i & 1 and comparable[i] & subset:
                ok = False
                break
        if ok:
            best = size
    return best


def _hopcroft_karp(adj: list[list[int]], n_right: int) -> tuple[list[int], list[int]]:
    """Maximum bipartite matching; left vertices processed ascending."""
    n_left = len(adj)
    INF = n_left + n_right + 1
    match_l = [-1] * n_left
    match_r = [-1] * n_right
    dist = [0] * n_left

    def bfs() -> bool:
        queue = deque()
        for u in range(n_left):
            if match_l[u] == -1:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = INF
        found = False
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                w = match_r[v]
                if w == -1:
                    found = True
                elif dist[w] == INF:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return found

    def dfs(u: int) -> bool:
        for v in adj[u]:
            w = match_r[v]
            if w == -1 or (dist[w] == dist[u] + 1 and dfs(w)):
                match_l[u] = v
                match_r[v] = u
                return True
        dist[u] = INF
        return False

    while bfs():
        for u in range(n_left):
            if match_l[u] == -1:
                dfs(u)
    return match_l, match_r


def matching_width(elements: list[int]) -> tuple[int, tuple[int, ...]]:
    """Dilworth width as n minus a maximum matching on strict divisibility,
    with the Koenig antichain (left-reachable, right-unreached vertices)."""
    n = len(elements)
    adj = [
        [j for j in range(i + 1, n) if elements[j] % elements[i] == 0]
        for i in range(n)
    ]
    match_l, match_r = _hopcroft_karp(adj, n)
    seen_l = [False] * n
    seen_r = [False] * n
    queue = deque(u for u in range(n) if match_l[u] == -1)
    for u in queue:
        seen_l[u] = True
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if match_l[u] != v and not seen_r[v]:
                seen_r[v] = True
                w = match_r[v]
                if w != -1 and not seen_l[w]:
                    seen_l[w] = True
                    queue.append(w)
    antichain = tuple(elements[i] for i in range(n) if seen_l[i] and not seen_r[i])
    matched = sum(1 for v in match_l if v != -1)
    return n - matched, antichain


def brute_distributive(elements: list[int]) -> bool:
    """x v (y ^ z) = (x v y) ^ (x v z) over every triple, cross-checked with
    cancellation (x ^ y = x ^ z and x v y = x v z imply y = z)."""
    e = np.asarray(elements, np.int64)  # gcds and lcms are divisors too
    g, l = np.gcd.outer(e, e), np.lcm.outer(e, e)
    pos_of_gcd = np.searchsorted(e, g)  # gcd of divisors is a divisor
    n = len(e)
    identity = all(
        np.array_equal(l[i][pos_of_gcd], np.gcd.outer(l[i], l[i])) for i in range(n)
    )
    eye = np.eye(n, dtype=bool)
    cancellation = not any(
        ((np.equal.outer(g[i], g[i]) & np.equal.outer(l[i], l[i])) & ~eye).any()
        for i in range(n)
    )
    assert identity == cancellation, (identity, cancellation)
    return identity


def brute_complements(x: int, elements: list[int]) -> list[int]:
    """Every y with gcd(x, y) = 1 and lcm(x, y) = the largest element."""
    top = elements[-1]
    return [y for y in elements if math.gcd(x, y) == 1 and math.lcm(x, y) == top]


# ---------------------------------------------------------------------------
# hypothesis strategies
# ---------------------------------------------------------------------------


def coefficients(domain: Domain, max_abs: int = 9):
    ints = st.integers(-max_abs, max_abs)
    if domain is Domain.Z:
        return ints
    return st.fractions(
        min_value=-max_abs, max_value=max_abs, max_denominator=6
    )


@st.composite
def arith_funcs(
    draw,
    domain: Domain,
    min_bound: int = 1,
    max_bound: int = 32,
    max_abs: int = 9,
    unit: bool = False,
):
    values = draw(
        st.lists(coefficients(domain, max_abs), min_size=min_bound, max_size=max_bound)
    )
    if unit:
        if domain is Domain.Z:
            lead = draw(st.sampled_from((1, -1)))
        else:
            lead = draw(coefficients(domain, max_abs).filter(lambda v: v != 0))
        values = [lead] + values[1:]
    return make(values, domain)


def units(domain: Domain, min_bound: int = 1, max_bound: int = 32, max_abs: int = 9):
    return arith_funcs(domain, min_bound, max_bound, max_abs, unit=True)


@pytest.fixture
def rng():
    return random.Random(0xA51C)
