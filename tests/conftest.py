"""Shared oracles and hypothesis strategies.

The oracles here are deliberately independent of the library's fast paths:
convolution by per-index trial division or by the divisor-pair loop,
classical functions by per-index factorization/counting or a per-multiple
valuation loop, antichains by testing every pair, poset width by
exhaustive antichain enumeration or by bipartite matching, Hasse diagrams
and lattice verdicts by checking every pair or triple, the prime property
by scanning every pair, function output by one f-string per value.  The
cover oracle checks a chain partition and its antichain certificate, and
the reference chain cover builds the same chains one element at a time.
Expected values frozen into tests were computed with these.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from collections import deque
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from arithring import ArithFunc, Domain, kernels, make

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


def exact_convolution(a, b, n: int, zero, lo: int = 0) -> tuple:
    """(a * b)(lo+1..n) of the value lists a and b by the divisor-pair loop:
    each nonzero a(d) times b(j) lands at d * j."""
    out = [zero] * (n - lo)
    for d in range(1, n + 1):
        if a[d - 1]:
            for j in range(lo // d + 1, n // d + 1):
                out[d * j - lo - 1] += a[d - 1] * b[j - 1]
    return tuple(out)


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


def pair_scan(p: int, pairs) -> bool:
    """p | ab implies p | a or p | b, checked on every given pair."""
    return not any((a * b) % p == 0 and a % p != 0 and b % p != 0 for a, b in pairs)


def pairs_upto(m: int):
    """Every pair (a, b) with 1 <= a, b <= m."""
    return itertools.product(range(1, m + 1), repeat=2)


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


def sigma_prime_power(k: int):
    """sigma_k(p^e) by the geometric sum's closed form; tau(p^e) = e + 1 at k = 0."""
    return lambda p, e: (p ** (k * (e + 1)) - 1) // (p**k - 1) if k else e + 1


# f(p^e) of each built-in multiplicative function, for exact_multiplicative
PRIME_POWER_VALUES = {
    "mobius": lambda p, e: -1 if e == 1 else 0,
    "euler_phi": lambda p, e: p**e - p ** (e - 1),
    "tau": sigma_prime_power(0),
    "liouville_lambda": lambda p, e: (-1) ** e,
}


def object_sieve(name: str, n: int) -> ArithFunc:
    """The built-in multiplicative `name` (sigma_<k> included) by the
    library's sieve over Python ints, past every int64 gate."""
    head, _, k = name.partition("_")
    rule = kernels.sigma_rule(int(k)) if head == "sigma" else kernels.RULES[name][1]
    return ArithFunc(Domain.Z, kernels._multiplicative(n, rule, object), 1)


def oracle_strings(f: ArithFunc) -> list[str]:
    """Every value as the function files write it, read from f.values:
    str of an int or a Fraction is "p", or "p/q" in lowest terms."""
    return [str(v) for v in f.values]


def oracle_text(f: ArithFunc) -> str:
    """The CLI's text output as one f-string per line."""
    return "".join(f"{i} {v}\n" for i, v in enumerate(oracle_strings(f), 1))


def oracle_csv(f: ArithFunc) -> str:
    lines = [f"{i},{v}" for i, v in enumerate(oracle_strings(f), 1)]
    return "\n".join(lines) + "\n"


def oracle_json(f: ArithFunc) -> str:
    obj = {"domain": f.domain.value, "bound": f.bound, "values": oracle_strings(f)}
    return json.dumps(obj, separators=(",", ":"))


def pairwise_antichain(members) -> bool:
    """No member divides another, tested over every pair (duplicates fail)."""
    return not any(
        x % y == 0 or y % x == 0 for i, x in enumerate(members) for y in members[i + 1 :]
    )


def big_omega(x: int, primes) -> int:
    """Prime factors of x counted with multiplicity, x built from `primes`."""
    count = 0
    for p in primes:
        while x % p == 0:
            x //= p
            count += 1
    return count


def validate_cover(poset, chains, antichain) -> None:
    """Cover oracle: the chains partition the poset into proper divisor
    steps, and the antichain is as large, with distinct divisors of one rank.

    The lattice is graded by Omega, so distinct divisors of equal Omega are
    pairwise incomparable: an O(w) test in place of O(w^2) pairs.
    """
    covered = [x for chain in chains for x in chain]
    if sorted(covered) != list(poset.elements):
        raise AssertionError("chains do not partition the divisor poset")
    for chain in chains:
        for x, y in zip(chain, chain[1:]):
            if y % x != 0 or x == y:
                raise AssertionError(f"chain link {x} -> {y} is not a proper divisor step")
    if len(set(antichain)) != len(antichain):
        raise AssertionError("antichain certificate repeats a member")
    if any(poset.root % x for x in antichain):
        raise AssertionError(f"antichain certificate holds a non-divisor of {poset.root}")
    ranks = {big_omega(x, poset.atoms) for x in antichain}
    if len(ranks) > 1:
        raise AssertionError(f"antichain certificate mixes ranks {sorted(ranks)}")
    if len(chains) != len(antichain):
        raise AssertionError(
            f"Dilworth equality failed: {len(chains)} chains vs "
            f"{len(antichain)} antichain members"
        )


def reference_chain_cover(poset) -> tuple[tuple, tuple]:
    """(chains, antichain) of the symmetric chain decomposition, every hook
    built element by element: hook j of a chain c_0 < ... < c_k is
    c_0 p^j, ..., c_{k-j} p^j, c_{k-j} p^(j+1), ..., c_{k-j} p^e.  The
    chains are sorted by first element, the antichain ascending."""
    chains = [(1,)]
    total = 0
    rest = poset.root
    for p in poset.atoms:
        e = 0
        while rest % p == 0:
            rest //= p
            e += 1
        powers = [p**i for i in range(e + 1)]
        hooks = []
        for chain in chains:
            k = len(chain) - 1
            for j in range(min(k, e) + 1):
                corner = chain[k - j]
                hooks.append(
                    tuple(c * powers[j] for c in chain[: k - j + 1])
                    + tuple(corner * q for q in powers[j + 1 :])
                )
        chains = hooks
        total += e
    chains.sort(key=lambda c: c[0])
    # a chain of k + 1 elements starts at rank (total - k) / 2
    antichain = tuple(
        sorted(c[total // 2 - (total - len(c) + 1) // 2] for c in chains)
    )
    return tuple(chains), antichain


def covering_pairs(elements: list[int]) -> list[tuple[int, int]]:
    """The Hasse diagram of the divisors of elements[-1] (int64-sized) by
    testing every pair: each x < y with y / x prime, sorted."""
    e = np.asarray(elements, np.int64)
    primes = np.asarray(sorted(set(trial_division(elements[-1]))), np.int64)
    pairs = []
    for x in elements:
        above = e[(e > x) & (e % x == 0)]
        pairs += [(x, int(y)) for y in above[np.isin(above // x, primes)]]
    return sorted(pairs)


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


# 2**64 + 1 = 274177 * 67280421310721: a multiple of it by a nonzero value
# is past int64, and it is coprime to every denominator the tests draw
WIDE = (1 << 64) + 1


def widened(values: list) -> list:
    """values with every entry but the first multiplied by WIDE."""
    return values[:1] + [v * WIDE for v in values[1:]]


def widen(f: ArithFunc) -> ArithFunc:
    """f with f(n) multiplied by WIDE for n > 1.  f(1), the rank and L stay,
    but F holds Python ints (dtype object) wherever some f(n) != 0, n > 1."""
    return make(widened(list(f.values)), f.domain)


# The two stores a route test runs on.  "numpy" takes the operands as drawn,
# whose F fits int64 and meets the int64 kernel; "python" widens them, so F
# holds Python ints and every product and solve runs past the kernel's gate.
stores = pytest.mark.parametrize("wide", [False, True], ids=["numpy", "python"])


@pytest.fixture
def no_large_sieve(monkeypatch):
    """Fail any prime sieve past 2^10, the small primes numutil divides by.

    AssertionError, not MemoryError, so that the CLI's exit-2 handler
    cannot hide it."""
    primes_mask = kernels.primes_mask

    def guarded(n):
        if n > 1 << 10:
            raise AssertionError(f"sieve to {n}")
        return primes_mask(n)

    monkeypatch.setattr(kernels, "primes_mask", guarded)


@pytest.fixture
def kernel_inputs(monkeypatch):
    """The operands and lo of each call to the kernel."""
    calls = []
    kernel = kernels.convolve_i64

    def recording(a, b, lo=0):
        calls.append((a, b, lo))
        return kernel(a, b, lo)

    monkeypatch.setattr(kernels, "convolve_i64", recording)
    return calls


@pytest.fixture
def rng():
    return random.Random(0xA51C)
