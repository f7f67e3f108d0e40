"""Finite divisor posets: Hasse diagrams, chain covers, lattice checks.

The poset of interest is the set of all divisors of a positive integer a,
ordered by divisibility, with 1 as null element and a as universal element.
Meet and join are gcd and lcm.  A minimum chain partition together with a
maximum antichain of equal size is produced by maximum bipartite matching
on the strict-divisibility relation plus a Koenig vertex-cover extraction;
the equality of the two sizes is checked on every call.

Also here: the chain-descent integer factorizer (repeatedly split off the
smallest nontrivial divisor, which has no nontrivial proper divisor of its
own, and recurse on the cofactor) and the p | ab implies p | a or p | b
sample checker.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

from . import numutil

# Trial division keeps divisor enumeration elementary; larger roots would
# need a smarter factoring engine than this module wants to carry.
DEFAULT_ROOT_LIMIT = 10**9

# Largest root whose pairwise divisor products x * y all fit in int64.
_I64_SQRT = math.isqrt(2**63 - 1)


@dataclass(frozen=True)
class DivisorPoset:
    """All divisors of `root`, ordered by divisibility."""

    root: int
    elements: tuple[int, ...]  # ascending
    atoms: tuple[int, ...]  # prime divisors = covers of 1
    hasse_edges: tuple[tuple[int, int], ...]  # covering pairs (x, x*p)

    @cached_property
    def _position(self) -> dict[int, int]:
        return {v: i for i, v in enumerate(self.elements)}

    def __contains__(self, x: int) -> bool:
        return x in self._position

    def index(self, x: int) -> int:
        try:
            return self._position[x]
        except KeyError:
            raise ValueError(f"{x} is not a divisor of {self.root}") from None

    def __len__(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class ChainCover:
    """Minimum chain partition with a same-size antichain certificate."""

    chains: tuple[tuple[int, ...], ...]
    antichain: tuple[int, ...]

    @property
    def width(self) -> int:
        return len(self.chains)


def co_ideal(a: int, root_limit: int = DEFAULT_ROOT_LIMIT) -> DivisorPoset:
    """The divisor poset of a (every divisor, its atoms, its Hasse diagram)."""
    if a < 1:
        raise ValueError(f"need a >= 1, got {a}")
    if a > root_limit:
        raise ValueError(f"{a} exceeds the factoring limit {root_limit}")
    primes = [p for p, _ in numutil.factorize(a)]
    divs = numutil.divisors(a)
    div_set = set(divs)
    edges = []
    for x in divs:
        for p in primes:
            y = x * p
            if y <= a and y in div_set:
                edges.append((x, y))
    return DivisorPoset(a, tuple(divs), tuple(primes), tuple(sorted(edges)))


def meet(x: int, y: int, poset: DivisorPoset) -> int:
    """Greatest lower bound = gcd."""
    poset.index(x), poset.index(y)
    return math.gcd(x, y)


def join(x: int, y: int, poset: DivisorPoset) -> int:
    """Least upper bound = lcm."""
    poset.index(x), poset.index(y)
    return math.lcm(x, y)


# ---------------------------------------------------------------------------
# minimum chain partition (Dilworth) via Hopcroft-Karp + Koenig
# ---------------------------------------------------------------------------


def _hopcroft_karp(adj: Sequence[Sequence[int]], n_right: int) -> tuple[list[int], list[int]]:
    """Maximum matching; left vertices processed ascending for determinism."""
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


def chain_cover(poset: DivisorPoset) -> ChainCover:
    """Partition into the minimum number of divisibility chains.

    Strict divisibility gives a bipartite graph on two copies of the
    elements; a maximum matching of size m yields n - m chains (matched
    edges link consecutive chain members), and the Koenig minimum vertex
    cover yields an antichain of the same size.  Both halves are validated
    before returning, so every call re-certifies the width equality.
    """
    elems = poset.elements
    n = len(elems)
    adj = [
        [j for j in range(i + 1, n) if elems[j] % elems[i] == 0]
        for i in range(n)
    ]
    match_l, match_r = _hopcroft_karp(adj, n)

    # Koenig alternating reachability from unmatched left vertices.
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
    antichain = tuple(
        elems[i] for i in range(n) if seen_l[i] and not seen_r[i]
    )

    chains = []
    for i in range(n):
        if match_r[i] == -1:  # no predecessor: a chain starts here
            chain = [i]
            while match_l[chain[-1]] != -1:
                chain.append(match_l[chain[-1]])
            chains.append(tuple(elems[j] for j in chain))
    chains.sort(key=lambda c: c[0])

    _validate_cover(poset, chains, antichain)
    return ChainCover(tuple(chains), antichain)


def _validate_cover(
    poset: DivisorPoset,
    chains: Sequence[tuple[int, ...]],
    antichain: tuple[int, ...],
) -> None:
    covered = [x for chain in chains for x in chain]
    if sorted(covered) != list(poset.elements):
        raise RuntimeError("chains do not partition the divisor poset")
    for chain in chains:
        for x, y in zip(chain, chain[1:]):
            if y % x != 0 or x == y:
                raise RuntimeError(f"chain link {x} -> {y} is not a proper divisor step")
    for i, x in enumerate(antichain):
        for y in antichain[i + 1 :]:
            if x % y == 0 or y % x == 0:
                raise RuntimeError(f"antichain certificate contains comparable pair {x}, {y}")
    if len(chains) != len(antichain):
        raise RuntimeError(
            f"Dilworth equality failed: {len(chains)} chains vs "
            f"{len(antichain)} antichain members"
        )


def width(poset: DivisorPoset) -> int:
    return chain_cover(poset).width


# ---------------------------------------------------------------------------
# lattice property checks
# ---------------------------------------------------------------------------


def _tables(poset: DivisorPoset) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    e = np.asarray(poset.elements, np.int64)
    return e, np.gcd.outer(e, e), np.lcm.outer(e, e)


def complements_of(x: int, poset: DivisorPoset) -> list[int]:
    """All y with gcd(x, y) = 1 and lcm(x, y) = root."""
    poset.index(x)
    e = np.asarray(poset.elements, np.int64)
    mask = (np.gcd(e, x) == 1) & (np.lcm(e, x) == poset.root)
    return [int(v) for v in e[mask]]


def _complement_counts(poset: DivisorPoset) -> np.ndarray:
    _, g, l = _tables(poset)
    return ((g == 1) & (l == poset.root)).sum(axis=1)


def is_complemented(poset: DivisorPoset) -> bool:
    return bool((_complement_counts(poset) >= 1).all())


def is_uniquely_complemented(poset: DivisorPoset) -> bool:
    return bool((_complement_counts(poset) == 1).all())


def is_distributive(poset: DivisorPoset) -> bool:
    """Join-distributivity over all triples, cross-checked with cancellation.

    Checks x v (y ^ z) = (x v y) ^ (x v z) for every triple and the
    cancellation criterion (x ^ y = x ^ z and x v y = x v z imply y = z);
    the two characterizations must agree or the check aborts.
    """
    e, g, l = _tables(poset)
    n = len(e)
    pos_of_gcd = np.searchsorted(e, g)  # gcd of divisors is a divisor
    distributive = True
    for i in range(n):  # chunk over x to cap memory at O(n^2)
        lx = l[i]
        if not np.array_equal(lx[pos_of_gcd], np.gcd.outer(lx, lx)):
            distributive = False
            break
    cancellation = True
    eye = np.eye(n, dtype=bool)
    for i in range(n):
        same = (np.equal.outer(g[i], g[i]) & np.equal.outer(l[i], l[i])) & ~eye
        if same.any():
            cancellation = False
            break
    if distributive != cancellation:
        raise RuntimeError(
            "distributivity characterizations disagree "
            f"(identity={distributive}, cancellation={cancellation})"
        )
    return distributive


def is_boolean(poset: DivisorPoset) -> bool:
    """Distributive with unique complements (true exactly for squarefree roots)."""
    return is_distributive(poset) and is_uniquely_complemented(poset)


def gcd_lcm_identity_check(poset: DivisorPoset) -> bool:
    """gcd(x, y) * lcm(x, y) = x * y over all pairs."""
    e, g, l = _tables(poset)
    if poset.root > _I64_SQRT:
        # x * y reaches root**2, which wraps in int64: compare exact ints
        e, g, l = (t.astype(object) for t in (e, g, l))
    return bool(np.array_equal(g * l, np.outer(e, e)))


# ---------------------------------------------------------------------------
# chain-descent factorizer and the prime property
# ---------------------------------------------------------------------------


def euclid_factorization(n: int) -> list[int]:
    """Factor n >= 2 by descending chains of proper divisors.

    Each step takes the smallest nontrivial divisor -- the terminal point of
    a strictly descending divisor chain, hence itself irreducible (it has
    no nontrivial proper divisor) -- divides it out, and recurses on the
    cofactor.  Returns the ascending multiset of irreducible factors.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    factors = []
    while n > 1:
        d = numutil.smallest_prime_factor(n)
        factors.append(d)
        n //= d
    return factors


def prime_property_check(p: int, pairs: Iterable[tuple[int, int]]) -> bool:
    """For every pair (a, b) with p | ab, confirm p | a or p | b."""
    if p < 2:
        raise ValueError(f"need p >= 2, got {p}")
    for a, b in pairs:
        if (a * b) % p == 0 and a % p != 0 and b % p != 0:
            return False
    return True


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def lattice_report(a: int, root_limit: int = DEFAULT_ROOT_LIMIT) -> dict:
    poset = co_ideal(a, root_limit)
    cover = chain_cover(poset)
    return {
        "a": a,
        "elements": list(poset.elements),
        "atoms": list(poset.atoms),
        "width": cover.width,
        "chains": [list(c) for c in cover.chains],
        "boolean": is_boolean(poset),
        "distributive": is_distributive(poset),
        "complemented": is_complemented(poset),
    }


_DOT_COLORS = (
    "steelblue",
    "firebrick",
    "forestgreen",
    "darkorange",
    "purple",
    "saddlebrown",
    "deeppink",
    "gray40",
)


def to_dot(poset: DivisorPoset, chains: Optional[Sequence[Sequence[int]]] = None) -> str:
    """Hasse diagram in DOT, optionally coloring nodes by chain membership."""
    color = {}
    if chains:
        for i, chain in enumerate(chains):
            for x in chain:
                color[x] = _DOT_COLORS[i % len(_DOT_COLORS)]
    lines = [f"digraph divisors_of_{poset.root} {{", "  rankdir=BT;"]
    for x in poset.elements:
        attrs = f' [color={color[x]}]' if x in color else ""
        lines.append(f'  "{x}"{attrs};')
    for x, y in poset.hasse_edges:
        lines.append(f'  "{x}" -> "{y}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
