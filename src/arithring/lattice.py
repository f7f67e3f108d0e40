"""Finite divisor posets: Hasse diagrams, chain covers, lattice checks.

The poset of interest is the set of all divisors of a positive integer a,
ordered by divisibility, with 1 as null element and a as universal element.
Meet and join are gcd and lcm.  Writing a = p_1^e_1 ... p_k^e_k, the poset
is the product of chains [0, e_1] x ... x [0, e_k], and every verdict is
read off the exponents: the lattice is always distributive, and it is
complemented, uniquely complemented and boolean exactly when a is
squarefree.  The minimum chain partition is the de Bruijn-Tengbergen-
Kruyswijk symmetric chain decomposition, whose middle rank layer is an
antichain of the same size; both are checked on every call.

Also here: the chain-descent integer factorizer (repeatedly split off the
smallest nontrivial divisor, which has no nontrivial proper divisor of its
own, and recurse on the cofactor) and the p | ab implies p | a or p | b
sample checker.
"""

from __future__ import annotations

import math
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
# minimum chain partition: the symmetric chain decomposition
# ---------------------------------------------------------------------------


def chain_cover(poset: DivisorPoset) -> ChainCover:
    """Partition into the minimum number of divisibility chains.

    The divisors of p_1^e_1 ... p_k^e_k form the product of chains
    [0, e_1] x ... x [0, e_k], ranked by the number of prime factors
    counted with multiplicity (total rank R = e_1 + ... + e_k).  The
    de Bruijn-Tengbergen-Kruyswijk construction builds a symmetric chain
    decomposition one prime power at a time: a chain c_0 < ... < c_k times
    the powers 1, p, ..., p^e splits into min(k, e) + 1 hooks, hook j being
    c_0 p^j, ..., c_{k-j} p^j, c_{k-j} p^(j+1), ..., c_{k-j} p^e.  Every chain
    runs from rank r_0 to R - r_0, so each one meets the middle rank
    floor(R / 2) exactly once; those middle elements form an antichain as
    large as the number of chains, which proves the partition minimum.
    Both halves are validated before returning, so every call re-certifies
    the width equality.
    """
    chains = [(1,)]
    total = 0
    for p, e in numutil.factorize(poset.root):
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
    # the lattice is graded by Omega, so distinct divisors of equal Omega
    # are pairwise incomparable: an O(w) test in place of O(w^2) pairs
    if len(set(antichain)) != len(antichain):
        raise RuntimeError("antichain certificate repeats a member")
    if any(poset.root % x for x in antichain):
        raise RuntimeError(f"antichain certificate holds a non-divisor of {poset.root}")
    ranks = {_omega(x, poset.atoms) for x in antichain}
    if len(ranks) > 1:
        raise RuntimeError(f"antichain certificate mixes ranks {sorted(ranks)}")
    if len(chains) != len(antichain):
        raise RuntimeError(
            f"Dilworth equality failed: {len(chains)} chains vs "
            f"{len(antichain)} antichain members"
        )


def _omega(x: int, primes: Sequence[int]) -> int:
    """Prime factors of x counted with multiplicity, x built from `primes`."""
    count = 0
    for p in primes:
        while x % p == 0:
            x //= p
            count += 1
    return count


def width(poset: DivisorPoset) -> int:
    return chain_cover(poset).width


# ---------------------------------------------------------------------------
# lattice property checks
# ---------------------------------------------------------------------------


def _tables(poset: DivisorPoset) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    e = np.asarray(poset.elements, np.int64)
    return e, np.gcd.outer(e, e), np.lcm.outer(e, e)


def _squarefree(poset: DivisorPoset) -> bool:
    """Every exponent is 1: the product of the distinct primes is the root."""
    return math.prod(poset.atoms) == poset.root


def complements_of(x: int, poset: DivisorPoset) -> list[int]:
    """All y with gcd(x, y) = 1 and lcm(x, y) = root.

    Only y = root / x can qualify (gcd * lcm = x * y = root), and it does
    exactly when x and root / x share no prime.
    """
    poset.index(x)
    y = poset.root // x
    return [y] if math.gcd(x, y) == 1 else []


def is_complemented(poset: DivisorPoset) -> bool:
    """Every divisor has a complement: true exactly for squarefree roots."""
    return _squarefree(poset)


def is_uniquely_complemented(poset: DivisorPoset) -> bool:
    """Complements exist and are unique; in a distributive lattice the
    second half always holds, so this is squarefreeness again."""
    return _squarefree(poset)


def is_distributive(poset: DivisorPoset) -> bool:
    """Always true: gcd and lcm act on each prime exponent as min and max,
    and a product of chains is distributive."""
    return True


def is_boolean(poset: DivisorPoset) -> bool:
    """Distributive with unique complements (true exactly for squarefree roots)."""
    return _squarefree(poset)


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
