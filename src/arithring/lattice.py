"""Finite divisor posets: Hasse diagrams, chain covers, lattice checks.

The poset of interest is the set of all divisors of a positive integer a,
ordered by divisibility, with 1 as null element and a as universal element:
x is an element exactly when it is a positive integer that divides a.
Meet and join are gcd and lcm.  Writing a = p_1^e_1 ... p_k^e_k, the poset
is the product of chains [0, e_1] x ... x [0, e_k], and every verdict is
read off the exponents: the lattice is always distributive, and it is
complemented, uniquely complemented and boolean exactly when a is
squarefree.  The minimum chain partition is the de Bruijn-Tengbergen-
Kruyswijk symmetric chain decomposition, whose middle rank layer is an
antichain of the same size.  Both are returned as built; the tests check
them against a cover oracle.

Also here: the chain-descent integer factorizer, Euclid's property (1):
any proper divisor of a composite n starts a descending chain of proper
divisors that ends at an irreducible, so whichever proper divisor is found
drives the descent.  And the p | ab implies p | a or p | b checker,
Euclid's property (2), which is a theorem for a proven prime p and a scan
of the given pairs otherwise.
"""

from __future__ import annotations

import bisect
import math
import numbers
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

from . import numutil

# The divisor count, not factoring, sets this limit: numutil splits any
# root below psi_12 in about root^(1/4) rho steps.  Raise it only as far as
# lattice_report on the root with the most divisors under the new limit is
# measured to finish in about a second.  Below 10^18 that root is
# 897612484786617600, with 103680 divisors: its report takes 40-45 ms in
# process on a shared 2-vCPU x86 host (0.15-0.18 s and 34 MB as a fresh
# `lattice-report`).
DEFAULT_ROOT_LIMIT = 10**18


@dataclass(frozen=True)
class DivisorPoset:
    """All divisors of `root`, ordered by divisibility.

    Membership is divisibility: x is an element exactly when it is a
    positive integer dividing `root`, and its index is its place in the
    ascending `elements`.  The Hasse diagram is not stored: `hasse_edges`
    builds it on first read, which only `to_dot` does.
    """

    root: int
    elements: tuple[int, ...]  # ascending
    atoms: tuple[int, ...]  # prime divisors = covers of 1

    @cached_property
    def hasse_edges(self) -> tuple[tuple[int, int], ...]:
        """The covering pairs (x, x*p), by ascending x and then ascending p.

        x * p divides the root exactly when p divides root / x.
        """
        a, atoms = self.root, self.atoms
        return tuple(
            [(x, x * p) for x in self.elements for q in [a // x] for p in atoms if q % p == 0]
        )

    def __contains__(self, x: int) -> bool:
        return isinstance(x, numbers.Integral) and x > 0 and self.root % int(x) == 0

    def index(self, x: int) -> int:
        if x not in self:
            raise ValueError(f"{x} is not a divisor of {self.root}")
        return bisect.bisect_left(self.elements, x)

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
    """The divisor poset of a: every divisor and its atoms, from one factorization."""
    a = operator.index(a)
    if a < 1:
        raise ValueError(f"need a >= 1, got {a}")
    if a > root_limit:
        raise ValueError(f"{a} exceeds the root limit {root_limit}")
    factors = numutil.factorize(a)
    divs = numutil.divisors_of(factors)
    return DivisorPoset(a, tuple(divs), tuple(p for p, _ in factors))


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
    c_0 p^j, ..., c_{k-j} p^j, c_{k-j} p^(j+1), ..., c_{k-j} p^e.  Hook 0 is
    the chain's own tuple with c_k p, ..., c_k p^e appended; each later hook
    is one list, c_0 ... c_{k-j-1} times p^j and then c_{k-j} times p^j,
    ..., p^e, made a tuple.  Every chain runs from rank r_0 to R - r_0, so
    each one meets the middle rank floor(R / 2) exactly once; those middle
    elements form an antichain as large as the number of chains, which
    proves the partition minimum.
    """
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
            hooks.append(chain + tuple([chain[k] * q for q in powers[1:]]))
            for j in range(1, min(k, e) + 1):
                pj, corner = powers[j], chain[k - j]
                hooks.append(
                    tuple([c * pj for c in chain[: k - j]] + [corner * q for q in powers[j:]])
                )
        chains = hooks
        total += e
    chains.sort(key=lambda c: c[0])
    # a chain of k + 1 elements starts at rank (total - k) / 2
    antichain = tuple(
        sorted(c[total // 2 - (total - len(c) + 1) // 2] for c in chains)
    )
    return ChainCover(tuple(chains), antichain)


def width(poset: DivisorPoset) -> int:
    return chain_cover(poset).width


# ---------------------------------------------------------------------------
# lattice property checks
# ---------------------------------------------------------------------------


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
    """gcd(x, y) * lcm(x, y) = x * y over all pairs: always true, since on
    each prime exponent min(i, j) + max(i, j) = i + j."""
    return True


# ---------------------------------------------------------------------------
# chain-descent factorizer and the prime property
# ---------------------------------------------------------------------------


def euclid_factorization(n: int) -> list[int]:
    """Factor n >= 2 by descending chains of proper divisors.

    Any proper divisor of a composite part drives the chain: numutil finds
    one (a small prime, or a Pollard-Brent rho split), and both the divisor
    and its cofactor descend until every part is a proven irreducible.
    Returns the ascending multiset of irreducible factors; raises
    ValueError for a part at or above psi_12 that cannot be proven prime.
    """
    n = operator.index(n)
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return numutil.prime_factors(n)


def prime_property_check(p: int, pairs: Iterable[tuple[int, int]]) -> bool:
    """For every pair of integers (a, b) with p | ab, confirm p | a or p | b.

    A p that numutil.is_prime proves prime (p < psi_12) passes by Euclid's
    lemma without reading `pairs`.  A composite p, and a p >= psi_12 whose
    primality is unproven, is checked by scanning every pair.
    """
    p = operator.index(p)
    if p < 2:
        raise ValueError(f"need p >= 2, got {p}")
    if p < numutil.MR_PROOF_LIMIT and numutil.is_prime(p):
        return True
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
        "a": poset.root,
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
