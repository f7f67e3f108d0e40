"""Irreducibility certificates and factorization verification.

There is no factor search here: over an infinite coefficient field the
factor space is not enumerable, so the honest computable surface is
(a) sound certificates that a function cannot split into two nonunits and
(b) verification of explicitly claimed factorizations.  ``UNKNOWN`` is a
real verdict; the module never guesses.

Certificate rules (each reasons about the untruncated ring):

* prime_support: f(1) = 0 and f(p) != 0 for a prime p.  Any product of two
  leading-zero nonunits vanishes on every prime index.  Over Domain.Z a
  factor with |g(1)| = c >= 2 is also possible and forces c | f(q) for
  every prime q, so the rule additionally requires the f(q) values over
  prime q to have gcd 1 there.  Over Domain.Q the rule covers every prime
  rank r, since f(r) != 0 at the prime index r.
* prime_leading_magnitude (Domain.Z): |f(1)| is prime; leading magnitudes
  multiply, so one factor would have |g(1)| = 1, i.e. be a unit.  The rule
  holds only below psi_12 (numutil.MR_PROOF_LIMIT), where the Miller-Rabin
  test is a proof; from psi_12 on the verdict is UNKNOWN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from . import numutil
from .kernels import primes_mask
from .ring import (
    ArithFunc,
    Domain,
    DomainMismatch,
    NoVisibleRank,
    _first_mismatch,
    convolve,
    is_unit,
    rank,
    restrict,
)


class Verdict(Enum):
    ZERO = "zero"
    UNIT = "unit"
    IRREDUCIBLE = "irreducible"
    REDUCIBLE = "reducible"
    UNKNOWN = "unknown"


PRIME_SUPPORT = "prime_support"
PRIME_LEADING_MAGNITUDE = "prime_leading_magnitude"


@dataclass(frozen=True)
class Reason:
    kind: str  # one of the two rule names above
    value: int  # the prime index / magnitude the rule fired on


@dataclass(frozen=True)
class Certificate:
    verdict: Verdict
    reason: Optional[Reason] = None
    witness: Optional[tuple[ArithFunc, ArithFunc]] = None

    def to_json_obj(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "reason": None if self.reason is None else {
                "kind": self.reason.kind,
                "value": self.reason.value,
            },
            "witness_indices": self._witness_indices(),
        }

    def _witness_indices(self) -> list[int]:
        if self.reason is not None:
            return [1 if self.reason.kind == PRIME_LEADING_MAGNITUDE else self.reason.value]
        if self.witness is not None:
            return [rank(w).index for w in self.witness]
        return []


def certify(f: ArithFunc) -> Certificate:
    """Classify f without searching for factorizations."""
    r = rank(f)
    if not r.visible:
        return Certificate(Verdict.ZERO)
    if is_unit(f):
        return Certificate(Verdict.UNIT)
    if r.index > 1:
        hit = _prime_support(f)
        if hit is not None:
            return Certificate(Verdict.IRREDUCIBLE, Reason(PRIME_SUPPORT, hit))
    elif f.domain is Domain.Z:
        magnitude = abs(r.leading)
        if 2 <= magnitude < numutil.MR_PROOF_LIMIT and numutil.is_prime(magnitude):
            return Certificate(
                Verdict.IRREDUCIBLE, Reason(PRIME_LEADING_MAGNITUDE, magnitude)
            )
    return Certificate(Verdict.UNKNOWN)


def _prime_support(f: ArithFunc) -> Optional[int]:
    """Smallest prime p with f(p) != 0, if the prime-support rule is sound."""
    hits = np.flatnonzero(primes_mask(f.bound) & (f._num != 0))
    if not hits.size:
        return None
    if f.domain is Domain.Z and math.gcd(*f._num[hits].tolist()) != 1:
        return None  # a rank-one nonunit factor dividing every f(p) remains possible
    return int(hits[0])


def witness_reducible(f: ArithFunc, left: ArithFunc, right: ArithFunc) -> Certificate:
    """Certificate that f = left * right splits f into two nonunits.

    The witness is re-verified here; an invalid claim raises ValueError.
    """
    if left.domain is not f.domain or right.domain is not f.domain:
        raise DomainMismatch("witness factors must share the target's domain")
    if is_unit(left) or is_unit(right):
        raise ValueError("witness factors must be nonunits")
    if not rank(left).visible or not rank(right).visible:
        raise ValueError("witness factors must be nonzero at bound")
    product = convolve(left, right)
    if product.bound < f.bound:
        raise ValueError("witness factors must cover the target's bound")
    if restrict(product, f.bound) != f:
        raise ValueError("witness product does not reproduce the target at bound")
    return Certificate(Verdict.REDUCIBLE, witness=(left, right))


# ---------------------------------------------------------------------------
# factorization claims
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FactorizationClaim:
    """Asserted factorization: unit_part * factors[0] * ... * factors[k-1]."""

    unit_part: ArithFunc
    factors: tuple[ArithFunc, ...]


@dataclass(frozen=True)
class FactorizationReport:
    unit_ok: bool
    certificates: tuple[Certificate, ...]
    unverified: tuple[int, ...]  # positions whose certificate is not IRREDUCIBLE
    product_ok: bool
    first_mismatch: Optional[int]

    @property
    def ok(self) -> bool:
        return self.unit_ok and self.product_ok

    @property
    def all_factors_certified(self) -> bool:
        return not self.unverified

    def to_json_obj(self) -> dict:
        return {
            "ok": self.ok,
            "unit_ok": self.unit_ok,
            "product_ok": self.product_ok,
            "first_mismatch": self.first_mismatch,
            "unverified": list(self.unverified),
            "factors": [c.to_json_obj() for c in self.certificates],
        }


def verify_factorization(f: ArithFunc, claim: FactorizationClaim) -> FactorizationReport:
    """Check a claimed factorization of f at its bound.

    Verifies the unit part, certifies each claimed irreducible (positions
    that only earn UNKNOWN are flagged unverified, not failed), and
    re-convolves the whole claim against f.
    """
    parts = (claim.unit_part,) + claim.factors
    for part in parts:
        if part.domain is not f.domain:
            raise DomainMismatch("claim parts must share the target's domain")
        if part.bound != f.bound:
            raise ValueError(
                f"claim part bound {part.bound} differs from target bound {f.bound}"
            )
    unit_ok = is_unit(claim.unit_part)
    certificates = tuple(certify(p) for p in claim.factors)
    unverified = tuple(
        i for i, c in enumerate(certificates) if c.verdict is not Verdict.IRREDUCIBLE
    )
    product = claim.unit_part
    for p in claim.factors:
        product = convolve(product, p)
    first = _first_mismatch(product, f)
    return FactorizationReport(unit_ok, certificates, unverified, first is None, first)


# ---------------------------------------------------------------------------
# rank screening
# ---------------------------------------------------------------------------


UNIT_NOTE_Q = "unit factor"
UNIT_NOTE_Z = "unit or rank-one nonunit factor"


@dataclass(frozen=True)
class RankSplit:
    left: int
    right: int
    note: str


def rank_screen(f: ArithFunc) -> tuple[RankSplit, ...]:
    """All ordered rank splits (b, c) with b * c = rank(f).

    Ranks multiply under convolution, so any factorization of f induces one
    of these splits.  Splits touching rank 1 are annotated: rank 1 means a
    unit over Domain.Q, and a unit or a rank-one nonunit over Domain.Z.
    """
    r = rank(f)
    if not r.visible:
        raise NoVisibleRank("rank screening needs a nonzero function")
    trivial_note = UNIT_NOTE_Q if f.domain is Domain.Q else UNIT_NOTE_Z
    splits = []
    for b in numutil.divisors(r.index):
        c = r.index // b
        note = trivial_note if b == 1 or c == 1 else ""
        splits.append(RankSplit(b, c, note))
    return tuple(splits)
