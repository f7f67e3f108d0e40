"""Sieve-built classical arithmetic functions and their convolution identities.

Built-ins (each made once, as one store, in the requested domain):

    one                 constant 1
    epsilon             convolution identity
    id_k   (k >= 1)     n -> n^k            ("id" = id_1)
    mobius              Moebius function
    euler_phi           totient
    tau                 divisor count
    sigma_k (k >= 0)    divisor power sum   ("sigma" = sigma_1, sigma_0 = tau)
    liouville_lambda    (-1)^Omega(n)
    prime_char          1 on primes, else 0
    pi_squared          (number of primes <= n)^2

Generation is by per-prime valuation passes (the numpy kernels), never
per-index factorization.  Past the int64 gates the same sieve runs over
Python ints.  Either way the 1-indexed integer array becomes the
function's store as it is, over Z or over Q with L = 1.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import kernels
from .ring import ArithFunc, Domain, _first_mismatch, convolve

_PARAM_NAME = re.compile(r"^(id|sigma)_(\d+)$")
_ALIASES = {"id": "id_1", "sigma": "sigma_1"}

PLAIN_NAMES = (
    "one",
    "epsilon",
    "mobius",
    "euler_phi",
    "tau",
    "liouville_lambda",
    "prime_char",
    "pi_squared",
)


def available_names() -> tuple[str, ...]:
    return PLAIN_NAMES + ("id_<k>", "sigma_<k>")


def is_known_name(name: str) -> bool:
    return name in PLAIN_NAMES or name in _ALIASES or bool(_PARAM_NAME.match(name))


def build(name: str, bound: int, domain: Domain = Domain.Z) -> ArithFunc:
    """Construct a named function with exact values on 1..bound."""
    domain = Domain(domain)  # a bad tag raises before the sieve runs
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    return ArithFunc(domain, _integers(_ALIASES.get(name, name), bound), 1)


def _integers(name: str, n: int) -> np.ndarray:
    """The built-in `name` on 1..n as a 1-indexed integer array, [0] = 0."""
    if name == "one":
        return np.minimum(np.arange(n + 1, dtype=np.int64), 1)
    if name == "epsilon":
        return (np.arange(n + 1) == 1).astype(np.int64)
    if name in kernels.RULES:
        return getattr(kernels, kernels.RULES[name][0])(n)
    if name in ("prime_char", "pi_squared"):
        primes = kernels.primes_mask(n).astype(np.int64)
        return primes if name == "prime_char" else np.cumsum(primes) ** 2
    m = _PARAM_NAME.match(name)
    if not m:
        raise ValueError(f"unknown function name {name!r}")
    k = int(m.group(2))
    if m.group(1) == "id":
        if k < 1:
            raise ValueError("id_k needs k >= 1")
        return np.arange(n + 1, dtype=np.int64 if n**k < kernels.I64_SAFE else object) ** k
    # sigma_k(m) <= m^k * tau(m) <= n^k * 2 sqrt(n)
    if kernels.convolution_fits_i64(n**k, 1, n):
        return kernels.sigma_i64(n, k)
    return kernels._multiplicative(n, kernels.sigma_rule(k), object)


# ---------------------------------------------------------------------------
# identity suite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    ok: bool
    first_mismatch: Optional[int]


@dataclass(frozen=True)
class IdentityReport:
    bound: int
    checks: tuple[IdentityCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def to_json_obj(self) -> dict:
        return {
            "bound": self.bound,
            "ok": self.ok,
            "checks": [
                {"name": c.name, "ok": c.ok, "first_mismatch": c.first_mismatch}
                for c in self.checks
            ],
        }


def identity_suite(bound: int, domain: Domain = Domain.Z) -> IdentityReport:
    """Exact convolution identities at the given bound.

    mobius * one = epsilon, one * one = tau, one * id = sigma,
    mobius * id = euler_phi.
    """
    one = build("one", bound, domain)
    ident = build("id", bound, domain)
    mob = build("mobius", bound, domain)
    cases = (
        ("mobius*one=epsilon", convolve(mob, one), build("epsilon", bound, domain)),
        ("one*one=tau", convolve(one, one), build("tau", bound, domain)),
        ("one*id=sigma", convolve(one, ident), build("sigma", bound, domain)),
        ("mobius*id=euler_phi", convolve(mob, ident), build("euler_phi", bound, domain)),
    )
    checks = []
    for name, got, want in cases:
        miss = _first_mismatch(got, want)
        checks.append(IdentityCheck(name, miss is None, miss))
    return IdentityReport(bound, tuple(checks))
