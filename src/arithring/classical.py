"""Sieve-built classical arithmetic functions and their convolution identities.

Built-ins (all generated over Domain.Z and embedded into Domain.Q on
request):

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
per-index factorization.  Past the int64 gates, or under the ``python``
backend, the same sieve runs over Python ints.  Either way the sieve's
1-indexed array becomes the function's store as it is.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import kernels
from .ring import ArithFunc, Domain, convolve, epsilon, make, with_domain

_PARAM_NAME = re.compile(r"^(id|sigma)_(\d+)$")

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
    return name in PLAIN_NAMES or name in ("id", "sigma") or bool(_PARAM_NAME.match(name))


def build(name: str, bound: int, domain: Domain = Domain.Z) -> ArithFunc:
    """Construct a named function with exact values on 1..bound."""
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    base = _dispatch(name, bound)
    return with_domain(base, domain)


def _dispatch(name: str, n: int) -> ArithFunc:
    name = {"id": "id_1", "sigma": "sigma_1"}.get(name, name)
    if name == "one":
        ones = np.ones(n + 1, np.int64)
        ones[0] = 0
        return ArithFunc(Domain.Z, ones, 1)
    if name == "epsilon":
        return epsilon(n, Domain.Z)
    if name in kernels.RULES:
        return _sieve(n, *kernels.RULES[name])
    if name == "prime_char":
        return ArithFunc(Domain.Z, kernels.primes_mask(n).astype(np.int64), 1)
    if name == "pi_squared":
        counts = np.cumsum(kernels.primes_mask(n).astype(np.int64))
        return ArithFunc(Domain.Z, counts * counts, 1)
    m = _PARAM_NAME.match(name)
    if m:
        k = int(m.group(2))
        if m.group(1) == "id":
            if k < 1:
                raise ValueError("id_k needs k >= 1")
            return _id_pow(n, k)
        # sigma_k(m) <= m^k * tau(m) <= n^k * 2 sqrt(n)
        fits = kernels.convolution_fits_i64(n**k, 1, n)
        return _sieve(n, "sigma_i64", kernels.sigma_rule(k), k, fits_i64=fits)
    raise ValueError(f"unknown function name {name!r}")


def _id_pow(n: int, k: int) -> ArithFunc:
    if kernels.int64_paths_enabled() and n**k < kernels.I64_SAFE:
        return ArithFunc(Domain.Z, np.arange(n + 1, dtype=np.int64) ** k, 1)
    return make([i**k for i in range(1, n + 1)], Domain.Z)


def _sieve(n: int, kernel: str, rule, *args, fits_i64: bool = True) -> ArithFunc:
    """kernels.<kernel>(n, *args) inside the int64 gate, else rule's sieve over ints."""
    if kernels.int64_paths_enabled() and fits_i64:
        return ArithFunc(Domain.Z, getattr(kernels, kernel)(n, *args), 1)
    return ArithFunc(Domain.Z, kernels._multiplicative(n, rule, object), 1)


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


def _first_mismatch(f: ArithFunc, g: ArithFunc) -> Optional[int]:
    """First index where f and g differ: on F over one denominator, else on values."""
    if f._den == g._den:
        n = min(len(f), len(g)) + 1
        differ = np.flatnonzero(f._num[1:n] != g._num[1:n])
        return int(differ[0]) + 1 if differ.size else None
    return next((i for i, (x, y) in enumerate(zip(f.values, g.values), 1) if x != y), None)


def identity_suite(bound: int, domain: Domain = Domain.Z) -> IdentityReport:
    """Exact convolution identities at the given bound.

    mobius * one = epsilon, one * one = tau, one * id = sigma,
    mobius * id = euler_phi.
    """
    one = build("one", bound, domain)
    ident = build("id", bound, domain)
    mob = build("mobius", bound, domain)
    cases = (
        ("mobius*one=epsilon", convolve(mob, one), epsilon(bound, domain)),
        ("one*one=tau", convolve(one, one), build("tau", bound, domain)),
        ("one*id=sigma", convolve(one, ident), build("sigma", bound, domain)),
        ("mobius*id=euler_phi", convolve(mob, ident), build("euler_phi", bound, domain)),
    )
    checks = []
    for name, got, want in cases:
        miss = _first_mismatch(got, want)
        checks.append(IdentityCheck(name, miss is None, miss))
    return IdentityReport(bound, tuple(checks))
