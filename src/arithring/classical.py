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
per-index factorization.  sigma_k and id_k switch to an exact big-int sieve
when int64 cannot be guaranteed.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Optional

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
    if name == "one":
        return make([1] * n, Domain.Z)
    if name == "epsilon":
        return epsilon(n, Domain.Z)
    if name == "id":
        return _id_pow(n, 1)
    if name == "sigma":
        return _sigma(n, 1)
    if name == "mobius":
        return _from_kernel(n, kernels.mobius_i64, lambda p, e: -1 if e == 1 else 0)
    if name == "euler_phi":
        return _from_kernel(n, kernels.phi_i64, lambda p, e: p**e - p ** (e - 1))
    if name == "tau":
        return _from_kernel(n, kernels.tau_i64, lambda p, e: e + 1)
    if name == "liouville_lambda":
        return _from_kernel(n, kernels.liouville_i64, lambda p, e: 1 - 2 * (e & 1))
    if name == "prime_char":
        mask = kernels.primes_mask(n)
        return make(mask[1:].astype(np.int64).tolist(), Domain.Z)
    if name == "pi_squared":
        counts = np.cumsum(kernels.primes_mask(n).astype(np.int64))
        if n >= 1 << 31:
            # pi(n)^2 could approach int64; redo the squaring in big ints
            return make([int(c) ** 2 for c in counts[1:].tolist()], Domain.Z)
        return make((counts[1:] ** 2).tolist(), Domain.Z)
    m = _PARAM_NAME.match(name)
    if m:
        k = int(m.group(2))
        if m.group(1) == "id":
            if k < 1:
                raise ValueError("id_k needs k >= 1")
            return _id_pow(n, k)
        return _sigma(n, k)
    raise ValueError(f"unknown function name {name!r}")


def _id_pow(n: int, k: int) -> ArithFunc:
    if kernels.int64_paths_enabled() and n**k < kernels.I64_SAFE:
        vals = (np.arange(n + 1, dtype=np.int64) ** k)[1:].tolist()
    else:
        vals = [i**k for i in range(1, n + 1)]
    return make(vals, Domain.Z)


def _sigma(n: int, k: int) -> ArithFunc:
    if k < 0:
        raise ValueError("sigma_k needs k >= 0")
    # sigma_k(m) <= m^k * tau(m) <= n^k * 2 sqrt(n)
    safe = n**k * 2 * math.isqrt(n) < kernels.I64_SAFE
    if kernels.int64_paths_enabled() and safe:
        return make(kernels.sigma_i64(n, k)[1:].tolist(), Domain.Z)
    if k == 0:
        return _exact_multiplicative(n, lambda p, e: e + 1)
    return _exact_multiplicative(n, lambda p, e: (p ** (k * (e + 1)) - 1) // (p**k - 1))


def _from_kernel(n: int, kernel: Callable, prime_power_value) -> ArithFunc:
    # mobius/phi/tau/lambda values fit int64 for any feasible sieve size
    if kernels.int64_paths_enabled():
        return make(kernel(n)[1:].tolist(), Domain.Z)
    return _exact_multiplicative(n, prime_power_value)


def _exact_multiplicative(n: int, prime_power_value) -> ArithFunc:
    """Big-int valuation sieve: same passes as the numpy kernel, no int64."""
    out = [1] * (n + 1)
    out[0] = 0
    for p in kernels.primes_mask(n).nonzero()[0].tolist():
        for m in range(p, n + 1, p):
            mm = m // p
            e = 1
            while mm % p == 0:
                mm //= p
                e += 1
            out[m] *= prime_power_value(p, e)
    return make(out[1:], Domain.Z)


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
    for i, (x, y) in enumerate(zip(f.values, g.values), 1):
        if x != y:
            return i
    return None


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
