"""The benchmark's workloads: inputs from a seed, the timed calls, the oracles.

Each workload is a class built from ``(seed, tiny, scratch)``.  The
constructor makes every input from ``random.Random(seed)``, so the same
seed gives the same inputs.  ``warm`` makes one tiny call on each route the
workload uses (it is part of set-up), ``run`` is the timed section: it
makes its calls through the ``Ops`` it is given and returns
``ops.results``, ``{op: result}``; ``probe_work`` is the ``probe.py``
computation that matches the workload's kind of work.  ``observe`` turns one result into a small record
once the timer has stopped, and ``check`` is the independent oracle for one
such record.  Oracles use sympy and the inputs, never arithring, and run
only after every timed section.

``tiny`` shrinks every size for the self-tests; the shares of the layers
are those of the full sizes only.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from fractions import Fraction
from time import perf_counter

import probe

SAMPLES = 48  # sampled indices per function checked by an oracle


class Raised:
    """Result of an operation that raised; every check of it fails."""

    def __init__(self, exc: Exception):
        self.error = f"{type(exc).__name__}: {exc}"


class Ops:
    """Runs the timed operations one by one, keeping each result by name.

    With a `probe` (one of the ``probe.py`` works) every operation is
    bracketed by two timed runs of it: ``probe_s`` is their total time and
    ``norm[op]`` the operation's time over the mean of its two probes,
    times ``probe.REF_S``.
    """

    def __init__(self, probe_work=None):
        self.results: dict[str, object] = {}
        self.norm: dict[str, float] = {}
        self.probe_work = probe_work
        self.probe_s = 0.0
        self._last_probe = None

    def __call__(self, op: str, fn, *args, **kwargs):
        if self.probe_work and self._last_probe is None:
            self._last_probe = self._probe()
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # counted as a failed operation, not fatal
            result = Raised(exc)
        op_s = perf_counter() - start
        if self.probe_work:
            after = self._probe()
            self.norm[op] = op_s * probe.REF_S / ((self._last_probe + after) / 2)
            self._last_probe = after
        self.results[op] = result
        return result

    def _probe(self) -> float:
        t = probe.timed(self.probe_work)
        self.probe_s += t
        return t


def digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:20]


def divisors_of(n: int) -> list[int]:
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return sorted(set(small + [n // d for d in small]))


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24 (input generation only)."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in bases:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    while not is_prime(n):
        n += 1
    return n


def sample_points(rng: random.Random, n: int, extra=()) -> list[int]:
    picked = rng.sample(range(1, n + 1), min(SAMPLES, n))
    return sorted({1, n, *picked, *extra})


def divisor_closure(points) -> list[int]:
    return sorted({d for m in points for d in divisors_of(m)})


def func_record(f, points) -> dict:
    """Digest of all values plus the values at `points`."""
    return {"fp": digest((f.domain.value, f.values)), "at": {m: f.values[m - 1] for m in points}}


def values_fp(domain: str, values) -> str:
    return digest((domain, tuple(values)))


def divisor_sum(m: int, term) -> object:
    """Sum of term(d, m // d) over the divisors d of m, by sympy."""
    import sympy

    return sum(term(d, m // d) for d in sympy.divisors(m))


def identities_at(points) -> dict[str, bool]:
    """The four identities of ``identity_suite``, checked by sympy at `points`."""
    import sympy

    def holds(term, want):
        return all(divisor_sum(m, term) == want(m) for m in points)

    return {
        "mobius*one=epsilon": holds(lambda d, e: sympy.mobius(d), lambda m: int(m == 1)),
        "one*one=tau": holds(lambda d, e: 1, lambda m: sympy.divisor_sigma(m, 0)),
        "one*id=sigma": holds(lambda d, e: e, sympy.divisor_sigma),
        "mobius*id=euler_phi": holds(lambda d, e: sympy.mobius(d) * e, sympy.totient),
    }


# ---------------------------------------------------------------------------
# identity_q: the CLI in its default domain Q
# ---------------------------------------------------------------------------


class IdentityQ:
    """``arithring.cli.main`` in process, default domain Q, output to files."""

    modules = ("arithring.cli",)
    probe_work = staticmethod(probe.python_work)

    def __init__(self, seed: int, tiny: bool, scratch):
        rng = random.Random(seed)
        self.bound = (200 if tiny else 6000) + rng.randrange(8)
        self.points = sample_points(rng, self.bound)
        self.closure = divisor_closure(self.points)
        self.out = {op: str(scratch / f"{op}.out") for op in ("suite", "inv", "div")}

    def _argv(self, bound: int) -> dict:
        b = ["--bound", str(bound)]
        return {
            "suite": ["identity-suite", *b],
            "inv": ["inv", "mobius", *b],
            "div": ["div", "--num", "sigma", "--den", "id", *b, "--format", "json"],
        }

    def warm(self, ar) -> None:
        for op, argv in self._argv(12).items():
            ar.cli.main(argv + ["--out", self.out[op]])

    def run(self, ar, ops: Ops) -> dict:
        for op, argv in self._argv(self.bound).items():
            ops(op, ar.cli.main, argv + ["--out", self.out[op]])
        return ops.results

    def observe(self, op: str, rc) -> dict:
        with open(self.out[op]) as fh:
            text = fh.read()
        record = {"rc": rc, "fp": digest(text)}
        if op == "suite":
            record["text"] = text
            return record
        if op == "inv":
            rows = [line.split() for line in text.splitlines()]
            index = [int(i) for i, _ in rows]
            values = [v for _, v in rows]
        else:
            obj = json.loads(text)
            record.update(domain=obj["domain"], bound=obj["bound"])
            values = obj["values"]
            index = list(range(1, len(values) + 1))
        record["index_ok"] = index == list(range(1, self.bound + 1))
        record["at"] = {m: Fraction(values[m - 1]) for m in self.closure if m <= len(values)}
        return record

    def check(self, op: str, r: dict) -> bool:
        import sympy

        if r["rc"] != 0:
            return False
        if op == "suite":
            expect = identities_at(self.points)
            text = "".join(f"{name}: pass\n" for name in expect)
            return all(expect.values()) and r["text"] == text
        if not r["index_ok"]:
            return False
        at = r["at"]
        if op == "inv":  # mobius * g = epsilon
            return all(
                divisor_sum(m, lambda d, e: sympy.mobius(d) * at[e]) == (m == 1)
                for m in self.points
            )
        # id * q = sigma
        return r["domain"] == "Q" and r["bound"] == self.bound and all(
            divisor_sum(m, lambda d, e: d * at[e]) == sympy.divisor_sigma(m)
            for m in self.points
        )


# ---------------------------------------------------------------------------
# dense_z: the int64 kernel route over Z
# ---------------------------------------------------------------------------


class DenseZ:
    """``make`` and ``convolve`` of dense lists over Z, then the identity suite."""

    modules = ()
    probe_work = staticmethod(probe.python_work)

    def __init__(self, seed: int, tiny: bool, scratch):
        rng = random.Random(seed)
        n = (3000 if tiny else 250_000) + rng.randrange(8)
        digits = range(-9, 10)
        self.a = rng.choices(digits, k=n)
        self.b = rng.choices(digits, k=n)
        self.suite_bound = (300 if tiny else 30_000) + rng.randrange(8)
        self.points = sample_points(rng, n)
        self.suite_points = sample_points(rng, self.suite_bound)

    def warm(self, ar) -> None:
        z = ar.Domain.Z
        ar.convolve(ar.make([1, -2, 3], z), ar.make([4, 5, -6], z))
        ar.identity_suite(12, z)

    def run(self, ar, ops: Ops) -> dict:
        r, z = ar.ring, ar.Domain.Z
        f = ops("make_a", r.make, self.a, z)
        g = ops("make_b", r.make, self.b, z)
        ops("convolve", r.convolve, f, g)
        ops("suite", ar.classical.identity_suite, self.suite_bound, z)
        return ops.results

    def observe(self, op: str, result) -> dict:
        if op == "suite":
            return {"fp": digest(result), "report": result.to_json_obj()}
        return func_record(result, self.points if op == "convolve" else ())

    def check(self, op: str, r: dict) -> bool:
        import sympy

        if op == "make_a":
            return r["fp"] == values_fp("Z", self.a)
        if op == "make_b":
            return r["fp"] == values_fp("Z", self.b)
        if op == "convolve":
            a, b = self.a, self.b
            return all(
                r["at"][m] == divisor_sum(m, lambda d, e: a[d - 1] * b[e - 1])
                for m in self.points
            )
        report = r["report"]
        got = {c["name"]: c["ok"] and c["first_mismatch"] is None for c in report["checks"]}
        return report["bound"] == self.suite_bound and got == identities_at(self.suite_points)


# ---------------------------------------------------------------------------
# bigint_z: the exact big-int routes of the ring layer
# ---------------------------------------------------------------------------


class BigintZ:
    """Convolution, inverse, division and factorization past the int64 gate."""

    modules = ()
    probe_work = staticmethod(probe.python_work)
    BITS = 41
    K = 4  # sigma_4 = one * id_4: id_4 and the product exceed the int64 gate

    def __init__(self, seed: int, tiny: bool, scratch):
        rng = random.Random(seed)
        n = (1500 if tiny else 80_000) + rng.randrange(8)
        half = 1 << (self.BITS - 1)

        def big():
            return rng.getrandbits(self.BITS) - half

        self.n = n
        self.f = [big() for _ in range(n)]
        self.g = [big() for _ in range(n)]
        # |f(1)| >= 2 makes n // 2 the first index where f * g + nu_{n//2}
        # stops being divisible by f; g(1) != 0 keeps f * g at rank 1.
        self.f[0] = rng.choice((-1, 1)) * rng.randrange(2, half)
        self.g[0] = rng.choice((-1, 1)) * rng.randrange(1, half)
        self.unit = [rng.choice((-1, 1))] + [rng.randint(-3, 3) for _ in range(n - 1)]
        self.points = sample_points(rng, n, extra=(n // 2,))
        self.closure = divisor_closure(self.points)

    def warm(self, ar) -> None:
        self._ops(ar, Ops(), [3, -2**40, 5], [2**40, 7, 1], [1, 2, -3], 3)

    def run(self, ar, ops: Ops) -> dict:
        return self._ops(ar, ops, self.f, self.g, self.unit, self.n)

    def _ops(self, ar, ops: Ops, fv, gv, uv, n) -> dict:
        r, z = ar.ring, ar.Domain.Z
        build = ar.classical.build
        f = ops("make_f", r.make, fv, z)
        g = ops("make_g", r.make, gv, z)
        h = ops("convolve", r.convolve, f, g)
        u = ops("make_unit", r.make, uv, z)
        ops("inverse", r.inverse, u)
        ops("divide_exact", r.divide, h, f)
        ops("divide_witness", lambda: r.divide(r.add(h, r.nu(n // 2, n, z)), f))
        ops("associates", lambda: r.are_associates(h, r.scale(h, -1)))
        s = ops("sigma_k", build, f"sigma_{self.K}", n, z)
        ops("factorization", lambda: ar.factorization.verify_factorization(
            s,
            ar.factorization.FactorizationClaim(
                r.epsilon(n, z), (build("one", n, z), build(f"id_{self.K}", n, z))
            ),
        ))
        return ops.results

    def observe(self, op: str, result) -> dict:
        if op in ("divide_exact", "divide_witness"):
            q = result.quotient
            fp = None if q is None else digest((q.domain.value, q.values))
            return {"witness": result.witness, "fp": fp}
        if op == "associates":
            return {"value": result}
        if op == "factorization":
            return {"report": result.to_json_obj()}
        points = {"convolve": self.points, "sigma_k": self.points, "inverse": self.closure}
        return func_record(result, points.get(op, ()))

    def check(self, op: str, r: dict) -> bool:
        import sympy

        inputs = {"make_f": self.f, "make_g": self.g, "make_unit": self.unit}
        if op in inputs:
            return r["fp"] == values_fp("Z", inputs[op])
        if op == "convolve":
            f, g = self.f, self.g
            return all(
                r["at"][m] == divisor_sum(m, lambda d, e: f[d - 1] * g[e - 1])
                for m in self.points
            )
        if op == "inverse":  # unit * inverse = epsilon
            u, at = self.unit, r["at"]
            return all(
                divisor_sum(m, lambda d, e: u[d - 1] * at[e]) == (m == 1)
                for m in self.points
            )
        if op == "divide_exact":
            return r["witness"] is None and r["fp"] == values_fp("Z", self.g)
        if op == "divide_witness":
            return r["fp"] is None and r["witness"] == self.n // 2
        if op == "associates":
            return r["value"] is True
        if op == "sigma_k":
            return all(r["at"][m] == sympy.divisor_sigma(m, self.K) for m in self.points)
        report = r["report"]
        return report["ok"] and report["product_ok"] and report["first_mismatch"] is None


# ---------------------------------------------------------------------------
# lattice: divisor lattices and the chain-descent factorizer
# ---------------------------------------------------------------------------


def middle_layer(exponents) -> int:
    """Largest coefficient of prod (1 + x + ... + x^e): the lattice's width."""
    poly = [1]
    for e in exponents:
        out = [0] * (len(poly) + e)
        for i, c in enumerate(poly):
            for j in range(e + 1):
                out[i + j] += c
        poly = out
    return max(poly)


def primes_between(lo: int, hi: int) -> list[int]:
    return [p for p in range(lo, hi + 1) if is_prime(p)]


class Lattice:
    """Lattice reports, a large chain cover, factorizations, the prime property."""

    modules = ()
    probe_work = staticmethod(probe.mixed_work)
    ROOT_LIMIT = 10**12

    def __init__(self, seed: int, tiny: bool, scratch):
        rng = random.Random(seed)
        if tiny:
            # 16, 12 and 48 divisors
            bases = ((2 * 3 * 5, 7, 97), (2**2 * 3, 5, 97), (2**3 * 3**2 * 5, 7, 97))
            self.max_ab = 40
        else:
            # 256 divisors squarefree, 240 divisors not squarefree, 4320 divisors
            bases = (
                (2 * 3 * 5 * 7 * 11 * 13 * 17, 19, 1000),
                (2**4 * 3**2 * 5 * 7 * 11, 13, 1000),
                # a narrow range keeps the divisors' int sizes, and so the
                # peak RSS, alike across seeds
                (2**5 * 3**4 * 5**2 * 7**2 * 11 * 13 * 17, 89, 127),
            )
            self.max_ab = 1000
        # the last prime factor varies with the seed; the exponents do not
        self.squarefree, self.not_squarefree, self.chain_root = (
            base * rng.choice(primes_between(lo, hi)) for base, lo, hi in bases
        )
        p, q = rng.sample(primes_between(999_000, 1_000_000), 2)
        smooth = 1
        while True:
            nxt = smooth * rng.choice(primes_between(2, 97))
            if nxt > self.ROOT_LIMIT:
                break
            smooth = nxt
        self.euclid_inputs = {
            "euclid_prime": next_prime(10**12 - rng.randrange(10**6)),
            "euclid_semiprime": p * q,
            "euclid_smooth": smooth,
        }
        self.p = rng.choice(primes_between(900, 1000))

    def warm(self, ar) -> None:
        lat = ar.lattice
        lat.lattice_report(60)
        lat.chain_cover(lat.co_ideal(36, root_limit=self.ROOT_LIMIT))
        lat.euclid_factorization(91)
        lat.prime_property_check(7, itertools.product(range(1, 8), repeat=2))

    def run(self, ar, ops: Ops) -> dict:
        lat = ar.lattice
        ops("report_squarefree", lat.lattice_report, self.squarefree)
        ops("report_not_squarefree", lat.lattice_report, self.not_squarefree)
        poset = ops("co_ideal", lat.co_ideal, self.chain_root, root_limit=self.ROOT_LIMIT)
        ops("chain_cover", lat.chain_cover, poset)
        for op, n in self.euclid_inputs.items():
            ops(op, lat.euclid_factorization, n)
        pairs = itertools.product(range(1, self.max_ab + 1), repeat=2)
        ops("prime_property", lat.prime_property_check, self.p, pairs)
        return ops.results

    def observe(self, op: str, result) -> dict:
        if op == "co_ideal":
            return {"root": result.root, "elements": result.elements, "atoms": result.atoms}
        if op == "chain_cover":
            return {"chains": result.chains, "antichain": result.antichain}
        return {"value": result}

    def check(self, op: str, r: dict) -> bool:
        import sympy

        if op.startswith("report"):
            root = self.squarefree if op == "report_squarefree" else self.not_squarefree
            rep = r["value"]
            squarefree = all(e == 1 for e in sympy.factorint(root).values())
            return (
                rep["a"] == root
                and rep["elements"] == sympy.divisors(root)
                and rep["atoms"] == sympy.primefactors(root)
                and _valid_chains(rep["chains"], root)
                and rep["width"] == len(rep["chains"])
                and rep["distributive"] is True
                and rep["complemented"] is squarefree
                and rep["boolean"] is squarefree
            )
        if op == "co_ideal":
            return (
                r["root"] == self.chain_root
                and list(r["elements"]) == sympy.divisors(self.chain_root)
                and list(r["atoms"]) == sympy.primefactors(self.chain_root)
            )
        if op == "chain_cover":
            anti = r["antichain"]
            return (
                _valid_chains(r["chains"], self.chain_root)
                and len(anti) == len(r["chains"])
                and all(y % x for i, x in enumerate(anti) for y in anti[i + 1:])
                and all(self.chain_root % x == 0 for x in anti)
            )
        if op in self.euclid_inputs:
            n, factors = self.euclid_inputs[op], r["value"]
            return (
                factors == sorted(factors)
                and math.prod(factors) == n
                and all(sympy.isprime(x) for x in factors)
            )
        return r["value"] is sympy.isprime(self.p)


def _valid_chains(chains, root: int) -> bool:
    """Chains partition the divisors, step by proper divisibility, and are as
    few as the middle rank layer of the product of chains is large."""
    import sympy

    flat = sorted(x for chain in chains for x in chain)
    return (
        flat == sympy.divisors(root)
        and all(y % x == 0 and y > x for c in chains for x, y in zip(c, c[1:]))
        and len(chains) == middle_layer(sympy.factorint(root).values())
    )


WORKLOADS = {
    "identity_q": IdentityQ,
    "dense_z": DenseZ,
    "bigint_z": BigintZ,
    "lattice": Lattice,
}
