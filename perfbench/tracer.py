"""Spans around arithring's public functions, installed from outside the package.

:meth:`Tracer.install` wraps each function in :data:`TRACED` once and puts
the wrapper in place of every binding of the original function object in
the loaded ``arithring.*`` namespaces: the package re-exports, the module
that defines the function, and the modules that import it by name
(``classical``, ``cli``, ``factorization`` and ``serialize`` do so for
``make`` and ``convolve``).  :meth:`Tracer.uninstall` puts the originals
back.  Per-element helpers (``_coerce``, ``coefficient_to_str``,
``is_prime``) are not wrapped; their time counts as self time of the caller.

A span is ``[name, start, end, parent, count]`` with ``parent`` the index of
the enclosing span (-1 at top level).  Spans stay in memory until the run
writes them out.  A layer's self time is its span time minus the time of
its child spans.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

SIEVES = ("primes_mask", "mobius_i64", "phi_i64", "tau_i64", "sigma_i64", "liouville_i64")
SERIALIZE = (
    "dumps", "loads", "to_json_obj", "from_json_obj",
    "to_csv", "from_csv", "dump_path", "load_path",
)

# "<module>.<function>" -> span name; several functions may share one span name.
TRACED = {
    "kernels.convolve_i64": "kernels.convolve_i64",
    **{f"kernels.{f}": "kernels.sieve" for f in SIEVES},
    **{f"ring.{f}": f"ring.{f}" for f in (
        "make", "with_domain", "convolve", "inverse", "divide",
        "are_associates", "add", "scale", "nu", "epsilon",
    )},
    "classical.build": "classical.build",
    "classical.identity_suite": "classical.identity_suite",
    "factorization.certify": "factorization.certify",
    "factorization.verify_factorization": "factorization.verify_factorization",
    **{f"lattice.{f}": f"lattice.{f}" for f in (
        "co_ideal", "chain_cover", "is_distributive", "is_boolean",
        "lattice_report", "euclid_factorization", "prime_property_check",
    )},
    "lattice.is_complemented": "lattice.complements",
    "lattice.is_uniquely_complemented": "lattice.complements",
    **{f"numutil.{f}": f"numutil.{f}" for f in ("factorize", "divisors", "smallest_prime_factor")},
    **{f"serialize.{f}": "serialize" for f in SERIALIZE},
    "cli.main": "cli.main",
}


def _pairs(args, result) -> int:
    """Multiply-adds of convolve_i64: sum of n // d over d with a[d] != 0."""
    a = args[0]
    n = a.shape[0] - 1
    d = a[1:].nonzero()[0] + 1
    return int((n // d).sum())


def _coerced(args, result) -> int:
    """Coefficients ``with_domain`` converted (0 when the domain already matched)."""
    return 0 if result is args[0] else len(result.values)


# Span name -> count recorded per call, from the call's arguments and result.
COUNTERS = {
    "kernels.convolve_i64": _pairs,
    "ring.make": lambda args, result: len(result.values),
    "ring.with_domain": _coerced,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._swapped: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        spans, stack, count = self.spans, self._stack, COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if count is not None:
                span[4] = count(args, result)
            return result

        return traced

    def install(self) -> None:
        if self._swapped:
            raise RuntimeError("tracer already installed")
        namespaces = [m for k, m in sys.modules.items() if k.split(".")[0] == "arithring"]
        for qualified, name in TRACED.items():
            module, attr = qualified.split(".")
            home = sys.modules.get(f"arithring.{module}")
            if home is None:  # e.g. the CLI when a workload never imports it
                continue
            original = getattr(home, attr)
            bindings = [
                (ns, key) for ns in namespaces
                for key, value in vars(ns).items() if value is original
            ]
            wrapper = self._wrap(original, name)
            for ns, key in bindings:
                setattr(ns, key, wrapper)
                self._swapped.append((ns, key, original))

    def uninstall(self) -> None:
        for ns, key, original in self._swapped:
            setattr(ns, key, original)
        self._swapped.clear()

    def take(self) -> list[list]:
        """Return the spans recorded so far and start a new list."""
        spans = self.spans[:]
        self.spans.clear()
        return spans


def layer_totals(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: summed ``self_s``, ``calls`` and ``count``."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    totals: dict[str, dict[str, float]] = {}
    for (name, start, end, _, count), inner in zip(spans, child):
        t = totals.setdefault(name, {"self_s": 0.0, "calls": 0, "count": 0})
        t["self_s"] += end - start - inner
        t["calls"] += 1
        t["count"] += count
    return totals


def i64_share(spans: list[list]) -> float:
    """Share of ``ring.convolve`` spans with a ``kernels.convolve_i64`` child."""
    convolves = [i for i, s in enumerate(spans) if s[0] == "ring.convolve"]
    if not convolves:
        return 0.0
    via_kernel = {s[3] for s in spans if s[0] == "kernels.convolve_i64"}
    return sum(i in via_kernel for i in convolves) / len(convolves)


def top_level_s(spans: list[list]) -> float:
    return sum(end - start for _, start, end, parent, _ in spans if parent < 0)
