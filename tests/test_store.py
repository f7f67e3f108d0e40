"""The value store: integers F over their least common denominator L.

Every ``ArithFunc`` stores f = F / L with L least (1 over Z), or, over Q
when the least L passes ``ring._MAX_SCALE_BITS`` bits, its ``Fraction``s
with no L.  The store is canonical, so the same values reached by any
route give equal fields, equal functions and equal hashes.  ``values`` is
built from the store on first read.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from arithring import (
    Domain,
    FactorizationClaim,
    add,
    build,
    convolve,
    divide,
    epsilon,
    identity_suite,
    inverse,
    make,
    nu,
    omega,
    restrict,
    scale,
    verify_factorization,
)
from arithring import kernels, ring
from arithring.classical import _first_mismatch
from arithring.ring import NotInDomain, with_domain

Q, Z = Domain.Q, Domain.Z

# five primes near 10^6: their lcm, about 100 bits, is too wide to store
WIDE = (1000003, 1000033, 1000037, 1000039, 1000081)
VALUES = (Fraction(1, 6), Fraction(-1, 3), Fraction(0), Fraction(5, 6), Fraction(1, 2))


def _wide(n: int = len(VALUES)):
    """A unit whose least common denominator passes _MAX_SCALE_BITS."""
    return make([1] + [Fraction(k, WIDE[k % len(WIDE)]) for k in range(1, n)], Q)


def _routes() -> dict:
    """VALUES reached by each route, keyed by the route's name."""
    want = make(VALUES, Q)
    n = len(VALUES)
    twice = make([2] + [0] * (n - 1), Q)
    halves = make([v / 2 for v in VALUES], Q)  # L = 12, the product cancels it to 6
    h = make([Fraction(-1, 4)] + [Fraction(k % 3 - 1, 2) for k in range(1, n)], Q)
    w = _wide()
    return {
        "make": want,
        "z product": convolve(halves, twice),
        "fraction loop product": convolve(convolve(want, w), inverse(w)),
        "inverse of an inverse": inverse(inverse(want)),
        "z quotient": divide(convolve(want, h), h).quotient,
        "fraction quotient": divide(convolve(want, w), w).quotient,
        "restrict": restrict(make(VALUES + (Fraction(1, 35),), Q), n),
    }


@pytest.mark.parametrize("route", sorted(_routes()))
def test_every_route_reaches_one_store(route):
    want, got = make(VALUES, Q), _routes()[route]
    assert got._num.dtype == np.int64 and got._num.tolist() == [0, 1, -2, 0, 5, 3]
    assert got._den == 6
    assert got == want and hash(got) == hash(want)
    assert got.values == VALUES


def test_wide_denominator_stores_fractions():
    """A product whose least L passes the bound stores what make would."""
    top = 1 << (ring._MAX_SCALE_BITS - 1)
    f = make([Fraction(1, top), Fraction(3, 2), Fraction(0), Fraction(-5, top)], Q)
    assert f._den == top
    product = convolve(f, f)  # L = top**2
    assert product._den is None
    assert tuple(product._num[1:].tolist()) == product.values
    assert product == make(product.values, Q)
    assert hash(product) == hash(make(product.values, Q))
    w = _wide()
    assert w._den is None
    assert convolve(w, inverse(w)) == epsilon(w.bound, Q)


def test_equal_integers_over_unequal_denominators_differ():
    halves = make([Fraction(1, 2), Fraction(1, 2)], Q)
    ones = make([1, 1], Q)
    assert np.array_equal(halves._num, ones._num) and halves != ones
    assert _first_mismatch(halves, ones) == 1
    assert _first_mismatch(ones, halves) == 1
    report = verify_factorization(ones, FactorizationClaim(halves, ()))
    assert not report.product_ok and report.first_mismatch == 1
    assert _first_mismatch(make([1, 2, 3], Q), make([1, 2, 4], Q)) == 3
    assert _first_mismatch(halves, make([Fraction(1, 2), 1], Q)) == 2
    assert _first_mismatch(_wide(), _wide()) is None


def test_z_to_q_is_a_retag():
    f = build("euler_phi", 50, Z)
    g = with_domain(f, Q)
    assert g._num is f._num and g._den == 1
    assert with_domain(g, Z)._num is f._num
    assert with_domain(g, Z) == f
    with pytest.raises(NotInDomain):
        with_domain(make([1, Fraction(1, 2)], Q), Z)
    with pytest.raises(NotInDomain):
        with_domain(_wide(), Z)


def test_arith_func_is_frozen():
    f = make(VALUES, Q)
    for name in ("values", "domain", "_num", "_den"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(f, name, None)


@pytest.mark.parametrize(
    "f",
    [
        make([1, 2, 3], Q),
        build("one", 20, Q),
        epsilon(6, Q),
        omega(6, Q),
        nu(3, 6, Q),
        convolve(build("mobius", 30, Q), build("one", 30, Q)),
        inverse(build("one", 30, Q)),
        make(VALUES, Q),
        _wide(),
        make([2, Fraction(1, WIDE[0]), -3, Fraction(1, WIDE[1]), 0, Fraction(1, WIDE[2]),
              7, Fraction(1, WIDE[3]), Fraction(1, WIDE[4])], Q),
    ],
    ids=["make", "build", "epsilon", "omega", "nu", "product", "inverse", "L=6", "wide",
         "wide with ints"],
)
def test_q_values_are_fractions(f):
    assert all(type(v) is Fraction for v in f.values)
    assert all(type(f[n]) is Fraction and f[n] == v for n, v in enumerate(f.values, 1))


def test_make_over_q_builds_no_fraction_until_values_are_read(monkeypatch):
    """Ints over Q are stored as F with L = 1; Fractions appear on the first read."""
    built = []

    class Counted(Fraction):
        def __new__(cls, *args, **kwargs):
            built.append(args)
            return super().__new__(cls, *args, **kwargs)

    monkeypatch.setattr(ring, "Fraction", Counted)
    f = make([3, -1, 0, 7, True], Q)
    assert built == []
    assert f._num.tolist() == [0, 3, -1, 0, 7, 1] and f._den == 1
    assert f.values == (3, -1, 0, 7, 1)
    assert len(built) == 5 and all(type(v) is Counted for v in f.values)


def test_z_store_is_the_values():
    f = make([3, -1, 0, 7], Z)
    assert f._den == 1 and f.values == tuple(f._num[1:].tolist()) and f.values is f.values
    assert all(type(v) is int for v in convolve(f, f).values)


# ---------------------------------------------------------------------------
# the array form: int64 edges, canonical dtype, one store per value list
# ---------------------------------------------------------------------------

EDGES = ((1 << 63) - 1, -(1 << 63), 1 << 63, -(1 << 63) - 1)


def _fits(v: int) -> bool:
    return -(1 << 63) <= v < 1 << 63


def _assert_canonical(f):
    """f's store is read-only, 1-indexed, in its canonical dtype, and the one make gives."""
    num = f._num
    assert not num.flags.writeable and num[0] == 0 and len(num) == f.bound + 1
    if f._den is not None:
        assert num.dtype == (np.int64 if all(map(_fits, num.tolist())) else object)
    again = make(f.values, f.domain)
    assert f == again and hash(f) == hash(again) and again._num.dtype == num.dtype


@pytest.mark.parametrize("domain", [Z, Q])
@pytest.mark.parametrize("edge", EDGES)
def test_int64_edges_through_every_operation(edge, domain):
    f = make([1, edge, -3, edge // 7, 0, 2], domain)
    assert f._num.dtype == (np.int64 if _fits(edge) else object)
    one = build("one", f.bound, domain)
    results = {
        "make": f,
        "add": add(f, one),
        "add back": add(add(f, one), scale(one, -1)),
        "scale": scale(f, -1),
        "scale back": scale(scale(f, -1), -1),
        "convolve": convolve(f, epsilon(f.bound, domain)),
        "product": convolve(f, f),
        "divide": divide(convolve(f, one), one).quotient,
        "inverse": inverse(f),
        "inverse back": inverse(inverse(f)),
    }
    for g in results.values():
        _assert_canonical(g)
    for name in ("add back", "scale back", "convolve", "divide", "inverse back"):
        assert results[name] == f, name
    assert results["scale"][2] == -edge and results["add"][2] == edge + 1
    assert results["inverse"][2] == -edge  # g(2) = -f(2) for a lead 1


def test_crt_and_loop_results_that_fit_are_int64(monkeypatch):
    """Past the gate the product may still fit int64; then it is stored as int64."""
    crt = []
    real = ring._convolve_crt
    monkeypatch.setattr(ring, "_convolve_crt", lambda *args: crt.append(args) or real(*args))
    n = 1024
    a = make([1 << 28] * n, Z)  # gate bound 2**56 * 2 * isqrt(n) = 2**62 fails
    dense = convolve(a, a)
    assert crt and dense._num.dtype == np.int64
    assert dense == make([(1 << 56) * t for t in build("tau", n, Z).values], Z)
    crt.clear()
    b = make([1 << 62] * 6, Z)
    step = make([1, -1, 0, 0, 0, 0], Z)  # sparse: the loop runs
    looped = convolve(b, step)
    assert not crt and looped._num.dtype == np.int64
    assert looped.values == (1 << 62, 0, 1 << 62, 0, 1 << 62, 0)


def test_routes_and_backends_reach_one_store():
    """The same values from every route and both backends: one dtype, ==, one hash."""
    n = 400
    f = make([1] + [(m * 7919 % 1009 - 500) << 40 for m in range(1, n)], Z)
    g = make([-1] + [(m * 104729 % 1013 - 500) << 20 for m in range(1, n)], Z)
    found = []
    for backend in kernels.BACKENDS:
        with kernels.use_backend(backend):
            h = convolve(f, g)
            found += [h, convolve(g, f), make(h.values, Z), divide(h, f).quotient,
                      divide(h, g).quotient, inverse(inverse(h))]
    products = [x for i, x in enumerate(found) if i % 6 not in (3, 4)]
    for group in (products, found[3::6] + [g], found[4::6] + [f]):
        assert len({x._num.dtype for x in group}) == 1
        assert len({hash(x) for x in group}) == 1
        assert all(x == group[0] for x in group)


@pytest.mark.parametrize("c, top", [
    (649657, ((1 << 63) - 1) // 649657),  # |c| * max|F| = 2**63 - 1: int64
    (2, 1 << 62),  # 2**63: object
    (-1, (1 << 63) - 1),  # 2**63 - 1: int64
    (-1, 1 << 63),  # F itself is object
])
def test_scale_gate_edge(c, top):
    values = [top, -top, 3, 0]
    f = make(values, Z)
    fits = abs(c) * top < 1 << 63
    assert (ring._combine((f._num, c)).dtype == np.int64) == fits
    got = scale(f, c)
    assert got.values == tuple(c * v for v in values)
    _assert_canonical(got)


@pytest.mark.parametrize("x, y", [
    ((1 << 62) - 1, 1 << 62),  # max sum 2**63 - 1: int64
    (1 << 62, 1 << 62),  # 2**63: object, stored as object
    (-(1 << 62), -(1 << 62)),  # 2**63 in the gate, -2**63 stored as int64
])
def test_add_gate_edge(x, y):
    f, g = make([x, 1, 0], Z), make([y, -1, 5], Z)
    fits = abs(x) + abs(y) < 1 << 63
    assert (ring._combine((f._num, 1), (g._num, 1)).dtype == np.int64) == fits
    got = add(f, g)
    assert got.values == (x + y, 0, 5)
    _assert_canonical(got)
    assert got._num.dtype == (np.int64 if _fits(x + y) else object)


# ---------------------------------------------------------------------------
# immutability, and no packing or unpacking on the int64 routes
# ---------------------------------------------------------------------------


def test_stores_are_read_only():
    f = make([1, 2, 3, 4], Z)
    for g in (f, restrict(f, 2), with_domain(f, Q), with_domain(with_domain(f, Q), Z),
              restrict(make([1 << 70, 2, 3], Z), 2), make(VALUES, Q), _wide(),
              restrict(_wide(), 3), build("mobius", 30, Z), convolve(f, f)):
        with pytest.raises(ValueError, match="read-only"):
            g._num[1] = 5
    assert f.values == (1, 2, 3, 4)


def _conversions(fn, *args):
    """fn(*args), with the size of each array that ``tolist`` unpacked and the
    number of ``np.fromiter`` calls, seen by a profile hook on C calls."""
    unpacked, fromiter = [], []

    def profile(frame, event, arg):
        if event == "c_call":
            name = getattr(arg, "__name__", None)
            if name == "tolist" and isinstance(getattr(arg, "__self__", None), np.ndarray):
                unpacked.append(arg.__self__.size)
            elif name == "fromiter":
                fromiter.append(1)

    sys.setprofile(profile)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(None)
    return result, unpacked, len(fromiter)


def test_int64_routes_neither_pack_nor_unpack(monkeypatch):
    """A product of stored int64 functions and the identity suite read F as it
    is: no pack and no O(N) tolist, only the kernel's loop heads of at most
    isqrt(N) values."""
    n = 30011
    f = make([(m * 7919) % 19 - 9 for m in range(n)], Z)
    g = make([(m * 104729) % 19 - 9 for m in range(n)], Z)
    packs = []
    real = ring._pack
    monkeypatch.setattr(ring, "_pack", lambda *args: packs.append(args) or real(*args))
    product, unpacked, fromiter = _conversions(convolve, f, g)
    report, suite_unpacked, suite_fromiter = _conversions(identity_suite, n, Z)
    assert report.ok
    assert packs == [] and fromiter == suite_fromiter == 0
    assert max(unpacked + suite_unpacked) <= math.isqrt(n)
    with kernels.use_backend("python"):
        assert convolve(f, g) == product
