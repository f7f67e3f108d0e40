"""The value store: integers F over their least common denominator L.

Every ``ArithFunc`` stores f = F / L with L least (1 over Z), or, over Q
when the least L passes ``ring._MAX_SCALE_BITS`` bits, its ``Fraction``s
with no L.  The store is canonical, so the same values reached by any
route give equal fields, equal functions and equal hashes.  ``values`` is
built from the store on first read.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction

import pytest

from arithring import (
    Domain,
    FactorizationClaim,
    build,
    convolve,
    divide,
    epsilon,
    inverse,
    make,
    nu,
    omega,
    restrict,
    verify_factorization,
)
from arithring import ring
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
    assert (got._num, got._den) == ((1, -2, 0, 5, 3), 6)
    assert got == want and hash(got) == hash(want)
    assert got.values == VALUES


def test_wide_denominator_stores_fractions():
    """A product whose least L passes the bound stores what make would."""
    top = 1 << (ring._MAX_SCALE_BITS - 1)
    f = make([Fraction(1, top), Fraction(3, 2), Fraction(0), Fraction(-5, top)], Q)
    assert f._den == top
    product = convolve(f, f)  # L = top**2
    assert product._den is None
    assert product._num == product.values
    assert product == make(product.values, Q)
    assert hash(product) == hash(make(product.values, Q))
    w = _wide()
    assert w._den is None
    assert convolve(w, inverse(w)) == epsilon(w.bound, Q)


def test_equal_integers_over_unequal_denominators_differ():
    halves = make([Fraction(1, 2), Fraction(1, 2)], Q)
    ones = make([1, 1], Q)
    assert halves._num == ones._num and halves != ones
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
    assert (f._num, f._den) == ((3, -1, 0, 7, 1), 1)
    assert f.values == (3, -1, 0, 7, 1)
    assert len(built) == 5 and all(type(v) is Counted for v in f.values)


def test_z_store_is_the_values():
    f = make([3, -1, 0, 7], Z)
    assert f._den == 1 and f.values is f._num
    assert all(type(v) is int for v in convolve(f, f).values)
