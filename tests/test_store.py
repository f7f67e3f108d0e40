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
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from arithring import (
    ArithFunc,
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
from arithring import crt, ring
from arithring.classical import _first_mismatch
from arithring.ring import NotInDomain, with_domain

from conftest import exact_convolution, widened

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


@pytest.mark.parametrize("f, store", [
    (make([1, Fraction(-3, 2)], Q), (np.int64, 2)),
    (make([1, -(1 << 70)], Z), (object, 1)),
    (make([1, 1 << 70], Q), (object, 1)),
    (_wide(), (object, None)),
], ids=["int64", "object Z", "object Q", "fractions"])
def test_with_domain_to_its_own_domain_is_the_function(f, store):
    assert (f._num.dtype, f._den) == store
    assert with_domain(f, f.domain) is f
    assert with_domain(f, f.domain.value) is f


@pytest.mark.parametrize("values, first", [
    ([2, 4, Fraction(-3, 2), Fraction(1, 3)], "-3/2"),  # L = 6: F = (12, 24, -9, 2)
    ([3, 0, Fraction(5, 1 << 63)], "5/9223372036854775808"),  # L past int64
    ([1] + [Fraction(k, WIDE[k % len(WIDE)]) for k in range(1, 8)], "1/1000033"),  # no L
])
def test_q_to_z_names_the_first_non_integer(values, first):
    """Q to Z raises at the first n with F(n) mod L != 0, or at the first
    non-integer of a Fraction store, without building the values."""
    f = make(values, Q)
    assert (f._den is None) == (len(values) == 8)
    with pytest.raises(NotInDomain, match=f"^{first} is not an integer \\(domain Z\\)$"):
        with_domain(f, Z)
    assert "values" not in vars(f)


def test_fraction_store_add_scale_restrict():
    """f(n) = 1/n stores Fractions: add, scale and restrict on it against
    loops over the values.  Restricted to 20, its L = lcm(1..20) is scaled."""
    n = 60
    f = make([Fraction(1, k) for k in range(1, n + 1)], Q)
    g = make([Fraction(k % 5 - 2, 3) for k in range(n - 10)], Q)
    assert f._den is None and g._den == 3
    want = tuple(x + y for x, y in zip(f.values, g.values))
    assert add(f, g).values == add(g, f).values == want
    assert add(f, f).values == tuple(2 * v for v in f.values)
    c = Fraction(-3, 7)
    assert scale(f, c).values == tuple(c * v for v in f.values)
    assert scale(f, c)._den is None and scale(f, 0) == make([0] * n, Q)
    for m, scaled in ((20, True), (50, False), (n, False)):
        assert restrict(f, m).values == f.values[:m]
        assert (restrict(f, m)._den is not None) == scaled
    assert restrict(f, n) is f


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
    calls = []
    real = crt.product
    monkeypatch.setattr(crt, "product", lambda *args: calls.append(args) or real(*args))
    n = 1024
    a = make([1 << 28] * n, Z)  # gate bound 2**56 * 2 * isqrt(n) = 2**62 fails
    dense = convolve(a, a)
    assert calls and dense._num.dtype == np.int64
    assert dense == make([(1 << 56) * t for t in build("tau", n, Z).values], Z)
    calls.clear()
    b = make([1 << 62] * 6, Z)
    step = make([1, -1, 0, 0, 0, 0], Z)  # sparse: the loop runs
    looped = convolve(b, step)
    assert not calls and looped._num.dtype == np.int64
    assert looped.values == (1 << 62, 0, 1 << 62, 0, 1 << 62, 0)


def test_routes_and_backends_reach_one_store():
    """The same values from every route: one dtype, ==, one hash.

    Products by the int64 kernel (shift 0) or the CRT (shift 40), by the
    CRT called directly and by the exact loop; quotients by the block solve
    and by the sequential solve."""
    n = 400
    for shift in (0, 40):
        f = make([1] + [(m * 7919 % 1009 - 500) << shift for m in range(1, n)], Z)
        g = make([-1] + [(m * 104729 % 1013 - 500) << shift // 2 for m in range(1, n)], Z)
        F, G = ring._operand(f._num), ring._operand(g._num)
        bound = F[1] * G[1] * 2 * math.isqrt(n)
        rebuilt = crt.product(F, G, n, bound, crt.primes_for(n, bound), 0)
        h = convolve(f, g)
        products = [h, convolve(g, f), make(h.values, Z), ArithFunc(Z, rebuilt, 1),
                    make(exact_convolution(f.values, g.values, n, 0), Z), inverse(inverse(h))]
        quotients = [
            (divide(h, a).quotient, make(ring._divide_solve(h.values, a.values, n, 1, Z)[0], Z), b)
            for a, b in ((f, g), (g, f))
        ]
        for group in (products, *quotients):
            assert len({x._num.dtype for x in group}) == 1
            assert len({hash(x) for x in group}) == 1
            assert all(x == group[0] for x in group)
        assert h._num.dtype == (np.int64 if shift == 0 else object)


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
# intake: make against the per-value route
# ---------------------------------------------------------------------------

I64 = 1 << 63

# what the struct.pack pass reads: ints, bools and numpy integers, to past int64
_INTEGERS = st.one_of(
    st.integers(-9, 9),
    st.sampled_from([I64 - 1, -I64, I64, -I64 - 1]),
    st.integers(-(1 << 100), 1 << 100),
    st.booleans(),
    st.builds(lambda t, v: t(v), st.sampled_from([np.int8, np.int64, np.uint16]),
              st.integers(0, 99)),
    st.sampled_from([np.int64(-I64), np.uint64(I64 - 1), np.uint64(I64)]),
)
# and what it refuses, for _coerce to read or reject value by value
_OTHERS = st.one_of(
    st.floats(),
    st.builds(np.float64, st.integers(-3, 3)),
    st.sampled_from([np.bool_(True), np.bool_(False), None, "7", " -3 ", "1/2", "4/2", "x", ""]),
    st.fractions(max_denominator=6),
    st.just(Fraction(1, (1 << 64) + 1)),
    st.builds(Decimal, st.integers(-5, 5)),
    st.lists(st.integers(0, 3), max_size=2),
)
# strings that int reads, to past int64 and up to Python's 4300-digit limit
_INT_STRINGS = [
    "7", "-3", "+5", " -3 ", "\t12\n", "007", "-007", "-0", "+0", "0", "\u0663", "\u0661\u0662",
    "\uff11\uff12", str(I64 - 1), str(-I64), str(I64), str(-I64 - 1), "9" * 4300,
]
# and strings that int refuses or is never shown ("_"), for Fraction to read
# or reject value by value
_STRING_CASES = _INT_STRINGS + [
    "1_000", "1__0", "_1", "1_", "-1_0", "\x1c5\x1c", "1e3", "1.0", "2/1", "1/2", "4/2", "x",
    "\xb2", "0x10", "", " ", "9" * 4301,
]
_STRINGS = st.sampled_from(_STRING_CASES) | st.builds(
    lambda pad, sign, zeros, n: f"{pad}{sign}{'0' * zeros}{n}{pad}",
    st.sampled_from(["", " ", "\t"]), st.sampled_from(["", "-", "+"]), st.integers(0, 2),
    st.integers(0, 1 << 70))
_CONTAINERS = {"list": list, "tuple": tuple, "generator": lambda vals: (v for v in vals)}


def _intake(fn):
    """fn()'s store as (domain, L, dtype, typed values), or its exception's type and message."""
    try:
        f = fn()
    except Exception as exc:
        return type(exc), str(exc)
    return f.domain, f._den, f._num.dtype, [(type(v), v) for v in f._num.tolist()]


@settings(max_examples=400, deadline=None)
@given(st.lists(_INTEGERS, max_size=6) | st.lists(_INTEGERS | _OTHERS, max_size=6)
       | st.lists(_STRINGS, min_size=1, max_size=6)
       | st.lists(_STRINGS | _INTEGERS | _OTHERS, max_size=6),
       st.sampled_from(sorted(_CONTAINERS)), st.sampled_from([Z, Q]))
def test_make_is_the_per_value_route(vals, container, domain):
    """make gives the store that coercing each value gives, or the same error."""
    want = _intake(lambda: ArithFunc(domain, [ring._coerce(v, domain) for v in vals]))
    assert _intake(lambda: make(_CONTAINERS[container](vals), domain)) == want


@pytest.mark.parametrize("domain", [Z, Q])
@pytest.mark.parametrize("vals", [
    *([s] for s in _STRING_CASES),
    _INT_STRINGS,
    ["1", "-2", "1_000"], ["1", "1e3"], ["1", ""], ["1", "9" * 4301], ["9" * 4301, "1_0"],
    ["1", 2], ["1", 2.5], [2.5, "1"], ["1", Fraction(5, 2)], ["4/2", Fraction(1, 2), 3],
    ["1", None], [I64, "1"], ["1", np.int64(3), True],
], ids=lambda vals: repr(vals)[:40])
def test_strings_take_the_per_value_route(vals, domain):
    """Integer strings read at once give the store and errors that _coerce
    gives value by value; int(2.5) is 2, so a mixed list is never read by int."""
    want = _intake(lambda: ArithFunc(domain, [ring._coerce(v, domain) for v in vals]))
    for wrap in _CONTAINERS.values():
        assert _intake(lambda: make(wrap(vals), domain)) == want


def test_underscores_go_to_fraction_and_never_to_int(monkeypatch):
    """Before Python 3.11 Fraction refuses "1_000", which int reads as 1000,
    so a list with "_" in it is coerced value by value, never read by int."""
    coerced, ints = [], []
    real_coerce = ring._coerce
    monkeypatch.setattr(ring, "_coerce", lambda v, d: coerced.append(v) or real_coerce(v, d))
    monkeypatch.setattr(ring, "int", lambda v: ints.append(v) or int(v), raising=False)
    assert make(["1", "-2", "3"], Z).values == (1, -2, 3)
    assert (coerced, ints) == ([], ["1", "-2", "3"])
    ints.clear()
    got = _intake(lambda: make(["1", "1_000"], Z))
    assert coerced == ["1", "1_000"] and not any(type(v) is str for v in ints)
    if sys.version_info >= (3, 11):
        assert got[3] == [(int, 0), (int, 1), (int, 1000)]
    else:
        assert got[0] is NotInDomain and "1_000" in got[1]


@pytest.mark.parametrize("at", ["first", "middle", "last"])
@pytest.mark.parametrize("wide", [I64, -I64 - 1, 1 << 100])
def test_one_value_past_int64_in_a_long_list(at, wide):
    n = 10 ** 5
    vals = [k % 19 - 9 for k in range(n)]
    vals[{"first": 0, "middle": n // 2, "last": n - 1}[at]] = wide
    for domain in (Z, Q):
        f = make(vals, domain)
        assert f._num.dtype == object and f._den == 1
        assert f._num.tolist() == [0, *vals]
        assert all(type(v) is int for v in f._num.tolist())


class _IndexRaises:
    def __index__(self):
        raise ValueError("no index here")


@pytest.mark.parametrize("vals", [
    [_IndexRaises()], [1, _IndexRaises(), 2.5], [I64, _IndexRaises()], [_IndexRaises(), 1 << 70],
], ids=["alone", "before a float", "after 2**63", "before 2**70"])
def test_an_index_that_raises_value_error_propagates(vals):
    for domain in (Z, Q):
        for wrap in _CONTAINERS.values():
            with pytest.raises(ValueError, match="no index here"):
                make(wrap(vals), domain)


@pytest.mark.parametrize("values, dtype", [
    ([I64 - 1, -I64], np.int64),
    ([I64], object),
    ([-I64 - 1], object),
    (np.array([1, I64], np.uint64), object),
], ids=["int64 edges", "2**63", "-2**63 - 1", "uint64 2**63"])
def test_make_at_the_int64_edges(values, dtype):
    for domain in (Z, Q):
        f = make(values, domain)
        assert f._num.dtype == dtype and f._den == 1
        assert f._num.tolist() == [0, *map(int, values)]
        assert all(type(v) is int for v in f._num.tolist())


# ---------------------------------------------------------------------------
# immutability, and no packing or unpacking on the int64 routes
# ---------------------------------------------------------------------------


def test_stores_are_read_only():
    f = make([1, 2, 3, 4], Z)
    n = 10 ** 5
    packed = make(list(range(1, n + 1)), Z)  # read in place from the packed bytes
    for g in (f, restrict(f, 2), with_domain(f, Q), with_domain(with_domain(f, Q), Z),
              restrict(make([1 << 70, 2, 3], Z), 2), make(VALUES, Q), _wide(),
              restrict(_wide(), 3), build("mobius", 30, Z), convolve(f, f), packed):
        with pytest.raises(ValueError, match="read-only"):
            g._num[1] = 5
    assert f.values == (1, 2, 3, 4)
    assert isinstance(packed._num.base, bytes)
    from_arange = ArithFunc(Z, np.arange(n + 1, dtype=np.int64), 1)
    assert packed == from_arange and hash(packed) == hash(from_arange)


def _unpacked(fn, *args):
    """fn(*args), with the size of each array that ``tolist`` unpacked, seen by
    a profile hook on C calls."""
    unpacked = []

    def profile(frame, event, arg):
        if (event == "c_call" and getattr(arg, "__name__", None) == "tolist"
                and isinstance(getattr(arg, "__self__", None), np.ndarray)):
            unpacked.append(arg.__self__.size)

    sys.setprofile(profile)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(None)
    return result, unpacked


def test_int64_routes_neither_pack_nor_unpack(monkeypatch):
    """A product of stored int64 functions and the identity suite read F as it
    is: no pack and no O(N) tolist, only the kernel's loop heads of at most
    isqrt(N) values."""
    n = 30011
    packs = []
    real = ring._pack
    monkeypatch.setattr(ring, "_pack", lambda *args: packs.append(args) or real(*args))
    f = make([(m * 7919) % 19 - 9 for m in range(n)], Z)
    g = make([(m * 104729) % 19 - 9 for m in range(n)], Z)
    assert len(packs) == 2  # the spy sees every pack: one per make
    packs.clear()
    product, unpacked = _unpacked(convolve, f, g)
    report, suite_unpacked = _unpacked(identity_suite, n, Z)
    assert report.ok
    assert packs == []
    assert max(unpacked + suite_unpacked) <= math.isqrt(n)
    assert product.values == exact_convolution(f.values, g.values, n, 0)


# ---------------------------------------------------------------------------
# every public operation on every store
# ---------------------------------------------------------------------------

# Z has two stores; Q adds an L > 1 and the Fractions of an L past
# _MAX_SCALE_BITS (2**64 + 1 has 65 bits)
STORES = {Z: ("int64", "object"), Q: ("int64", "object", "L>1", "Fraction")}
SCALE = {"int64": 1, "object": 1, "L>1": Fraction(1, 6), "Fraction": Fraction(1, (1 << 64) + 1)}


def _store(f: ArithFunc) -> str:
    if f._den is None:
        return "Fraction"
    if f._den != 1:
        return "L>1"
    return "object" if f._num.dtype == object else "int64"


@st.composite
def _stored(draw, domain: Domain, n: int, unit: bool = False) -> ArithFunc:
    """A function at bound n in a drawn store: values in -9..9, widened past
    int64 (object) or scaled by 1/6 (L > 1) or by 1/(2**64 + 1) (Fraction);
    a unit has lead +-1 over Z and a nonzero lead over Q."""
    store = draw(st.sampled_from(STORES[domain]))
    values = draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n))
    if unit:
        values[0] = draw(st.sampled_from((1, -1) if domain is Z else (1, -1, 2, -3)))
    if store == "object":
        values = widened(values)
    f = make([v * SCALE[store] for v in values], domain)
    assume(_store(f) == store)
    return f


@st.composite
def _triples(draw, unit: bool = False):
    """(f, g, h), f a unit when asked, at one bound n <= 40 in one domain."""
    domain = draw(st.sampled_from((Z, Q)))
    n = draw(st.integers(2, 40))
    return draw(_stored(domain, n, unit)), draw(_stored(domain, n)), draw(_stored(domain, n))


LAWS = settings(max_examples=50)


@given(_triples())
@LAWS
def test_ring_laws_on_every_store(fgh):
    f, g, h = fgh
    n, zero = len(f), (0 if f.domain is Z else Fraction(0))
    assert (f * g).values == exact_convolution(f.values, g.values, n, zero)
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f - f == omega(n, f.domain)


@given(_triples(unit=True))
@LAWS
def test_units_invert_and_divide_on_every_store(fgh):
    f, g, _ = fgh
    n = len(f)
    assert inverse(f) * f == epsilon(n, f.domain)
    assert divide(g * f, f).quotient == g


@given(_triples())
@LAWS
def test_operators_are_the_functions_on_every_store(fgh):
    f, g, _ = fgh
    assert f + g == add(f, g)
    assert (f + g).values == tuple(x + y for x, y in zip(f.values, g.values))
    assert f - g == add(f, scale(g, -1))
    assert -f == scale(f, -1)
    assert f * g == convolve(f, g)
    assert 3 * f == f * 3 == scale(f, 3)
    assert (f == 3) is False and f != 3
