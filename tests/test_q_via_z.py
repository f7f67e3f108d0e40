"""Q arithmetic through the integer routes, against the Fraction solves.

A ``Domain.Q`` function stores integers F over their least common
denominator L, and ``convolve``, ``inverse`` and ``divide`` run the ``Z``
routes on F.  The oracles are the ``Fraction`` loops those routes
replace, which the library keeps for leading values other than +-1/L and
for L wider than ``ring._MAX_SCALE_BITS``: ``_convolve_exact`` with a
``Fraction`` zero, and ``_divide_solve`` over ``Domain.Q``.  The inverse
is the quotient of epsilon, so its oracle is ``_divide_solve`` of epsilon.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arithring import (
    Domain,
    build,
    convolve,
    divide,
    epsilon,
    inverse,
    make,
    rank,
)
from arithring import kernels, ring

Q, Z = Domain.Q, Domain.Z

# denominators of each kind of input: integral (L = 1), small coprime,
# primes near 10^6 whose lcm (40 bits) pushes F past the int64 gate, and
# five such primes, whose lcm (100 bits) is too wide to scale by
DENOMINATORS = {
    "integral": (1,),
    "small": (1, 2, 3, 5, 7),
    "large": (1, 1000003, 1000033),
    "wide": (1, 1000003, 1000033, 1000037, 1000039, 1000081),
}
# F(1) is a multiple of 2, 3 or 5 for these leads, so never +-1
FALLBACK_LEADS = (Fraction(2, 3), Fraction(-5, 2), Fraction(3), Fraction(-2))

backends = pytest.mark.parametrize("backend", kernels.BACKENDS)


@st.composite
def rationals(draw, kind: str, min_size: int = 1, max_size: int = 40) -> list:
    size = draw(st.integers(min_size, max_size))
    value = st.builds(
        Fraction,
        st.one_of(st.just(0), st.integers(-9, 9)),
        st.sampled_from(DENOMINATORS[kind]),
    )
    return draw(st.lists(value, min_size=size, max_size=size))


@st.composite
def leads(draw, rest: list) -> Fraction:
    """A nonzero leading value: +-1/L (the integer route) or a fallback lead."""
    if draw(st.booleans()):
        return draw(st.sampled_from(FALLBACK_LEADS))
    den = math.lcm(*(v.denominator for v in rest)) * draw(st.sampled_from((1, 2, 3)))
    return Fraction(draw(st.sampled_from((1, -1))), den)


@st.composite
def units_q(draw, kind: str):
    rest = draw(rationals(kind))
    return make([draw(leads(rest[1:]))] + rest[1:], Q)


@st.composite
def divisors_q(draw, kind: str):
    """A divisor of rank 1..4 whose leading value comes from :func:`leads`."""
    rest = draw(rationals(kind, min_size=4))
    r = draw(st.integers(1, 4))
    return make([Fraction(0)] * (r - 1) + [draw(leads(rest[r:]))] + rest[r:], Q)


def _all_fractions(f) -> bool:
    return all(type(v) is Fraction for v in f.values)


def _fraction_inverse(f) -> tuple:
    """The inverse of the unit f by the Fraction solve of f * g = epsilon."""
    n = f.bound
    values, witness = ring._divide_solve(epsilon(n, Q).values, f.values, n, 1, Q)
    assert witness is None
    return values


def _route_of(monkeypatch, name: str) -> list:
    """Record the domain argument of each call to the private solve `name`."""
    seen = []
    solve = getattr(ring, name)

    def spy(*args):
        seen.append(args[-1])
        return solve(*args)

    monkeypatch.setattr(ring, name, spy)
    return seen


@backends
@given(data=st.data())
@settings(max_examples=60)
def test_convolve_matches_fraction_loop(backend, data):
    kind = data.draw(st.sampled_from(sorted(DENOMINATORS)))
    f = make(data.draw(rationals(kind)), Q)
    g = make(data.draw(rationals(kind)), Q)
    n = min(f.bound, g.bound)
    with kernels.use_backend(backend):
        got = convolve(f, g)
    assert got.values == ring._convolve_exact(f.values[:n], g.values[:n], n, Fraction(0))
    assert _all_fractions(got)


@backends
@given(data=st.data())
@settings(max_examples=60)
def test_inverse_matches_fraction_solve(backend, data):
    f = data.draw(units_q(data.draw(st.sampled_from(sorted(DENOMINATORS)))))
    with kernels.use_backend(backend):
        got = inverse(f)
    assert got.values == _fraction_inverse(f)
    assert _all_fractions(got)


@backends
@given(data=st.data())
@settings(max_examples=80)
def test_divide_matches_fraction_solve(backend, data):
    kind = data.draw(st.sampled_from(sorted(DENOMINATORS)))
    den = data.draw(divisors_q(kind))
    num = make(data.draw(rationals(kind, min_size=4)), Q)  # rank(den) <= 4 <= n
    if data.draw(st.booleans()):  # exactly divisible: num = den * q
        num = convolve(den, num)
    n = min(num.bound, den.bound)
    with kernels.use_backend(backend):
        got = divide(num, den)
    quotient, witness = ring._divide_solve(
        num.values[:n], den.values[:n], n, rank(den).index, Q
    )
    assert got.witness == witness
    if quotient is None:
        assert got.quotient is None
    else:
        assert got.quotient.values == quotient
        assert _all_fractions(got.quotient)


def test_leads_pick_the_route(monkeypatch):
    """+-1/L leads take the Z solves, a lead such as 2/3 the Fraction solve.

    Over Z the rank-1 inverse is solved in blocks and the rank-2 division
    sequentially.
    """
    route = _route_of(monkeypatch, "_divide_solve")
    blocks = _route_of(monkeypatch, "_block_solve")  # records the bound
    rest = [Fraction(1, 2), Fraction(-3, 5), Fraction(0), Fraction(4, 7)]
    for lead, domain in ((Fraction(1, 70), Z), (Fraction(-1, 140), Z), (Fraction(2, 3), Q)):
        f = make([lead] + rest, Q)
        inverse(f)
        divide(make([0] + rest, Q), make([0, lead] + rest, Q))
        assert (blocks, route) == (([5], [Z]) if domain is Z else ([], [Q, Q]))
        route.clear()
        blocks.clear()


@pytest.fixture
def kernel_calls(monkeypatch):
    calls = []
    kernel = kernels.convolve_i64

    def counting(a, b):
        calls.append(a.shape[0] - 1)
        return kernel(a, b)

    monkeypatch.setattr(kernels, "convolve_i64", counting)
    return calls


def test_integral_q_convolution_reaches_the_kernel(kernel_calls):
    mobius, one = build("mobius", 500, Q), build("one", 500, Q)
    product = convolve(mobius, one)
    assert kernel_calls == [500]
    assert product == epsilon(500, Q)
    with kernels.use_backend("python"):
        assert convolve(mobius, one) == product
    assert kernel_calls == [500]


def test_large_denominators_fail_the_gate(kernel_calls):
    dens = DENOMINATORS["large"]
    f = make([Fraction(k % 7 - 3, dens[k % len(dens)]) for k in range(60)], Q)
    g = make([Fraction(1, dens[-1])] + [Fraction(k % 5, dens[1]) for k in range(59)], Q)
    got = convolve(f, g)
    assert kernel_calls == []
    assert got.values == ring._convolve_exact(f.values, g.values, 60, Fraction(0))
    small = make([Fraction(k % 7 - 3, k % 4 + 1) for k in range(60)], Q)
    assert convolve(small, small).values == ring._convolve_exact(
        small.values, small.values, 60, Fraction(0)
    )
    assert kernel_calls == [60]



@pytest.fixture
def scalings(monkeypatch):
    """Record the denominator of each scaling of values to integers."""
    seen = []
    scaled = ring._scaled

    def spy(values, den):
        seen.append(den)
        return scaled(values, den)

    monkeypatch.setattr(ring, "_scaled", spy)
    return seen


def test_harmonic_keeps_the_fraction_loops(scalings):
    """f(n) = 1/n has L = lcm(1..N), about 1.44 N bits: nothing is scaled."""
    n = 2000
    f = make([Fraction(1, k) for k in range(1, n + 1)], Q)
    assert ring._denominator(f.values) is None
    assert f._den is None
    product = convolve(f, f)
    assert product.values == ring._convolve_exact(f.values, f.values, n, Fraction(0))
    assert product.values[:6] == tuple(Fraction(t, k) for k, t in enumerate((1, 2, 2, 3, 2, 4), 1))
    mobius = build("mobius", n, Q)
    assert inverse(f).values == tuple(v / k for k, v in enumerate(mobius.values, 1))
    assert divide(product, f).quotient == f
    assert scalings == []
    # the lcm stops as soon as it is too wide, long before lcm(1..10^5)
    assert ring._denominator([Fraction(1, k) for k in range(1, 10**5 + 1)]) is None


def test_scale_width_bound(scalings):
    """L of exactly _MAX_SCALE_BITS bits is scaled; one bit more is not."""
    top = 1 << (ring._MAX_SCALE_BITS - 1)
    for den, scaled in ((top, True), (2 * top, False)):
        f = make([Fraction(1, den), Fraction(3, 2), Fraction(0), Fraction(-5, den)], Q)
        oracle = ring._convolve_exact(f.values, f.values, 4, Fraction(0))
        assert convolve(f, f).values == oracle
        assert inverse(f).values == _fraction_inverse(f)
        assert divide(f, f).quotient == epsilon(4, Q)
        # f is scaled once, at make; the routes compute on its store
        assert scalings == ([den] if scaled else [])
        scalings.clear()
