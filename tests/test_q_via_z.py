"""Q arithmetic through the integer routes, against the Fraction solves.

A ``Domain.Q`` function stores integers F over their least common
denominator L, and ``convolve``, ``inverse`` and ``divide`` run the ``Z``
routes on F, whatever the divisor's leading value: a lead other than
+-1/L scales the dividend by a power of the divisor's integer lead first.
The oracles are the ``Fraction`` loops those routes replace, which the
library keeps only for L wider than ``ring._MAX_SCALE_BITS``:
``_convolve_exact`` with a ``Fraction`` zero, and ``_divide_solve`` over
``Domain.Q``.  The inverse is the quotient of epsilon, so its oracle is
``_divide_solve`` of epsilon.  Each differential test runs on two stores
(conftest's ``stores``): F in int64, where the int64 kernel runs, and F
widened to Python ints, where products and solves run past its gate.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arithring import (
    Domain,
    are_associates,
    build,
    convolve,
    divide,
    epsilon,
    inverse,
    make,
    rank,
    scale,
)
from arithring import kernels, ring

from conftest import WIDE, stores, widen

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
# F(1) is a multiple of 2, 3 or 5 for these leads, so never +-1: the
# solve scales the dividend by a power of it
SCALED_LEADS = (Fraction(2, 3), Fraction(-5, 2), Fraction(3), Fraction(-2))


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
    """A nonzero leading value: +-1/L, solved as it is, or a lead the solve scales for."""
    if draw(st.booleans()):
        return draw(st.sampled_from(SCALED_LEADS))
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


def _store(f, wide: bool):
    return widen(f) if wide else f


@stores
@given(data=st.data())
@settings(max_examples=60)
def test_convolve_matches_fraction_loop(wide, data):
    kind = data.draw(st.sampled_from(sorted(DENOMINATORS)))
    f = _store(make(data.draw(rationals(kind)), Q), wide)
    g = _store(make(data.draw(rationals(kind)), Q), wide)
    n = min(f.bound, g.bound)
    got = convolve(f, g)
    assert got.values == ring._convolve_exact(f.values[:n], g.values[:n], n, Fraction(0))
    assert _all_fractions(got)


@stores
@given(data=st.data())
@settings(max_examples=60)
def test_inverse_matches_fraction_solve(wide, data):
    f = _store(data.draw(units_q(data.draw(st.sampled_from(sorted(DENOMINATORS))))), wide)
    got = inverse(f)
    assert got.values == _fraction_inverse(f)
    assert _all_fractions(got)


@stores
@given(data=st.data())
@settings(max_examples=80)
def test_divide_matches_fraction_solve(wide, data):
    kind = data.draw(st.sampled_from(sorted(DENOMINATORS)))
    den = _store(data.draw(divisors_q(kind)), wide)
    num = _store(make(data.draw(rationals(kind, min_size=4)), Q), wide)  # rank(den) <= 4 <= n
    if data.draw(st.booleans()):  # exactly divisible: num = den * q
        num = convolve(den, num)
    n = min(num.bound, den.bound)
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


def test_every_lead_takes_the_z_solves(monkeypatch):
    """+-1/L leads and leads such as 2/3, 3 or -5/2 all take the Z solves.

    The rank-1 inverse is solved in blocks and the rank-2 division
    sequentially.
    """
    route = _route_of(monkeypatch, "_divide_solve")
    blocks = _route_of(monkeypatch, "_block_solve")  # records the bound
    rest = [Fraction(1, 2), Fraction(-3, 5), Fraction(0), Fraction(4, 7)]
    for lead in (Fraction(1, 70), Fraction(-1, 140), Fraction(2, 3), Fraction(3), Fraction(-5, 2)):
        f = make([lead] + rest, Q)
        inverse(f)
        divide(make([0] + rest, Q), make([0, lead] + rest, Q))
        assert (blocks, route) == ([5], [Z])
        route.clear()
        blocks.clear()


def test_scaled_leads_call_no_fraction_solve(monkeypatch):
    """A lead-3 inverse, a division by lead -5/2 at rank 2 and
    ``are_associates(2f, f)`` run on no Fraction solve and give its stores."""
    rest = [Fraction(k % 7 - 3, k % 3 + 1) for k in range(1, 400)]
    unit = make([Fraction(3)] + rest, Q)
    den = make([0, Fraction(-5, 2)] + rest[1:], Q)
    num = convolve(den, make(rest[::-1] + [Fraction(1, 3)], Q))
    route = _route_of(monkeypatch, "_divide_solve")
    got_inverse, got_quotient = inverse(unit), divide(num, den).quotient
    assert are_associates(scale(unit, 2), unit)
    assert divide(scale(unit, 2), unit).quotient == scale(epsilon(400, Q), 2)
    assert Q not in route
    monkeypatch.undo()
    assert got_inverse == make(_fraction_inverse(unit), Q)
    assert got_quotient == make(ring._divide_solve(num.values, den.values, 400, 2, Q)[0], Q)


def test_wide_l_keeps_the_fraction_solve(monkeypatch):
    """f(n) = 1/n stores Fractions, so its inverse is the Fraction solve."""
    f = make([Fraction(1, k) for k in range(1, 300)], Q)
    route = _route_of(monkeypatch, "_divide_solve")
    inverse(f)
    assert route == [Q]


# 2^k - 1, 2^k and 2^k + 1 for k = 5 and 10: the longest halving chain from
# N, so the power K of the lead that the solve scales by, steps at 2^k
EDGES = (31, 32, 33, 1023, 1024, 1025)
# b = 2 + nu_2 has inverse g(2^j) = (-1)^j / 2^(j + 1), so its L is
# 2^bit_length(N), all of the scaling |B(1)|^K.  b = 1/2 + nu_2 / 3 stores
# B = (3, 2, 0, ...) over L = 6: its rational lead has numerator 1, but each
# division is by B(1) = 3; g(2^j) = 2 (-2/3)^j.  Widened, b(2) is WIDE
# times larger, so g(2^j) is WIDE^j times larger, over the same L.
POWER_CHAINS = (
    ((2, 1), lambda j: Fraction((-1) ** j, 2 ** (j + 1))),
    ((Fraction(1, 2), Fraction(1, 3)), lambda j: 2 * Fraction(-2, 3) ** j),
)


@stores
@pytest.mark.parametrize("n", EDGES)
@pytest.mark.parametrize("head, value", POWER_CHAINS)
def test_inverse_along_the_longest_chain(wide, n, head, value):
    f = _store(make([*head] + [0] * (n - 2), Q), wide)
    got = inverse(f)
    assert got.values == _fraction_inverse(f)
    j = n.bit_length() - 1
    top = value(j) * (WIDE**j if wide else 1)
    assert got[2**j] == top
    assert got._den == top.denominator


@stores
@pytest.mark.parametrize("n", (1023, 1024, 1025))
@pytest.mark.parametrize("lead", (2, -3, 7))
@pytest.mark.parametrize("r", (2, 3))
def test_higher_rank_leads_match_fraction_solve(wide, n, lead, r):
    """Rank 2 and 3 divisors with leads 2, -3 and 7, divided exactly and
    with a witness planted at a non-multiple of r, give the Fraction solve's
    quotient and witness."""
    dens = (1, 2, 3, 5, 7)
    den = make([0] * (r - 1) + [lead] + [Fraction(k % 5 - 2, dens[k % 5]) for k in range(n - r)], Q)
    den = _store(den, wide)
    cofactor = make([Fraction(k % 7 - 3, dens[k % 3]) for k in range(n)], Q)
    exact = convolve(den, cofactor)
    at = n if n % r else n - 1  # the last non-multiple of r
    planted = exact + make([0] * (at - 1) + [Fraction(1, 3)] + [0] * (n - at), Q)
    for num, expected in ((exact, None), (planted, at)):
        got = divide(num, den)
        quotient, witness = ring._divide_solve(num.values, den.values, n, r, Q)
        assert got.witness == witness == expected
        assert got.quotient == (None if quotient is None else make(quotient, Q))


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
    assert product.values == ring._convolve_exact(mobius.values, one.values, 500, Fraction(0))
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
