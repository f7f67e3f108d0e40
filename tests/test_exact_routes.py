"""Exact products and rank-1 solves on the int64 kernel, against the loops.

Past the int64 gate, ``ring._product`` rebuilds a product from its
residues modulo a few primes (``_convolve_crt``), and a rank-1 division
over Z is solved in doubling blocks (``_block_solve``), each block one
such product.  The oracles are the routes the ``python`` backend forces:
the divisor-pair loop ``_convolve_exact`` and the sequential solve
``_divide_solve``.  Values and witnesses must be identical.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arithring import (
    Domain,
    add,
    are_associates,
    build,
    convolve,
    divide,
    inverse,
    make,
    nu,
    scale,
)
from arithring import kernels, numutil, ring

from conftest import arith_funcs

Q, Z = Domain.Q, Domain.Z

backends = pytest.mark.parametrize("backend", kernels.BACKENDS)


@pytest.fixture
def kernel_calls(monkeypatch):
    """The bound of each call to the int64 kernel."""
    calls = []
    kernel = kernels.convolve_i64

    def counting(a, b):
        calls.append(a.shape[0] - 1)
        return kernel(a, b)

    monkeypatch.setattr(kernels, "convolve_i64", counting)
    return calls


def _spy(monkeypatch, name: str) -> list:
    """Record the arguments of each call to the ring function `name`."""
    seen = []
    fn = getattr(ring, name)

    def spy(*args):
        seen.append(args)
        return fn(*args)

    monkeypatch.setattr(ring, name, spy)
    return seen


def _operand(values):
    """The value list as a Z route operand: its store array and max |value|."""
    return ring._operand(ring._pack(values))


def _at(arr, lo=0) -> tuple:
    """A route's 1-indexed result on lo+1..n; it must be zero on 0..lo."""
    assert not arr[: lo + 1].any()
    return tuple(arr[lo + 1 :].tolist())


def _crt(a, b, n, bound, lo=0):
    primes = ring._crt_primes(n, bound)
    return _at(ring._convolve_crt(_operand(a), _operand(b), n, bound, primes, lo), lo)


def _convolve_z(a, b, n, lo=0) -> tuple:
    """The Z product of the value lists a and b on lo+1..n, as ``convolve`` takes it."""
    return _at(ring._product(_operand(a), _operand(b), n, lo), lo)


def _block_solve(a, b, n):
    """ring._block_solve of the value lists a and b: (quotient values or None, witness)."""
    q, witness = ring._block_solve(ring._pack(a), ring._pack(b), n)
    return (None if q is None else _at(q)), witness


def _gate_bound(a, b, n) -> int:
    return max(map(abs, a)) * max(map(abs, b)) * 2 * math.isqrt(n)


@st.composite
def wide_pairs(draw, max_n: int = 120, max_bits: int = 200):
    """Two value lists with per-operand widths and densities, and a start lo."""
    n = draw(st.integers(1, max_n))

    def operand():
        bits = draw(st.integers(1, max_bits))
        top = 1 << bits
        dense = draw(st.booleans())
        value = st.integers(-top, top)
        if not dense:
            value = st.one_of(st.just(0), st.just(0), st.just(0), value)
        values = draw(st.lists(value, min_size=n, max_size=n))
        values[draw(st.integers(0, n - 1))] = draw(st.sampled_from((top, -top)))
        return values

    return operand(), operand(), n, draw(st.integers(0, n))


# ---------------------------------------------------------------------------
# CRT convolution
# ---------------------------------------------------------------------------


@given(wide_pairs(), st.sampled_from((1, 7, ring._REBUILD_CHUNK)))
@settings(max_examples=80)
def test_crt_matches_the_exact_loop(case, chunk):
    a, b, n, lo = case
    want = ring._convolve_exact(a, b, n, 0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ring, "_REBUILD_CHUNK", chunk)
        assert _crt(a, b, n, _gate_bound(a, b, n), lo) == want[lo:]
    assert ring._convolve_exact(a, b, n, 0, lo) == want[lo:]


@backends
@given(wide_pairs(max_n=400, max_bits=90))
@settings(max_examples=40)
def test_convolve_z_matches_the_exact_loop(backend, case):
    a, b, n, lo = case
    with kernels.use_backend(backend):
        got = _convolve_z(a, b, n, lo)
    assert got == ring._convolve_exact(a, b, n, 0, lo)


@pytest.mark.parametrize("n", [1, 3, 1024])
def test_int64_gate_edge(n, kernel_calls):
    """The largest B = max|a| max|b| 2 isqrt(n) below 2**62 these inputs reach
    takes the kernel (B is even, so never 2**62 - 1); at B = 2**62 the product
    is rebuilt from residues or looped, with identical values."""
    s2 = 2 * math.isqrt(n)
    for big, takes_kernel in (((1 << 62) - 2) // s2, True), ((1 << 62) // s2, False):
        a = [big] + [(-1) ** k * (big - k) for k in range(1, n)]
        b = [1, -1] * (n // 2) + [1] * (n % 2)
        assert _gate_bound(a, b, n) == big * s2
        assert kernels.convolution_fits_i64(big, 1, n) == takes_kernel
        got = _convolve_z(a, b, n)
        assert got == ring._convolve_exact(a, b, n, 0)
        if takes_kernel:
            assert kernel_calls == [n]
        else:  # at n = 1024 the dense product takes the CRT: one call per prime
            primes = ring._crt_primes(n, big * s2)
            assert kernel_calls == ([n] * len(primes) if n == 1024 else [])
        kernel_calls.clear()


@pytest.mark.parametrize("extreme", [(1 << 63) - 1, -(1 << 63), 1 << 63, -(1 << 63) - 1])
@pytest.mark.parametrize("n, crt", [(1024, True), (6, False)])
def test_int64_edge_values(extreme, n, crt, kernel_calls):
    """The int64 extremes pack as int64 and the values past them as object;
    all fail the gate and take the CRT (dense, n = 1024) or the loop (n = 6)."""
    a = [extreme] + [(-1) ** m * (extreme // (m + 1)) for m in range(1, n)]
    b = [m % 5 - 2 for m in range(n)]
    fits = -(1 << 63) <= extreme < 1 << 63
    assert ring._pack(a).dtype == (np.int64 if fits else object)
    got = _convolve_z(a, b, n)
    assert got == ring._convolve_exact(a, b, n, 0)
    k = len(ring._crt_primes(n, _gate_bound(a, b, n)))
    assert kernel_calls == ([n] * k if crt else [])


def test_zero_beside_a_wide_operand_skips_the_kernel(kernel_calls):
    """A zero operand has max 0, so only the dtype keeps object values from the kernel."""
    n = 300
    wide, zero = [(1 << 70) + m for m in range(n)], [0] * n
    assert ring._try_convolve_i64(_operand(wide), _operand(zero), n) is None
    assert ring._try_convolve_i64(_operand(zero), _operand(wide), n) is None
    assert _convolve_z(wide, zero, n) == _convolve_z(zero, wide, n) == (0,) * n
    assert _convolve_z(wide, zero, n, n // 2) == (0,) * (n - n // 2)
    assert kernel_calls == []


@pytest.mark.parametrize("n", [1, 16, 1000])
@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_prime_count_steps(n, k):
    """k primes cover 2 * bound just below their product; one more bound needs k + 1.

    The outputs reach +-bound, so y = x + bound meets both ends of [0, 2 * bound].
    """
    top = math.prod(ring._crt_primes(n, 1 << 200)[:k])
    for bound, count in (((top - 1) // 2, k), ((top + 1) // 2, k + 1)):
        assert len(ring._crt_primes(n, bound)) == count
        a = [bound] + [0] * (n - 1)
        b = [(1, -1, 0)[m % 3] for m in range(n)]
        got = _crt(a, b, n, bound)
        assert got == ring._convolve_exact(a, b, n, 0)
        assert got[0] == bound and (n < 2 or got[1] == -bound)


def test_prime_cap():
    """The table stops at _CRT_MAX_PRIMES: one bound more falls back to the loop."""
    n = 64
    primes = ring._crt_primes(n, 1 << 2000)
    assert primes is None
    h = (62 - (2 * math.isqrt(n)).bit_length()) // 2
    cap = [ring._crt_prime(h, i) for i in range(ring._CRT_MAX_PRIMES)]
    limit = math.prod(cap)
    assert ring._crt_primes(n, (limit - 1) // 2) == cap
    assert ring._crt_primes(n, (limit + 1) // 2) is None
    a = [(limit - 1) // 2, 3, -5, 7] * (n // 4)
    assert _convolve_z(a, a, n) == ring._convolve_exact(a, a, n, 0)


# n at each edge where 2 * isqrt(n) gains a bit, up to 10**9
TABLE_NS = sorted({1, 2, 3, 10**9} | {v for j in range(1, 15) for v in (4**j - 1, 4**j)})


@pytest.mark.parametrize("n", TABLE_NS)
def test_prime_table_is_sound(n):
    """Every chosen prime is a proven prime whose residue products pass the gate."""
    widest = (1 << 63) ** 2 * 2 * math.isqrt(n)  # two int64 extremes
    for bound in (1 << 62, widest, widest << 100):
        primes = ring._crt_primes(n, bound)
        assert len(set(primes)) == len(primes)
        assert math.prod(primes) > 2 * bound
        assert math.prod(primes[:-1]) <= 2 * bound
        for p in primes:
            assert numutil.is_prime(p)
            assert kernels.convolution_fits_i64(p - 1, p - 1, n)


def _crossover_operands(n: int, pairs: int, bits: int = 40):
    """A sparse operand whose exact loop visits `pairs` (at least n) divisor
    pairs, and a dense one.  The sparse one is nonzero at d = 1, 2, ... while
    more than n // 2 pairs are left, then at that many d above n // 2, each
    adding one pair."""
    top = 1 << bits
    sparse = [0] * n
    left, d = pairs, 1
    while left > n - n // 2:
        sparse[d - 1] = top - d
        left -= n // d
        d += 1
    for d in range(n // 2 + 1, n // 2 + 1 + left):
        sparse[d - 1] = top - d
    assert sum(n // d for d in range(1, n + 1) if sparse[d - 1]) == pairs
    dense = [(-1) ** m * (top - m) for m in range(n)]
    return sparse, dense


def test_sparse_crossover(kernel_calls):
    """At most k (n + _CRT_PASS_PAIRS 2 isqrt(n)) loop pairs keep the loop; one more takes the CRT."""
    n = 1024
    probe, dense = _crossover_operands(n, n)
    k = len(ring._crt_primes(n, _gate_bound(probe, dense, n)))
    limit = k * (n + ring._CRT_PASS_PAIRS * 2 * math.isqrt(n))
    for pairs, calls in ((limit, []), (limit + 1, [n] * k)):
        sparse, dense = _crossover_operands(n, pairs)
        assert len(ring._crt_primes(n, _gate_bound(sparse, dense, n))) == k
        got = _convolve_z(dense, sparse, n)
        assert got == ring._convolve_exact(sparse, dense, n, 0)
        assert kernel_calls == calls
        kernel_calls.clear()


def test_sparse_operand_goes_outside():
    """epsilon * f and f * epsilon are equal and both loop over f once."""

    class Counted(int):
        def __bool__(self):
            tests[0] += 1
            return int.__bool__(self)

    tests = [0]
    n = 2000
    eps = [Counted(1)] + [Counted(0)] * (n - 1)
    f = [Counted(m % 7 - 3) for m in range(n)]
    left = ring._convolve_exact(eps, f, n, 0)
    assert tests[0] <= 2 * n
    tests[0] = 0
    right = ring._convolve_exact(f, eps, n, 0)
    assert tests[0] <= 2 * n
    assert left == right == tuple(f)


# ---------------------------------------------------------------------------
# rank-1 solves in doubling blocks
# ---------------------------------------------------------------------------


def _oracle(a, b, n, lead_idx=1, domain=Z):
    with kernels.use_backend("python"):
        return ring._divide_solve(a, b, n, lead_idx, domain)


@st.composite
def rank_one_divisions(draw, max_n: int = 80, max_bits: int = 70):
    """(a, b, n) with b of rank 1: a = b * q, perhaps off by one at a chosen index."""
    n = draw(st.sampled_from((1, 2, 3, 4, 5, 8, 9, 16, 17, 31, 32, 33, 64, 65))
             | st.integers(1, max_n))
    bits = draw(st.integers(1, max_bits))
    values = st.integers(-(1 << bits), 1 << bits)
    lead = draw(st.sampled_from((1, -1, 2, -2, 3, -7, 1 << 40, -(1 << 70) - 1)))
    b = [lead] + draw(st.lists(values, min_size=n - 1, max_size=n - 1))
    q = draw(st.lists(values, min_size=n, max_size=n))
    a = list(ring._convolve_exact(b, q, n, 0))
    edges = sorted({1, 2, 3, n} | {v for j in range(7) for v in (1 << j, (1 << j) + 1)})
    at = draw(st.sampled_from([e for e in edges if e <= n]))
    if draw(st.booleans()):
        a[at - 1] += draw(st.sampled_from((1, -1, lead)))
    return a, b, n


@given(rank_one_divisions())
@settings(max_examples=150)
def test_block_solve_matches_the_sequential_solve(case):
    a, b, n = case
    assert _block_solve(a, b, n) == _oracle(a, b, n)


@pytest.mark.parametrize("lead", [2, -3, 1 << 45])
@pytest.mark.parametrize("n", [1, 2, 3, 64, 200])
def test_witness_at_every_block_edge(lead, n):
    b = [lead] + [(-1) ** m * (m * 7919 % 1000003) << 30 for m in range(1, n)]
    q = [(m * 104729 % 999983) << 35 for m in range(1, n + 1)]
    exact = list(ring._convolve_exact(b, q, n, 0))
    assert _block_solve(exact, b, n) == (tuple(q), None)
    for at in sorted({1, 2, 3, n} | {v for j in range(8) for v in (1 << j, (1 << j) + 1)}):
        if at > n:
            continue
        a = list(exact)
        a[at - 1] += 1
        assert _block_solve(a, b, n) == (None, at) == _oracle(a, b, n)


def test_wide_blocks_take_the_crt(kernel_calls, monkeypatch):
    """Blocks past the gate are CRT products; the solve stays identical."""
    crt = _spy(monkeypatch, "_convolve_crt")
    n = 2000
    b = [-5] + [(m * 7919 % 1000003 - 500000) << 24 for m in range(1, n)]
    q = [(m * 104729 % 999983 - 500000) << 20 for m in range(1, n + 1)]
    a = list(ring._convolve_exact(b, q, n, 0))
    assert _block_solve(a, b, n) == (tuple(q), None) == _oracle(a, b, n)
    assert crt and kernel_calls


def test_blocks_of_a_divisor_past_int64(kernel_calls, monkeypatch):
    """A divisor packed as object: its blocks take the CRT, witnesses included."""
    crt = _spy(monkeypatch, "_convolve_crt")
    n = 2000
    b = [3] + [(m * 7919 % 1000003 - 500000) << 60 for m in range(1, n)]
    q = [(m * 104729 % 999983 - 500000) << 8 for m in range(1, n + 1)]
    assert ring._pack(b).dtype == object
    a = list(ring._convolve_exact(b, q, n, 0))
    assert _block_solve(a, b, n) == (tuple(q), None) == _oracle(a, b, n)
    assert crt and kernel_calls
    a[1500] += 1
    assert _block_solve(a, b, n) == (None, 1501) == _oracle(a, b, n)


def test_block_solve_packs_its_divisor_once(monkeypatch):
    """One operand of b without b(1) per solve, one product per block, and no pack."""
    n = 200
    b = [1] + [m % 7 - 3 for m in range(1, n)]
    q = [m % 5 - 2 for m in range(n)]
    a = ring._pack(list(ring._convolve_exact(b, q, n, 0)))
    b_store = ring._pack(b)
    packs = _spy(monkeypatch, "_pack")
    operands = _spy(monkeypatch, "_operand")
    products = _spy(monkeypatch, "_product")
    got, witness = ring._block_solve(a, b_store, n)
    assert (_at(got), witness) == (tuple(q), None)
    assert packs == []
    assert len(operands) == 1 and _at(operands[0][0]) == (0, *b[1:])
    # blocks (1, 2], (2, 4], ..., (128, 200], each one product; (0, 1] needs none
    assert len(products) == math.ceil(math.log2(n))


def test_block_quotient_stays_int64_while_it_fits(monkeypatch):
    """Object residuals whose quotients fit leave g int64, so every block's
    product reads g as int64 and its residues cost one C-level pass."""
    n = 300
    b = [3] + [(m * 7919 % 1009 - 500) << 40 for m in range(1, n)]
    q = [(m * 104729 % 1013 - 500) << 20 for m in range(1, n + 1)]
    a = ring._pack(list(ring._convolve_exact(b, q, n, 0)))
    assert a.dtype == object
    products = _spy(monkeypatch, "_product")
    got, witness = ring._block_solve(a, ring._pack(b), n)
    assert (_at(got), witness) == (tuple(q), None) and got.dtype == np.int64
    assert products and all(g.dtype == np.int64 for _, (g, _), *_ in products)


@backends
@given(arith_funcs(Z, max_bound=40, max_abs=4), arith_funcs(Z, max_bound=40, max_abs=4))
@settings(max_examples=60)
def test_divide_and_inverse_match_the_oracle(backend, num, den):
    n = min(num.bound, den.bound)
    r = next((i + 1 for i, v in enumerate(den.values[:n]) if v), None)
    if r is None:
        return
    with kernels.use_backend(backend):
        got = divide(num, den)
        inv = inverse(den) if den.values[0] in (1, -1) else None
    want, witness = _oracle(num.values[:n], den.values[:n], n, r)
    assert got.witness == witness
    assert (got.quotient and got.quotient.values) == want
    if inv is not None:
        assert inv.values == _oracle((1,) + (0,) * (den.bound - 1), den.values, den.bound)[0]


def test_rank_above_one_keeps_the_sequential_solve(monkeypatch):
    blocks = _spy(monkeypatch, "_block_solve")
    solves = _spy(monkeypatch, "_divide_solve")
    den = make([0, 3, 1, -2, 5, 0, 1, 1], Z)
    num = convolve(den, make([1, 2, 3, 4, 5, 6, 7, 8], Z))
    assert divide(num, den).witness is None
    assert blocks == [] and [args[-1] for args in solves] == [Z]
    divide(make([1, 2, 3, 4, 5, 6, 7, 8], Z), make([-2, 1, 0, 1, 1, 1, 1, 1], Z))
    assert len(blocks) == 1 and len(solves) == 1


def test_python_backend_forces_the_loops(monkeypatch, kernel_calls):
    blocks = _spy(monkeypatch, "_block_solve")
    crt = _spy(monkeypatch, "_convolve_crt")
    f = make([3] + [(m * 7919 % 1009) << 40 for m in range(1, 1000)], Z)
    g = make([-1] + [(m * 104729 % 1013) << 40 for m in range(1, 1000)], Z)
    with kernels.use_backend("python"):
        h = convolve(f, g)
        assert divide(h, f).quotient == g
        inverse(g)
    assert (blocks, crt, kernel_calls) == ([], [], [])
    assert convolve(f, g) == h
    assert crt and kernel_calls


def test_q_solves_run_in_blocks_over_z(monkeypatch):
    """A +-1/L lead takes the block solve over Z; the values stay Fractions."""
    blocks = _spy(monkeypatch, "_block_solve")
    f = make([Fraction(-1, 6)] + [Fraction(m % 5 - 2, (1, 2, 3)[m % 3]) for m in range(1, 90)], Q)
    g = make([Fraction(m % 7 - 3, (1, 2)[m % 2]) for m in range(90)], Q)
    h = convolve(f, g)
    assert divide(h, f).quotient == g
    with kernels.use_backend("python"):
        oracle = ring._divide_solve(h.values, f.values, 90, 1, Q)
        assert divide(h, f).quotient.values == oracle[0]
        inv = inverse(f)
    assert inverse(f) == inv
    assert all(type(v) is Fraction for v in inv.values)
    assert len(blocks) == 2


def test_q_inverse_makes_no_pass_over_epsilon(monkeypatch):
    f = make([Fraction(1, 12), Fraction(1, 3), Fraction(-1, 4), Fraction(0), Fraction(5, 6)], Q)
    dens = _spy(monkeypatch, "_denominator")
    g = inverse(f)
    assert dens == []
    with kernels.use_backend("python"):
        assert g.values == ring._divide_solve(
            (Fraction(1),) + (Fraction(0),) * 4, f.values, 5, 1, Q
        )[0]


# ---------------------------------------------------------------------------
# associates over Z
# ---------------------------------------------------------------------------


def _h(n: int = 300):
    f = make([6] + [(m * 7919 % 1009 - 500) << 30 for m in range(1, n)], Z)
    g = make([-5] + [(m * 104729 % 1013 - 500) << 30 for m in range(1, n)], Z)
    return convolve(f, g)


def test_unequal_leads_are_not_associates_before_dividing(monkeypatch):
    divisions = []
    real = ring.divide
    monkeypatch.setattr(ring, "divide", lambda *args: divisions.append(args) or real(*args))
    h = _h()
    assert not are_associates(h, scale(h, 2))
    assert divisions == []
    assert are_associates(h, scale(h, -1))
    assert len(divisions) == 1
    assert not are_associates(h, add(h, nu(h.bound, h.bound, Z)))


# ---------------------------------------------------------------------------
# add, scale and build: identical under both backends
# ---------------------------------------------------------------------------


def _both_backends(fn, *args):
    results = []
    for backend in kernels.BACKENDS:
        with kernels.use_backend(backend):
            results.append(fn(*args))
    return results


def _identical(x, y) -> bool:
    return x == y and [type(v) for v in x.values] == [type(v) for v in y.values]


@pytest.mark.parametrize("domain", [Q, Z])
@given(data=st.data())
@settings(max_examples=40)
def test_add_and_scale_agree_across_backends(domain, data):
    f = data.draw(arith_funcs(domain, max_bound=40))
    g = data.draw(arith_funcs(domain, max_bound=40))
    c = data.draw(st.integers(-(1 << 70), 1 << 70))
    assert _identical(*_both_backends(add, f, g))
    assert _identical(*_both_backends(scale, f, c))


BUILD_NAMES = ("one", "epsilon", "mobius", "euler_phi", "tau", "liouville_lambda",
               "prime_char", "pi_squared", "id", "sigma")


@given(
    st.one_of(
        st.sampled_from(BUILD_NAMES),
        st.builds("id_{}".format, st.integers(1, 8)),
        st.builds("sigma_{}".format, st.integers(0, 8)),
    ),
    st.integers(1, 600),
    st.sampled_from((Q, Z)),
)
@settings(max_examples=40)
def test_build_agrees_across_backends(name, n, domain):
    assert _identical(*_both_backends(build, name, n, domain))
