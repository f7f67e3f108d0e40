"""Exact products and block solves on the int64 kernel, against the loops.

Past the int64 gate, ``ring._product`` rebuilds a product of two dense
operands from its residues modulo a few primes (``crt.product``), and
otherwise runs the kernel over ``object``; a division over Z by a divisor
of any rank r is solved in blocks (``_block_solve``), past a short
sequential head.  A block whose product would take the CRT is solved in
residues (``_residue_block``), any other on one such product.  The
oracles are conftest's divisor-pair loop ``exact_convolution`` and the
sequential solve ``_divide_solve``.  Values and witnesses must be
identical.
"""

from __future__ import annotations

import itertools
import math
import random
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
from arithring import crt, kernels, numutil, ring

from conftest import (
    PRIME_POWER_VALUES,
    arith_funcs,
    exact_convolution,
    exact_multiplicative,
    sigma_prime_power,
    stores,
    trial_division,
    widen,
    widened,
)

Q, Z = Domain.Q, Domain.Z


def _routes(calls) -> list:
    """(bound, dtype of a) of each recorded kernel call: int64 for the int64
    kernel and each CRT prime, object for the object kernel.  The bound is
    b's, since a sparse a is cut after its last nonzero value."""
    return [(b.shape[0] - 1, a.dtype) for a, b, _ in calls]


def _spy(monkeypatch, name: str, module=ring) -> list:
    """Record the arguments of each call to the function `name` of `module`."""
    seen = []
    fn = getattr(module, name)

    def spy(*args):
        seen.append(args)
        return fn(*args)

    monkeypatch.setattr(module, name, spy)
    return seen


def _operand(values):
    """The value list as a Z route operand: its store array and max |value|."""
    return ring._operand(ring._pack(values))


def _at(arr, lo=0) -> tuple:
    """A route's 1-indexed result on lo+1..n; it must be zero on 0..lo."""
    assert not arr[: lo + 1].any()
    return tuple(arr[lo + 1 :].tolist())


def _crt(a, b, n, bound, lo=0):
    """crt.product on the primes `bound` needs, past crt.MAX_PRIMES too."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(crt, "MAX_PRIMES", 64)
        primes = crt.primes_for(n, bound)
    return _at(crt.product(_operand(a), _operand(b), n, bound, primes, lo), lo)


def _convolve_z(a, b, n, lo=0) -> tuple:
    """The Z product of the value lists a and b on lo+1..n, as ``convolve`` takes it."""
    return _at(ring._product(_operand(a), _operand(b), n, lo), lo)


def _block_solve(a, b, n, r=1):
    """ring._block_solve of the value lists a and b, b of rank r: (quotient
    values or None, witness)."""
    q, witness = ring._block_solve(ring._pack(a), ring._pack(b), n, r)
    return (None if q is None else _at(q)), witness


def _gate_bound(a, b, n) -> int:
    return max(map(abs, a)) * max(map(abs, b)) * 2 * math.isqrt(n)


def _dense(a, b, n) -> bool:
    """Both value lists have more than 2 isqrt(n) nonzero values."""
    return min(len(a) - a.count(0), len(b) - b.count(0)) > 2 * math.isqrt(n)


def _cap(n: int) -> list:
    """The crt.MAX_PRIMES primes the CRT may take at bound n."""
    h = (62 - (2 * math.isqrt(n)).bit_length()) // 2
    return [crt.prime(h, i) for i in range(crt.MAX_PRIMES)]


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


I64_MIN, I64_MAX = -(1 << 63), (1 << 63) - 1


@pytest.mark.parametrize("n", [1, 80_000, 10**6])
def test_residue_matches_python_mod(n):
    """crt.residue is Python's % for every CRT prime at n, on int64 and
    object arrays, at the int64 extremes, 0, +-1, multiples of p and p +- 1."""
    for p in _cap(n):
        # below -2**63 + p the product (x // p) * p leaves int64 and wraps
        assert (I64_MIN // p) * p < I64_MIN
        xs = [I64_MIN, I64_MIN + 1, I64_MAX, 0, 1, -1, p, -p, 3 * p, -7 * p,
              (I64_MAX // p) * p, -(-I64_MIN // p) * p, p - 1, p + 1, -p - 1, -p + 1,
              I64_MIN + p - 1, I64_MAX - p + 1]
        want = [x % p for x in xs]
        for arr in (np.array(xs, np.int64), np.array(xs, object)):
            got = crt.residue(arr, p)
            assert got.dtype == np.int64 and got.tolist() == want, p


def test_crt_result_that_fits_is_stored_as_int64():
    """A CRT product from lo > 0 whose values fit int64 is zero on 0..lo, and
    the function built on it stores int64."""
    n, lo = 1024, 100
    a = [1 << 28] * n  # gate bound 2**56 * 2 * isqrt(n) = 2**62 fails
    bound = _gate_bound(a, a, n)
    assert not kernels.convolution_fits_i64(1 << 28, 1 << 28, n)
    primes = crt.primes_for(n, bound)
    out = crt.product(_operand(a), _operand(a), n, bound, primes, lo)
    assert _at(out, lo) == exact_convolution(a, a, n, 0, lo)
    f = ring.ArithFunc(Z, out, 1)
    assert f._num.dtype == np.int64
    assert f.values == (0,) * lo + exact_convolution(a, a, n, 0, lo)


@given(wide_pairs())
@settings(max_examples=80)
def test_crt_matches_the_exact_loop(case):
    a, b, n, lo = case
    want = exact_convolution(a, b, n, 0)
    assert _crt(a, b, n, _gate_bound(a, b, n), lo) == want[lo:]
    assert exact_convolution(a, b, n, 0, lo) == want[lo:]


@stores
@given(wide_pairs(max_n=400, max_bits=90))
@settings(max_examples=40)
def test_convolve_z_matches_the_exact_loop(wide, case):
    a, b, n, lo = case
    if wide:
        a, b = widened(a), widened(b)
    assert _convolve_z(a, b, n, lo) == exact_convolution(a, b, n, 0, lo)


@pytest.mark.parametrize("n", [1, 3, 1024])
def test_int64_gate_edge(n, kernel_inputs):
    """The largest B = max|a| max|b| 2 isqrt(n) below 2**62 these inputs reach
    takes the int64 kernel (B is even, so never 2**62 - 1); at B = 2**62 the
    product is rebuilt from residues (both operands dense, n = 3 and 1024)
    or taken by the object kernel (n = 1), with identical values."""
    s2 = 2 * math.isqrt(n)
    for big, takes_kernel in (((1 << 62) - 2) // s2, True), ((1 << 62) // s2, False):
        a = [big] + [(-1) ** k * (big - k) for k in range(1, n)]
        b = [1, -1] * (n // 2) + [1] * (n % 2)
        assert _gate_bound(a, b, n) == big * s2
        assert kernels.convolution_fits_i64(big, 1, n) == takes_kernel
        got = _convolve_z(a, b, n)
        assert got == exact_convolution(a, b, n, 0)
        if takes_kernel:
            assert _routes(kernel_inputs) == [(n, np.int64)]
        else:  # a dense product takes the CRT: one call per prime
            primes = crt.primes_for(n, big * s2)
            assert _dense(a, b, n) == (n > 1)
            want = [(n, np.int64)] * len(primes) if n > 1 else [(n, object)]
            assert _routes(kernel_inputs) == want
        kernel_inputs.clear()


@pytest.mark.parametrize("extreme", [(1 << 63) - 1, -(1 << 63), 1 << 63, -(1 << 63) - 1])
@pytest.mark.parametrize("n, via_crt", [(1024, True), (6, False)])
def test_int64_edge_values(extreme, n, via_crt, kernel_inputs):
    """The int64 extremes pack as int64 and the values past them as object;
    all fail the gate and take the CRT (dense, n = 1024) or the object kernel
    (n = 6, where b has 2 isqrt(6) = 4 nonzero values)."""
    a = [extreme] + [(-1) ** m * (extreme // (m + 1)) for m in range(1, n)]
    b = [m % 4 - 1 for m in range(n)]
    fits = -(1 << 63) <= extreme < 1 << 63
    assert ring._pack(a).dtype == (np.int64 if fits else object)
    got = _convolve_z(a, b, n)
    assert got == exact_convolution(a, b, n, 0)
    k = len(crt.primes_for(n, _gate_bound(a, b, n)))
    assert _dense(a, b, n) == via_crt
    assert _routes(kernel_inputs) == ([(n, np.int64)] * k if via_crt else [(n, object)])


def test_zero_beside_a_wide_operand_skips_the_kernel(kernel_inputs):
    """A zero operand has max 0, so only the dtype keeps object values from the
    int64 kernel; the product is the object kernel's, with the zero as a."""
    n = 300
    wide, zero = [(1 << 70) + m for m in range(n)], [0] * n
    assert _convolve_z(wide, zero, n) == _convolve_z(zero, wide, n) == (0,) * n
    assert _convolve_z(wide, zero, n, n // 2) == (0,) * (n - n // 2)
    assert [lo for *_, lo in kernel_inputs] == [0, 0, n // 2]
    assert all(a.dtype == b.dtype == object and not a.any() for a, b, _ in kernel_inputs)


@pytest.mark.parametrize("n", [1, 16, 1000])
@pytest.mark.parametrize("k", [1, 2, 3, 5, 7])
def test_prime_count_steps(n, k):
    """k primes cover 2 * bound just below their product; one more bound needs k + 1.
    At k = 7 the step reaches the cap of 8 primes.

    The outputs reach +-bound, so y = x + bound meets both ends of [0, 2 * bound].
    """
    top = math.prod(_cap(n)[:k])
    for bound, count in (((top - 1) // 2, k), ((top + 1) // 2, k + 1)):
        assert len(crt.primes_for(n, bound)) == count
        a = [bound] + [0] * (n - 1)
        b = [(1, -1, 0)[m % 3] for m in range(n)]
        got = _crt(a, b, n, bound)
        assert got == exact_convolution(a, b, n, 0)
        assert got[0] == bound and (n < 2 or got[1] == -bound)


def test_prime_cap(kernel_inputs):
    """The table stops at crt.MAX_PRIMES: a dense product whose bound needs
    that many primes (8) takes the CRT, one that needs 9 the object kernel."""
    n = 64
    assert crt.primes_for(n, 1 << 2000) is None
    cap = _cap(n)
    assert len(cap) == 8
    limit = math.prod(cap)
    assert crt.primes_for(n, (limit - 1) // 2) == cap
    assert crt.primes_for(n, (limit + 1) // 2) is None
    s2 = 2 * math.isqrt(n)
    b = [1, -1, 1, 1] * (n // 4)
    # bound = top * s2: 2 * bound < limit at the cap, 2 * bound > limit past it
    for top, k in ((limit // (2 * s2), len(cap)), (limit // (2 * s2) + 1, 0)):
        a = [top, 3, -5, 7] * (n // 4)
        assert len(crt.primes_for(n, _gate_bound(a, b, n)) or ()) == k
        assert _convolve_z(a, b, n) == exact_convolution(a, b, n, 0)
        assert _routes(kernel_inputs) == ([(n, np.int64)] * k if k else [(n, object)])
        kernel_inputs.clear()


# n at each edge where 2 * isqrt(n) gains a bit, up to 10**9
TABLE_NS = sorted({1, 2, 3, 10**9} | {v for j in range(1, 15) for v in (4**j - 1, 4**j)})


@pytest.mark.parametrize("n", TABLE_NS)
def test_prime_table_is_sound(n):
    """Every chosen prime is a proven prime whose residue products pass the
    gate, for bounds up to the largest within crt.MAX_PRIMES primes."""
    cap = math.prod(_cap(n))
    assert crt.primes_for(n, (cap + 1) // 2) is None
    for bound in (1 << 62, math.prod(_cap(n)[:-1]) // 2, (cap - 1) // 2):
        primes = crt.primes_for(n, bound)
        assert len(set(primes)) == len(primes)
        assert math.prod(primes) > 2 * bound
        assert math.prod(primes[:-1]) <= 2 * bound
        for p in primes:
            assert numutil.is_prime(p)
            assert kernels.convolution_fits_i64(p - 1, p - 1, n)


def test_sparse_crossover(kernel_inputs):
    """An operand with 2 isqrt(n) nonzero values takes one object kernel call,
    as a; one value more takes the CRT, one int64 kernel call per prime."""
    n = 1024
    s2 = 2 * math.isqrt(n)
    top = 1 << 40
    dense = [(-1) ** m * (top - m) for m in range(n)]
    for count in (s2, s2 + 1):
        sparse = [top - m if m % 5 == 0 and m < 5 * count else 0 for m in range(n)]
        assert n - sparse.count(0) == count
        k = len(crt.primes_for(n, _gate_bound(sparse, dense, n)))
        assert _convolve_z(dense, sparse, n) == exact_convolution(sparse, dense, n, 0)
        if count == s2:
            assert _routes(kernel_inputs) == [(n, object)]
            assert kernel_inputs[0][0][1:].tolist() == sparse[: 5 * (count - 1) + 1]
        else:
            assert _routes(kernel_inputs) == [(n, np.int64)] * k
        kernel_inputs.clear()


@pytest.mark.parametrize("lo", [0, 37])
def test_object_kernel_takes_the_sparse_operand_cut(kernel_inputs, lo):
    """Past the gate, the object kernel's a is the sparser operand up to its
    last nonzero value, in either order, and b the other one whole."""
    n = 1000
    sparse = [0] * n
    for m, v in ((0, 3), (6, -1 << 70), (40, 5)):
        sparse[m] = v
    dense = widened([m % 9 - 4 for m in range(n)])
    want = exact_convolution(sparse, dense, n, 0, lo)
    assert _convolve_z(sparse, dense, n, lo) == _convolve_z(dense, sparse, n, lo) == want
    assert _routes(kernel_inputs) == [(n, object)] * 2
    for a, b, at in kernel_inputs:
        assert a.tolist() == [0, *sparse[:41]] and b[1:].tolist() == dense and at == lo


def test_associates_quotient_enters_the_kernel_cut(kernel_inputs):
    """are_associates(h, -h) solves in blocks whose products have the
    quotient -epsilon as a: past the sequential head 1..9, each block
    (t // 2, t] is one kernel call from lo = t // 2 with a = [0, -1]."""
    h = _h()
    assert h._num.dtype == object
    kernel_inputs.clear()
    assert are_associates(h, scale(h, -1))
    assert [lo for *_, lo in kernel_inputs] == _edges(h.bound, 1)[:-1]
    assert all(a.tolist() == [0, -1] and b.dtype == object for a, b, _ in kernel_inputs)


def test_sparse_operand_goes_outside(kernel_inputs):
    """epsilon * f and f * epsilon past the gate give the kernel epsilon as a,
    cut after its one nonzero value."""
    n = 2000
    eps = [1] + [0] * (n - 1)
    f = widened([m % 7 - 3 for m in range(n)])
    assert _convolve_z(eps, f, n) == _convolve_z(f, eps, n) == tuple(f)
    assert len(kernel_inputs) == 2
    for a, b, _ in kernel_inputs:
        assert a.dtype == object and a.tolist() == [0, 1] and b[1:].tolist() == f


def test_int64_operands_past_the_gate_do_not_wrap():
    """Two int64 operands past the gate, one sparse, give an exact object product."""
    n = 1000
    big = (1 << 63) - 1
    sparse = [big - m if m % 100 == 0 else 0 for m in range(n)]
    dense = [(-1) ** m * (big - m) for m in range(n)]
    assert ring._pack(sparse).dtype == ring._pack(dense).dtype == np.int64
    want = exact_convolution(sparse, dense, n, 0)
    got = ring._product(_operand(dense), _operand(sparse), n)
    assert got.dtype == object and _at(got) == want
    assert convolve(make(dense, Z), make(sparse, Z)).values == want


# ---------------------------------------------------------------------------
# block solves: rank 1, then every rank
# ---------------------------------------------------------------------------


def _oracle(a, b, n, lead_idx=1):
    return ring._divide_solve(a, b, n, lead_idx, Z)


def _edges(n: int, r: int) -> list:
    """The ends of the head and of each block of a rank-r solve at bound n,
    ascending.  Back from n, the end below t is the least c whose block
    (c, (r + 1)(c // r + 1) - 1] reaches t, r (ceil((t + 1) / (r + 1)) - 1);
    the first end at most _HEAD r^2 is the head's."""
    ends = [n]
    while ends[-1] > ring._HEAD * r * r:
        ends.append(r * (-(-(ends[-1] + 1) // (r + 1)) - 1))
    return ends[::-1]


def _forward_edges(n: int, r: int) -> list:
    """The reference the schedule is measured against: blocks grown forward
    from min(n, _HEAD r^2), (r + 1)(c // r + 1) - 1 past each end c, up to n."""
    ends = [min(n, ring._HEAD * r * r)]
    while ends[-1] < n:
        ends.append(min((r + 1) * (ends[-1] // r + 1) - 1, n))
    return ends


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
    a = list(exact_convolution(b, q, n, 0))
    edges = sorted({1, 2, 3, n, *(v for c in _edges(n, 1) for v in (c, c + 1))}
                   | {v for j in range(7) for v in (1 << j, (1 << j) + 1)})
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
    exact = list(exact_convolution(b, q, n, 0))
    assert _block_solve(exact, b, n) == (tuple(q), None)
    for at in sorted({1, 2, 3, n, *(v for c in _edges(n, 1) for v in (c, c + 1))}
                     | {v for j in range(8) for v in (1 << j, (1 << j) + 1)}):
        if at > n:
            continue
        a = list(exact)
        a[at - 1] += 1
        assert _block_solve(a, b, n) == (None, at) == _oracle(a, b, n)


def _schedule_costs(ends: list) -> tuple:
    """(blocks past the head, sum of isqrt(top) over them): a block's kernel
    call makes about 2 isqrt(top) passes whatever its size."""
    return len(ends) - 1, sum(map(math.isqrt, ends[1:]))


@pytest.mark.parametrize("ranks, bound", [(range(1, 4), 20_000), (range(4, 41), 3000)])
def test_schedule_is_never_worse_than_growing_forward(ranks, bound):
    """The ends _block_solve takes, read from ring._block_ends, are
    _edges's and end at n; each block (c, t] lies within the reach (r + 1)
    (c // r + 1) - 1 of its solved prefix and holds a multiple of r; the
    head is at most min(n, 16 r^2); and against blocks grown forward from
    the head there are no more blocks and no larger sum of isqrt(top)."""
    for r in ranks:
        for n in range(1, bound + 1):
            ends = ring._block_ends(n, r)
            assert ends == _edges(n, r)
            assert ends[-1] == n and ends[0] <= min(n, ring._HEAD * r * r)
            assert all(c < t <= (r + 1) * (c // r + 1) - 1 and r * (c // r + 1) <= t
                       for c, t in zip(ends, ends[1:]))
            blocks, passes = _schedule_costs(ends)
            forward_blocks, forward_passes = _schedule_costs(_forward_edges(n, r))
            assert blocks <= forward_blocks and passes <= forward_passes


def test_last_block_ends_at_the_bound():
    """At N = 80 006 growing forward leaves a last block (69631, 80006]; built
    back from N, the 13 blocks are (t // 2, t] and make 18 % fewer passes."""
    ends = ring._block_ends(80_006, 1)
    assert ends == _edges(80_006, 1) == [9, 19, 39, 78, 156, 312, 625, 1250, 2500, 5000,
                                         10_000, 20_001, 40_003, 80_006]
    assert _forward_edges(80_006, 1)[-2:] == [69_631, 80_006]
    assert _schedule_costs(ends) == (13, 950)
    assert _schedule_costs(_forward_edges(80_006, 1)) == (13, 1161)


def _residue_steps(monkeypatch) -> list:
    """The lo of each block that ring._residue_block solves; it returns None
    on a block that takes the exact product."""
    solved = []
    step = ring._residue_block

    def spy(*args):
        out = step(*args)
        if out is not None:
            solved.append(args[4])
        return out

    monkeypatch.setattr(ring, "_residue_block", spy)
    return solved


def test_wide_blocks_take_the_crt(monkeypatch):
    """Every block past the gate is solved in residues, with no product
    rebuilt; the solve stays identical."""
    steps = _residue_steps(monkeypatch)
    products = _spy(monkeypatch, "_product")
    n = 2000
    b = [-5] + [(m * 7919 % 1000003 - 500000) << 24 for m in range(1, n)]
    q = [(m * 104729 % 999983 - 500000) << 20 for m in range(1, n + 1)]
    a = list(exact_convolution(b, q, n, 0))
    assert _block_solve(a, b, n) == (tuple(q), None) == _oracle(a, b, n)
    assert steps == _edges(n, 1)[:-1] and products == []


def test_blocks_of_a_divisor_past_int64(monkeypatch):
    """A divisor packed as object: its blocks are solved in residues,
    witnesses included."""
    steps = _residue_steps(monkeypatch)
    products = _spy(monkeypatch, "_product")
    n = 2000
    b = [3] + [(m * 7919 % 1000003 - 500000) << 60 for m in range(1, n)]
    q = [(m * 104729 % 999983 - 500000) << 8 for m in range(1, n + 1)]
    assert ring._pack(b).dtype == object
    a = list(exact_convolution(b, q, n, 0))
    assert _block_solve(a, b, n) == (tuple(q), None) == _oracle(a, b, n)
    assert steps == _edges(n, 1)[:-1] and products == []
    steps.clear()
    a[1500] += 1
    assert _block_solve(a, b, n) == (None, 1501) == _oracle(a, b, n)
    assert steps == [c for c in _edges(n, 1)[:-1] if c <= 1500] and products == []


def _wide_case(n: int, lead: int, r: int = 1, shift: int = 20):
    """(a, b, q): a dense exact rank-r division at bound n whose blocks fail
    the int64 gate, b about 44 bits wide and q about 20 + shift bits."""
    b = [0] * (r - 1) + [lead] + [(m * 7919 % 1000003 - 500000) << 24 for m in range(r, n)]
    q = [(m * 104729 % 999983 - 500000) << shift for m in range(1, n // r + 1)]
    q += [0] * (n - len(q))
    return list(exact_convolution(b, q, n, 0)), b, q


@pytest.mark.parametrize("top", [0, 61, 62, 63, 64, 123, 124, 125, 200])
def test_limbs_match_python(top):
    """An integer array as int64 limbs of 62 bits: they sum back to it, the
    limbs below the top one lie in [0, 2**62), their peak bounds max |value|
    (exactly for one limb) and their residues are Python's %."""
    big = 1 << top
    values = [0, 1, -1, big, -big, big - 1, 1 - big, big + 1, -big - 1,
              (1 << 62) - 1, -(1 << 62), I64_MAX, I64_MIN]
    arr = np.array([0, *values], object)
    limbs = crt.to_limbs(arr)
    assert all(limb.dtype == np.int64 for limb in limbs)
    assert len(limbs) == 1 + (top >= 63) + (top >= 125) + (top >= 187)
    assert all(limb.min() >= 0 and limb.max() < 1 << 62 for limb in limbs[:-1])
    assert [sum(int(limb[j]) << 62 * i for i, limb in enumerate(limbs))
            for j in range(len(arr))] == [0, *values]
    for part in (values, [v for v in values if v > 0], [v for v in values if v < 0]):
        peak, got = max(map(abs, part)), ring._limbs_peak(crt.to_limbs(np.array(part, object)))
        assert got >= peak and (peak >> 63 or got == peak)
    for p in _cap(80_000)[:3]:
        assert crt.limbs_residue(limbs, p).tolist() == [0, *(v % p for v in values)]


@pytest.mark.parametrize("shift", [48, 58])
def test_no_object_division_while_the_quotient_fits(monkeypatch, shift):
    """A block whose quotient fits int64 (2 T < 2**62) builds no product, no
    object residual and no quotient by the lead: no _product, _combine or
    crt.rebuild runs, and crt.residue reads int64 arrays alone.  b(2) =
    2**shift puts every block past the gate and, at shift 58, the dividend
    past int64, which enters as int64 limbs, once per block."""
    n = 300
    b = [(1 << 20) + 7, 1 << shift] + [m % 1001 - 500 for m in range(2, n)]
    q = [(m * 104729 % 8191) - 4095 for m in range(n)]
    a = ring._pack(list(exact_convolution(b, q, n, 0)))
    assert a.dtype == (object if shift == 58 else np.int64)
    spies = [_spy(monkeypatch, "_product"), _spy(monkeypatch, "_combine"),
             _spy(monkeypatch, "rebuild", crt)]
    steps = _residue_steps(monkeypatch)
    residues = _spy(monkeypatch, "residue", crt)
    limbs = _spy(monkeypatch, "to_limbs", crt)
    got, witness = ring._block_solve(a, ring._pack(b), n, 1)
    assert (_at(got), witness) == (tuple(q), None) and got.dtype == np.int64
    assert steps == _edges(n, 1)[:-1] and spies == [[], [], []]
    assert residues and all(arr.dtype == np.int64 for arr, _ in residues)
    ends = _edges(n, 1)
    assert [(len(arr), arr.dtype) for (arr,) in limbs] == [
        (top - lo, a.dtype) for lo, top in zip(ends, ends[1:])]


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("lead", [1, -1, 3, -3])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_residue_rule_at_its_bound(k, lead, r):
    """crt.solve_block at the largest bound k primes allow, B = (P - 1) // 2,
    against exact division.  Residuals of exactly +-B and quotients of
    exactly +-T, T = B // |lead|, at the window's edges y = 2 T and y = 0,
    are taken; lead (T + 1) - P and P - lead (T + 1), which have y = 2 T + 1
    and y = P - 1, and B - 1 are flagged unless lead divides them, as is
    +-B at a non-multiple of r.  k = 2 rebuilds q in int64, k = 3 on object."""
    top, lo = 63, 31
    primes = _cap(top)[:k]
    big = math.prod(primes)
    bound = (big - 1) // 2
    t, sign = bound // abs(lead), (1 if lead > 0 else -1)
    assert crt.primes_for(top, bound) == primes and (2 * t < 1 << 62) == (k == 2)
    rest = [0] + [(m * 7919 % 1009 - 504) << 30 for m in range(1, top)]
    g = [m * 104729 % 1013 - 506 for m in range(1, lo // r + 1)] + [0] * (top - lo // r)
    at_multiple = itertools.cycle((
        bound, -bound, lead * t, -lead * t, 0, bound - 1, 1 - bound,
        lead * (t + 1) - sign * big, sign * big - lead * (t + 1)))
    elsewhere = itertools.cycle((bound, -bound, 0))
    residual = [next(elsewhere if k_ % r else at_multiple) for k_ in range(lo + 1, top + 1)]
    assert max(map(abs, residual)) == bound
    below = exact_convolution(rest, g, top, 0, lo)
    a = np.array([x + y for x, y in zip(below, residual)], object)
    q, bad = crt.solve_block(crt.to_limbs(a), ring._pack(rest), ring._pack(g), lead, lo, r,
                                 bound, primes)
    assert q.dtype == (np.int64 if k == 2 else object)
    want = [divmod(v, lead) if k_ % r == 0 else (None, v)
            for k_, v in zip(range(lo + 1, top + 1), residual)]
    assert bad.tolist() == [rem != 0 for _, rem in want]
    at = [(quo, rem) for quo, rem in want if quo is not None]
    assert [v for v, (_, rem) in zip(q.tolist(), at) if rem == 0] == [
        quo for quo, rem in at if rem == 0]
    assert {t, -t} <= {quo for quo, rem in at if rem == 0}
    if abs(lead) > 1:  # y = 2 T + 1 and y = P - 1 are refused
        assert [rem != 0 for quo, rem in at][7:9] == [True] * 2


@pytest.mark.parametrize("t, dtype", [((1 << 61) - 1, np.int64), (1 << 61, object)])
def test_quotient_rebuild_gate_edge(t, dtype):
    """q is rebuilt in int64 exactly when 2 T < 2**62: at T = 2**61 - 1 the
    clamped Horner steps stay in int64, with quotients of +-T and residuals
    of +-B; at T = 2**61 on object, with the same verdicts."""
    top, lo, lead = 63, 31, 3
    bound = lead * t + 2
    primes = crt.primes_for(top, bound)
    assert bound // lead == t
    rest = [0] + [(m * 7919 % 1009 - 504) << 30 for m in range(1, top)]
    g = [m * 104729 % 1013 - 506 for m in range(1, lo + 1)] + [0] * (top - lo)
    cases = itertools.cycle((lead * t, -lead * t, bound, -bound, 0, bound - 1, lead * (t - 7)))
    residual = [next(cases) for _ in range(top - lo)]
    assert max(abs(v) for v in residual) == bound
    below = exact_convolution(rest, g, top, 0, lo)
    a = np.array([x + y for x, y in zip(below, residual)], object)
    q, bad = crt.solve_block(crt.to_limbs(a), ring._pack(rest), ring._pack(g), lead, lo, 1,
                                 bound, primes)
    want = [divmod(v, lead) for v in residual]
    assert q.dtype == dtype and bad.tolist() == [rem != 0 for _, rem in want]
    assert [v for v, (_, rem) in zip(q.tolist(), want) if not rem] == [
        quo for quo, rem in want if not rem]


@pytest.mark.parametrize("r, n", [(2, 400), (3, 700)])
def test_residual_a_multiple_of_one_crt_prime(monkeypatch, r, n):
    """A residual at a non-multiple of r that one CRT prime (or all but the
    last) divides is nonzero mod another prime: it is the witness."""
    a, b, q = _wide_case(n, -3, r)
    solves = _spy(monkeypatch, "solve_block", crt)
    assert _block_solve(a, b, n, r) == (tuple(q), None)
    blocks = [(s[4], s[4] + len(s[0]), s[7]) for s in solves]
    assert [lo for lo, *_ in blocks] == _edges(n, r)[:-1]
    for lo, top, primes in (blocks[0], blocks[-1]):
        k = next(k for k in range(top, lo, -1) if k % r)
        for extra in (primes[0], -primes[0], math.prod(primes[:-1])):
            bad = list(a)
            bad[k - 1] += extra
            assert _block_solve(bad, b, n, r) == (None, k) == _oracle(bad, b, n, r)


def test_lead_sharing_a_crt_prime_falls_back(monkeypatch):
    """A lead equal to the first CRT prime of the blocks at h = 28 sends them
    to the exact product; the other blocks take residues; values and
    witnesses stay the oracle's."""
    n = 2000
    lead = crt.prime(28, 0)
    a, b, q = _wide_case(n, lead)
    steps = _residue_steps(monkeypatch)
    products = _spy(monkeypatch, "_product")
    assert _block_solve(a, b, n) == (tuple(q), None) == _oracle(a, b, n)
    ends = _edges(n, 1)
    assert ends == [15, 31, 62, 125, 250, 500, 1000, 2000]
    assert steps == [15, 31, 1000]
    assert [(top, lo) for *_, top, lo in products] == [
        (125, 62), (250, 125), (500, 250), (1000, 500)]
    for at in (100, 1500):
        bad = list(a)
        bad[at - 1] += lead
        bad[at] += 1
        assert _block_solve(bad, b, n) == (None, at + 1) == _oracle(bad, b, n)


def test_quotient_past_int64_takes_the_object_rebuild(monkeypatch):
    """Quotients near 2**75 make 2 T pass 2**62: q is rebuilt on object, g
    turns object, and values and witnesses stay the oracle's."""
    n = 700
    a, b, q = _wide_case(n, 3, shift=55)
    rebuilds = _spy(monkeypatch, "rebuild", crt)
    steps = _residue_steps(monkeypatch)
    got, witness = ring._block_solve(ring._pack(a), ring._pack(b), n, 1)
    assert (_at(got), witness) == (tuple(q), None) == _oracle(a, b, n)
    assert got.dtype == object and steps == _edges(n, 1)[:-1] and len(rebuilds) == len(steps)
    a[600] += 1
    assert _block_solve(a, b, n) == (None, 601) == _oracle(a, b, n)


@pytest.mark.parametrize("lead", [-5, 3, (1 << 40) + 15])
def test_witness_in_the_first_and_last_crt_block(monkeypatch, lead):
    """A remainder at either end of the first block past the head, or at the
    last two indices, is the witness; a change by the lead divides and
    moves the witness to where the oracle finds it."""
    n = 2000
    a, b, q = _wide_case(n, lead)
    steps = _residue_steps(monkeypatch)
    assert _block_solve(a, b, n) == (tuple(q), None)
    ends = _edges(n, 1)
    assert steps == ends[:-1]
    for at in sorted({17, 33, ends[0] + 1, ends[1], n - 1, n}):
        for extra in (1, -1, lead):
            bad = list(a)
            bad[at - 1] += extra
            want = _oracle(bad, b, n)
            assert _block_solve(bad, b, n) == want
            assert want[1] == at or extra == lead


@st.composite
def wide_rank_r_divisions(draw):
    """(a, b, n, r): a = b * q at rank r in 1..5, with dense values of 20 to
    90 bits and a lead of +-1, +-3 or +-(2**40 + 15), perhaps off at a
    block edge."""
    r = draw(st.integers(1, 5))
    head = ring._HEAD * r * r
    n = draw(st.integers(head + 1, head + 300))
    lead = draw(st.sampled_from((1, -1, 3, -3, (1 << 40) + 15, -(1 << 40) - 15)))
    rng = random.Random(draw(st.integers(0, 1 << 32)))
    # widths whose sums fall on both sides of the gate and of 2 T = 2**62
    bits_b, bits_q = (draw(st.sampled_from((20, 30, 45, 60, 90))) for _ in range(2))
    b = [0] * (r - 1) + [lead] + [rng.randint(-(1 << bits_b), 1 << bits_b) for _ in range(r, n)]
    q = [rng.randint(-(1 << bits_q), 1 << bits_q) for _ in range(n // r)] + [0] * (n - n // r)
    a = list(exact_convolution(b, q, n, 0))
    ends = _edges(n, r)
    if draw(st.booleans()):
        at = draw(st.sampled_from(sorted({*ends, *(c + 1 for c in ends if c < n), n})))
        a[at - 1] += draw(st.sampled_from((1, -1, lead, (1 << 61) - 1)))
    return a, b, n, r


@given(wide_rank_r_divisions())
@settings(max_examples=60, deadline=None)
def test_wide_block_solve_matches_the_sequential_solve(case):
    a, b, n, r = case
    assert _block_solve(a, b, n, r) == _oracle(a, b, n, r)


def test_block_solve_packs_its_divisor_once(monkeypatch):
    """One operand of b without b(1) per solve, one product per block past the
    head, from lo = c at bound t for each block (c, t], and no pack."""
    n = 200
    b = [1] + [m % 7 - 3 for m in range(1, n)]
    q = [m % 5 - 2 for m in range(n)]
    a = ring._pack(list(exact_convolution(b, q, n, 0)))
    b_store = ring._pack(b)
    packs = _spy(monkeypatch, "_pack")
    operands = _spy(monkeypatch, "_operand")
    products = _spy(monkeypatch, "_product")
    got, witness = ring._block_solve(a, b_store, n, 1)
    assert (_at(got), witness) == (tuple(q), None)
    assert packs == []
    assert len(operands) == 1 and _at(operands[0][0]) == (0, *b[1:])
    # past the head 1..12, blocks (12, 25], (25, 50], (50, 100], (100, 200]
    assert [(top, lo) for *_, top, lo in products] == [(25, 12), (50, 25), (100, 50), (200, 100)]


def test_block_quotient_stays_int64_while_it_fits(monkeypatch):
    """Object residuals whose quotients fit leave g int64, so every block's
    residue step reads g as int64 and its residues cost one C-level pass."""
    n = 300
    b = [3] + [(m * 7919 % 1009 - 500) << 40 for m in range(1, n)]
    q = [(m * 104729 % 1013 - 500) << 20 for m in range(1, n + 1)]
    a = ring._pack(list(exact_convolution(b, q, n, 0)))
    assert a.dtype == object
    steps = _residue_steps(monkeypatch)
    solves = _spy(monkeypatch, "solve_block", crt)
    got, witness = ring._block_solve(a, ring._pack(b), n, 1)
    assert (_at(got), witness) == (tuple(q), None) and got.dtype == np.int64
    assert steps == _edges(n, 1)[:-1]
    assert all(g.dtype == np.int64 for _, _, g, *_ in solves)


@stores
@given(arith_funcs(Z, max_bound=40, max_abs=4), arith_funcs(Z, max_bound=40, max_abs=4))
@settings(max_examples=60)
def test_divide_and_inverse_match_the_oracle(wide, num, den):
    if wide:
        num, den = widen(num), widen(den)
    n = min(num.bound, den.bound)
    r = next((i + 1 for i, v in enumerate(den.values[:n]) if v), None)
    if r is None:
        return
    got = divide(num, den)
    inv = inverse(den) if den.values[0] in (1, -1) else None
    want, witness = _oracle(num.values[:n], den.values[:n], n, r)
    assert got.witness == witness
    assert (got.quotient and got.quotient.values) == want
    if inv is not None:
        assert inv.values == _oracle((1,) + (0,) * (den.bound - 1), den.values, den.bound)[0]


def test_every_rank_takes_the_block_solve(monkeypatch):
    """A divisor of rank r > 1 takes the block solve, which runs the
    sequential solve on its head alone: 1..N when N <= 16 r^2, else up to
    the first block end back from N that is at most 16 r^2."""
    cases = []
    for r, n in ((2, 8), (2, 200), (3, 500)):
        den = make([0] * (r - 1) + [3] + [m % 5 - 2 for m in range(r, n)], Z)
        num = convolve(den, make([m % 7 - 3 for m in range(n)], Z))
        cases.append((r, n, den, num, _oracle(num.values, den.values, n, r)[0]))
    blocks = _spy(monkeypatch, "_block_solve")
    solves = _spy(monkeypatch, "_divide_solve")
    products = _spy(monkeypatch, "_product")
    for r, n, den, num, want in cases:
        got = divide(num, den)
        assert got.witness is None and got.quotient.values == want
        assert [args[2:] for args in blocks] == [(n, r)]
        ends = _edges(n, r)
        assert [args[2:] for args in solves] == [(ends[0], r, Z)]
        assert [(top, lo) for *_, top, lo in products] == list(zip(ends[1:], ends))
        for seen in (blocks, solves, products):
            seen.clear()
    assert _edges(8, 2) == [8] and _edges(200, 2) == [58, 88, 132, 200]


@st.composite
def rank_r_divisions(draw):
    """(a, b, n, r) with b of rank r: a = b * q, perhaps off at a chosen index.

    n is r, r + 1, 2r + 1, the head's end 16 r^2 or one past it, or up to
    1000.  Lists this long come from a drawn seed; past n = 2000, b and q
    are sparse, so that the oracles stay fast."""
    r = draw(st.sampled_from((1, 2, 3, 4, 5, 6, 30, 100)))
    head = ring._HEAD * r * r
    n = draw(st.sampled_from((r, r + 1, 2 * r + 1, head, head + 1)) | st.integers(r, max(r, 1000)))
    lead = draw(st.sampled_from((1, -1, 2, -3, 5, 1 << 40)))
    rng = random.Random(draw(st.integers(0, 1 << 32)))
    top, density = 1 << draw(st.sampled_from((3, 30, 70))), 1 if n <= 2000 else 0.02

    def value():
        return rng.randint(-top, top) if rng.random() < density else 0

    b = [0] * (r - 1) + [lead] + [value() for _ in range(r, n)]
    q = [value() for _ in range(n // r)] + [0] * (n - n // r)
    a = list(exact_convolution(b, q, n, 0))
    ends = _edges(n, r)
    points = {1, r, r + 1, n, *ends, *(c + 1 for c in ends), rng.randint(1, n)}
    if draw(st.booleans()):
        a[draw(st.sampled_from(sorted(p for p in points if p <= n))) - 1] += draw(
            st.sampled_from((1, -1, lead)))
    return a, b, n, r


@given(rank_r_divisions())
@settings(max_examples=150, deadline=None)
def test_block_solve_matches_the_sequential_solve_at_every_rank(case):
    a, b, n, r = case
    assert _block_solve(a, b, n, r) == _oracle(a, b, n, r)


def _rank_r_case(r: int, n: int, lead: int):
    """(a, b, q) of a dense exact rank-r division at bound n."""
    b = [0] * (r - 1) + [lead] + [(-1) ** m * (m * 7919 % 1009) for m in range(r, n)]
    q = [m * 104729 % 1013 - 506 for m in range(1, n // r + 1)] + [0] * (n - n // r)
    return list(exact_convolution(b, q, n, 0)), b, q


def _route_cases(r: int, n: int, lead: int) -> dict:
    """(a, b, q) of an exact rank-r division at bound n per block route:
    an int64 dividend; an object dividend whose quotient, nonzero at 1, 2,
    3, 5 and 8 alone, keeps every block product off the CRT; and a dense
    wide one whose blocks are solved in residues."""
    b = [0] * (r - 1) + [lead] + [(m * 7919 % 1009 - 504) << 56 for m in range(r, n)]
    q = [(0, 7, -2, 5, 0, 3, 0, 0, -9)[m] if m < 9 else 0 for m in range(1, n + 1)]
    return {"int64": _rank_r_case(r, n, lead),
            "object": (list(exact_convolution(b, q, n, 0)), b, q),
            "residue": _wide_case(n, lead, r)}


@pytest.mark.parametrize("route", ["int64", "object", "residue"])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_witness_at_each_block_end_on_every_route(monkeypatch, route, r):
    """A remainder at a block's last index or at the next block's first
    index, n // 2 among them at r = 1, is the witness on each block route:
    the int64 product, the object product and the residues."""
    n = 1200
    a, b, q = _route_cases(r, n, -3)[route]
    ends = _edges(n, r)
    assert ring._pack(a).dtype == (np.int64 if route == "int64" else object)
    steps = _residue_steps(monkeypatch)
    assert _block_solve(a, b, n, r) == (tuple(q), None) == _oracle(a, b, n, r)
    assert steps == (ends[:-1] if route == "residue" else [])
    points = {v for c in ends[:-1] for v in (c, c + 1)} | {n}
    assert r > 1 or n // 2 in points
    for at in sorted(points):
        bad = list(a)
        bad[at - 1] += 1
        assert _block_solve(bad, b, n, r) == (None, at) == _oracle(bad, b, n, r)


@pytest.mark.parametrize("lead", [1, -3, 1 << 40])
@pytest.mark.parametrize("r", [2, 3, 5])
def test_rank_r_witnesses(r, lead):
    """Witnesses at a non-multiple of r inside a block, a remainder at a
    multiple, both edges of the head, each block's edges and the last
    index, N, a non-multiple of r.  Built back from N, every block holds
    a multiple of r, the last one included."""
    head = ring._HEAD * r * r
    # the least n past two blocks that is not a multiple of r
    n = next(n for n in range(head + 1, 20 * head) if len(_edges(n, r)) > 3 and n % r)
    ends = _edges(n, r)
    a, b, q = _rank_r_case(r, n, lead)
    assert _block_solve(a, b, n, r) == (tuple(q), None)
    assert all(r * (c // r + 1) <= top for c, top in zip(ends, ends[1:]))
    # both edges of the head and of each block, and r + 1 indices inside one
    points = {head, head + 1, n, *ends, *(c + 1 for c in ends[:-1])}
    points |= set(range(ends[1] + 2, ends[1] + r + 3))
    for at in sorted(points):
        bad = list(a)
        bad[at - 1] += 1
        want = _oracle(bad, b, n, r)
        assert _block_solve(bad, b, n, r) == want
        if at % r or lead != 1:  # a residual, or a remainder at a multiple
            assert want == (None, at)


@pytest.mark.parametrize("r", [2, 3, 5])
def test_first_failure_in_a_block_is_the_witness(r):
    """In the first block past the head, a remainder at a multiple of r
    before a nonzero residual at a non-multiple is the witness, and so is a
    residual before a remainder."""
    n = 40 * r * r
    head, end = _edges(n, r)[:2]
    a, b, _ = _rank_r_case(r, n, -3)
    k = r * (head // r + 1)  # the block's first multiple; k + r is in it too
    assert head < k and k + r <= end
    for first, second in ((k, k + 1), (k + r - 1, k + r)):
        bad = list(a)
        bad[first - 1] += 1
        bad[second - 1] += 1
        assert _block_solve(bad, b, n, r) == (None, first) == _oracle(bad, b, n, r)


def test_q_solves_run_in_blocks_over_z(monkeypatch):
    """A +-1/L lead takes the block solve over Z; the values stay Fractions."""
    blocks = _spy(monkeypatch, "_block_solve")
    f = make([Fraction(-1, 6)] + [Fraction(m % 5 - 2, (1, 2, 3)[m % 3]) for m in range(1, 90)], Q)
    g = make([Fraction(m % 7 - 3, (1, 2)[m % 2]) for m in range(90)], Q)
    h = convolve(f, g)
    assert divide(h, f).quotient == g
    assert g.values == ring._divide_solve(h.values, f.values, 90, 1, Q)[0]
    inv = inverse(f)
    assert inv.values == ring._divide_solve((1,) + (0,) * 89, f.values, 90, 1, Q)[0]
    assert all(type(v) is Fraction for v in inv.values)
    assert len(blocks) == 2


def test_q_inverse_makes_no_pass_over_epsilon(monkeypatch):
    f = make([Fraction(1, 12), Fraction(1, 3), Fraction(-1, 4), Fraction(0), Fraction(5, 6)], Q)
    dens = _spy(monkeypatch, "_denominator")
    g = inverse(f)
    assert dens == []
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
# add, scale and build against their oracles
# ---------------------------------------------------------------------------


def _values_in(domain: Domain, f) -> bool:
    """f's values are ints over Z and Fractions over Q."""
    return all(type(v) is (int if domain is Z else Fraction) for v in f.values)


@pytest.mark.parametrize("domain", [Q, Z])
@given(data=st.data())
@settings(max_examples=40)
def test_add_and_scale_agree_across_backends(domain, data):
    """add and scale against sums of values, and ``_combine`` on int64 and
    on ``object`` arrays of the same integers."""
    f = data.draw(arith_funcs(domain, max_bound=40))
    g = data.draw(arith_funcs(domain, max_bound=40))
    c = data.draw(st.integers(-(1 << 70), 1 << 70))
    total, scaled = add(f, g), scale(f, c)
    assert total == make([x + y for x, y in zip(f.values, g.values)], domain)
    assert scaled == make([c * v for v in f.values], domain)
    assert _values_in(domain, total) and _values_in(domain, scaled)
    n = min(f.bound, g.bound)
    F, G = f._num[: n + 1], g._num[: n + 1]
    want = [c * x - y for x, y in zip(F[1:].tolist(), G[1:].tolist())]
    fits = abs(c) * max(1, ring._peak(F)) + max(1, ring._peak(G)) < 1 << 63
    for (A, B), dtype in (((F, G), np.int64 if fits else object),
                          ((F.astype(object), G.astype(object)), object)):
        got = ring._combine((A, c), (B, -1))
        assert got.dtype == dtype and got[0] == 0 and got[1:].tolist() == want


class _Counted(int):
    """An int that records each product it takes part in."""

    products: list = []

    def __mul__(self, other):
        _Counted.products.append((int(self), other))
        return int(self) * other

    __rmul__ = __mul__


def test_combine_subtracts_and_shares_object_operands():
    """A -1 term is one subtraction, with no product by -1; a lone object
    term with c = 1 is returned as it is, so scale(f, 1) shares f's store,
    as an int64 one does; an int64 term beside an object one is cast."""
    x = np.array([0, *map(_Counted, (1 << 70, -3, 5))], object)
    y = np.array([0, *map(_Counted, (2, 1 << 65, -7))], object)
    _Counted.products.clear()
    got = ring._combine((x, 1), (y, -1))
    assert got.tolist() == [0, (1 << 70) - 2, -3 - (1 << 65), 12] and _Counted.products == []
    assert ring._combine((x, 1)) is x and _Counted.products == []
    assert ring._combine((x, 2), (y, -1)).tolist() == [0, (1 << 71) - 2, -6 - (1 << 65), 17]
    assert len(_Counted.products) == 3
    small = np.array([0, 4, 5, 6], np.int64)
    assert ring._combine((small, 1), (y, -1)).tolist() == [0, 2, 5 - (1 << 65), 13]
    for f in (make([1 << 70, 3], Z), make([1, 3], Z), make(["1/3", 1 << 70], Q)):
        assert scale(f, 1)._num is f._num and scale(f, 1) == f


BUILD_NAMES = ("one", "epsilon", "mobius", "euler_phi", "tau", "liouville_lambda",
               "prime_char", "pi_squared", "id", "sigma")


def _built_values(name: str, n: int) -> tuple:
    """The values of the built-in `name` on 1..n from the exact oracles."""
    name = {"id": "id_1", "sigma": "sigma_1"}.get(name, name)
    if name in PRIME_POWER_VALUES:
        return exact_multiplicative(n, PRIME_POWER_VALUES[name]).values
    head, _, k = name.rpartition("_")
    if head == "sigma":
        return exact_multiplicative(n, sigma_prime_power(int(k))).values
    if head == "id":
        return tuple(m ** int(k) for m in range(1, n + 1))
    primes = [trial_division(m) == [m] for m in range(1, n + 1)]
    return {"one": (1,) * n, "epsilon": (1,) + (0,) * (n - 1),
            "prime_char": tuple(map(int, primes)),
            "pi_squared": tuple(c * c for c in itertools.accumulate(primes))}[name]


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
    """Every built-in, on the int64 sieves and past their gates, against its oracle."""
    f = build(name, n, domain)
    assert f == make(_built_values(name, n), domain)
    assert _values_in(domain, f)
