"""Differential tests: the kernels against exact loops and the exact sieve."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from arithring import Domain, build, convolve, make
from arithring import crt, kernels, ring
from conftest import (
    PRIME_POWER_VALUES,
    exact_convolution,
    object_sieve,
    sigma_prime_power,
    trial_division,
)
from conftest import exact_multiplicative as _exact_multiplicative

# N = 1, 2, 3 and, around each s*s, the places where isqrt(N) or
# N // (isqrt(N) + 1) steps, so the row/column split moves.
EDGE_NS = sorted(
    {1, 2, 3}
    | {
        v
        for s in (2, 3, 5, 10, 31)
        for v in (s * s - 1, s * s, s * s + s - 1, s * s + s, s * s + 2 * s)
    }
)
KINDS = ("zero", "single", "sparse", "dense")


def _gate_max(n: int) -> int:
    """Largest M with M * M * 2 * isqrt(n) below 2**62."""
    return math.isqrt((kernels.I64_SAFE - 1) // (2 * math.isqrt(n)))


def _array(n, rng, kind, mag):
    arr = np.zeros(n + 1, np.int64)
    if kind == "single":
        arr[rng.randint(1, n)] = rng.choice((mag, -mag))
    elif kind == "sparse":
        for i in rng.sample(range(1, n + 1), max(1, n // 20)):
            arr[i] = rng.randint(-mag, mag) or mag
    elif kind == "dense":
        arr[1:] = [rng.randint(-mag, mag) for _ in range(n)]
        arr[rng.randint(1, n)] = -mag  # the extreme is always present
    return arr


def _exact(a: np.ndarray, b: np.ndarray) -> list:
    n = a.shape[0] - 1
    return list(exact_convolution(a[1:].tolist(), b[1:].tolist(), n, 0))


def _assert_kernel_matches_exact(n, rng, kind_a, kind_b, mag):
    a = _array(n, rng, kind_a, mag)
    b = _array(n, rng, kind_b, mag)
    assert kernels.convolution_fits_i64(mag, mag, n)
    got = kernels.convolve_i64(a, b)
    assert got[0] == 0
    assert got[1:].tolist() == _exact(a, b), (n, kind_a, kind_b, mag)


@pytest.mark.parametrize("n", EDGE_NS)
def test_convolve_matches_exact_at_split_edges(n, rng):
    for kind_a in KINDS:
        for kind_b in KINDS:
            _assert_kernel_matches_exact(n, rng, kind_a, kind_b, 9)
            _assert_kernel_matches_exact(n, rng, kind_a, kind_b, _gate_max(n))


def test_convolve_matches_exact_at_random_n(rng):
    for _ in range(12):
        n = rng.randint(1, 3000)
        for kind in KINDS:
            _assert_kernel_matches_exact(n, rng, kind, "dense", 9)
            _assert_kernel_matches_exact(n, rng, "dense", kind, _gate_max(n))


def test_convolve_asymmetric_gate_maxima(rng):
    for n in (1, 12, 99, 100, 1000):
        big = (kernels.I64_SAFE - 1) // (2 * math.isqrt(n))
        assert kernels.convolution_fits_i64(big, 1, n)
        a = _array(n, rng, "dense", big)
        b = _array(n, rng, "dense", 1)
        assert kernels.convolve_i64(a, b)[1:].tolist() == _exact(a, b)
        assert kernels.convolve_i64(b, a)[1:].tolist() == _exact(b, a)


def _kernel_operands(n, rng):
    """(a, b) pairs the kernel takes: int64, Python ints past 2**64,
    Fractions, mixed dtypes (int64 values near 2**63 beside object ones
    must not wrap), sparse operands and nu(1) on either side."""
    small, sparse = _array(n, rng, "dense", 9), _array(n, rng, "sparse", 9)
    huge = _array(n, rng, "dense", (1 << 63) - 1)
    wide = np.array([0] + [rng.randint(-(1 << 80), 1 << 80) for _ in range(n)], object)
    fractions = np.array(
        [0] + [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n)], object
    )
    nu1 = _array(n, rng, "zero", 1)
    nu1[1] = 1
    return [(small, sparse), (sparse, small), (wide, wide), (fractions, fractions),
            (small, wide), (wide, small), (fractions, small), (sparse, wide),
            (sparse.astype(object), huge), (huge, small.astype(object)),
            (nu1, wide), (wide, nu1), (nu1, small), (small, nu1), (fractions, nu1)]


@pytest.mark.parametrize("n", range(1, 41))
def test_kernel_matches_the_oracle_at_every_lo(n, rng):
    for a, b in _kernel_operands(n, rng):
        dtype = object if object in (a.dtype, b.dtype) else np.int64
        for lo in range(n + 1):
            got = kernels.convolve_i64(a, b, lo)
            assert got.dtype == dtype and got.shape == (n + 1,)
            assert got[: lo + 1].tolist() == [0] * (lo + 1)
            want = exact_convolution(a[1:].tolist(), b[1:].tolist(), n, 0, lo)
            assert got[lo + 1 :].tolist() == list(want), (n, lo, a.dtype, b.dtype)


@pytest.mark.parametrize("n", range(1, 41))
def test_kernel_with_a_shorter_a_matches_the_oracle_at_every_lo(n, rng):
    """An a shorter than b is zero past its end; n = len(b) - 1.  The cuts
    include nu(1), -epsilon, an a zero past isqrt(n) cut at its last
    nonzero value, a cut just past isqrt(n) and a random one."""
    s = math.isqrt(n)
    low = _array(n, rng, "dense", 9)
    low[s + 1 :] = 0
    low[s] = 7
    pairs = _kernel_operands(n, rng)
    pairs += [(np.array([0, 1]), b) for _, b in pairs[:3]]
    pairs += [(np.array([0, -1], object), b) for _, b in pairs[:3]]
    pairs += [(low[: s + 1], b) for _, b in pairs[:4]]
    for a, b in pairs:
        dtype = object if object in (a.dtype, b.dtype) else np.int64
        for end in sorted({len(a), s + 2, rng.randint(1, n + 1)}):
            cut = a[:end]
            padded = cut[1:].tolist() + [0] * (n + 1 - len(cut))
            for lo in range(n + 1):
                got = kernels.convolve_i64(cut, b, lo)
                assert got.dtype == dtype and got.shape == (n + 1,)
                assert got[: lo + 1].tolist() == [0] * (lo + 1)
                want = exact_convolution(padded, b[1:].tolist(), n, 0, lo)
                assert got[lo + 1 :].tolist() == list(want), (n, lo, len(cut), a.dtype, b.dtype)


SIEVES = {kernels.RULES[name][0]: value for name, value in PRIME_POWER_VALUES.items()}


@pytest.mark.parametrize(
    "n", sorted(set(EDGE_NS) | {16, 97, 300, 1000, 97 * 97 - 1, 97 * 97, 97 * 97 + 1, 2 * 9973})
)
def test_sieves_match_exact(n):
    for name, prime_power_value in SIEVES.items():
        got = getattr(kernels, name)(n)[1:].tolist()
        assert got == list(_exact_multiplicative(n, prime_power_value).values), name
    for k in (0, 1, 2, 3):
        want = _exact_multiplicative(n, sigma_prime_power(k))
        assert kernels.sigma_i64(n, k)[1:].tolist() == list(want.values), f"sigma k={k}"
    mask = kernels.primes_mask(n)
    assert not mask[0] and not mask[1]
    assert [i for i in range(2, n + 1) if mask[i]] == [
        i for i in range(2, n + 1) if trial_division(i) == [i]
    ]


@pytest.mark.parametrize("name", ["mobius", "euler_phi", "tau", "sigma_2", "liouville_lambda"])
def test_builders_match_across_backends(name):
    """The int64 sieve and the sieve over Python ints give the exact loop's store."""
    want = _exact_multiplicative(400, PRIME_POWER_VALUES.get(name, sigma_prime_power(2)))
    assert build(name, 400, Domain.Z) == object_sieve(name, 400) == want


def test_overflow_gate():
    assert kernels.convolution_fits_i64(9, 9, 10**6)
    assert not kernels.convolution_fits_i64(1 << 40, 1 << 40, 100)
    assert kernels.convolution_fits_i64(0, 0, 10**9)


# The bound max_a * max_b * 2 * isqrt(n) is always even, so 2**62 - 1 and
# 2**62 + 1 cannot occur: 2**62 - 2 is the largest accepted bound.
@pytest.mark.parametrize(
    "max_a, max_b, n, bound",
    [
        ((1 << 61) - 1, 1, 1, (1 << 62) - 2),
        (1, (1 << 61) - 1, 3, (1 << 62) - 2),
        (1 << 61, 1, 1, 1 << 62),
        ((1 << 61) + 1, 1, 2, (1 << 62) + 2),
        ((1 << 51) - 1, 1, 1 << 20, (1 << 62) - (1 << 11)),
        (1 << 25, 1 << 26, (1 << 20) + 5, 1 << 62),
    ],
)
def test_overflow_gate_boundary(max_a, max_b, n, bound):
    assert max_a * max_b * 2 * math.isqrt(n) == bound
    assert kernels.convolution_fits_i64(max_a, max_b, n) == (bound < 1 << 62)


@pytest.mark.parametrize("n", [2, 3, 6, 8, 12, 24])
def test_convolve_just_inside_gate_with_negative_extremes(n, kernel_inputs):
    # tau(n) = 2 * isqrt(n) for exactly these n, so out[n] reaches the
    # full bound -max_a * max_b * 2 * isqrt(n) just below -2**62.
    max_a = (kernels.I64_SAFE - 1) // (2 * math.isqrt(n))
    f = make([-max_a] * n, Domain.Z)
    g = make([1] * n, Domain.Z)
    got = convolve(f, g)
    # one call of the int64 kernel, on the int64 operands as stored
    [(a, b, _)] = kernel_inputs
    assert a.dtype == b.dtype == np.int64
    assert np.array_equal(a, f._num) and np.array_equal(b, g._num)
    assert got.values == exact_convolution(f.values, g.values, n, 0)
    assert got[n] == -max_a * 2 * math.isqrt(n) > -(1 << 62)


def _stored_as_made(f) -> None:
    """f stores int64 and equals, with the same hash, the store make builds
    from its values."""
    made = make(list(f.values), Domain.Z)
    assert f._num.dtype == made._num.dtype == np.int64
    assert f == made and hash(f) == hash(made)


# The same bound at 2**30: 2**30 - 2 is the largest the int32 route accepts.
@pytest.mark.parametrize(
    "max_a, max_b, n, bound",
    [
        ((1 << 29) - 1, 1, 1, (1 << 30) - 2),
        (1, (1 << 29) - 1, 3, (1 << 30) - 2),
        (1 << 29, 1, 1, 1 << 30),
        ((1 << 19) - 1, 1, 1 << 20, (1 << 30) - (1 << 11)),
        (1 << 9, 1 << 10, (1 << 20) + 5, 1 << 30),
    ],
)
def test_int32_gate_boundary(max_a, max_b, n, bound, kernel_inputs):
    """convolve hands the kernel int32 operands below 2**30 and int64 at it;
    both store int64 with the exact values."""
    assert max_a * max_b * 2 * math.isqrt(n) == bound
    narrow = bound < kernels.I32_SAFE
    assert kernels.convolution_fits_i64(max_a, max_b, n, kernels.I32_SAFE) == narrow
    assert kernels.convolution_fits_i64(max_a, max_b, n)
    m = min(n, 64)  # the operand values; the kernel runs on all of 1..n
    f = make([-max_a] + [(-1) ** k * (max_a - k) for k in range(1, m)] + [0] * (n - m), Domain.Z)
    g = make([max_b] + [0] * (n - 2) + [-max_b] * (n > 1), Domain.Z)
    got = convolve(f, g)
    [(a, b, lo)] = kernel_inputs
    width = np.int32 if narrow else np.int64
    assert a.dtype == b.dtype == width and lo == 0
    assert a.tolist() == f._num.tolist() and b.tolist() == g._num.tolist()
    assert got.values == exact_convolution(f.values, g.values, n, 0)
    _stored_as_made(got)


@pytest.mark.parametrize("max_b", [1, 7])
@pytest.mark.parametrize("n", [2, 3, 6, 8, 12, 24])
def test_convolve_just_inside_int32_gate_with_negative_extremes(n, max_b, kernel_inputs):
    # tau(n) = 2 * isqrt(n) for exactly these n, so out[n] reaches the
    # full bound -max_a * max_b * 2 * isqrt(n) just above -2**30.
    max_a = (kernels.I32_SAFE - 1) // (2 * math.isqrt(n) * max_b)
    f = make([-max_a] * n, Domain.Z)
    g = make([max_b] * n, Domain.Z)
    got = convolve(f, g)
    [(a, b, _)] = kernel_inputs
    assert a.dtype == b.dtype == np.int32
    assert got.values == exact_convolution(f.values, g.values, n, 0)
    assert got[n] == -max_a * max_b * 2 * math.isqrt(n) > -(1 << 30)
    _stored_as_made(got)


def test_division_blocks_stay_int64(kernel_inputs):
    """Every block product of a division passes the 2**30 gate, yet runs on
    int64 operands: only a whole product is narrowed."""
    n = 5000
    mob = build("mobius", n, Domain.Z)
    got = ring.inverse(mob)
    assert got == build("one", n, Domain.Z)
    _stored_as_made(got)
    assert kernel_inputs and all(lo > 0 for *_, lo in kernel_inputs)
    for a, b, _ in kernel_inputs:
        assert a.dtype == b.dtype == np.int64
        assert kernels.convolution_fits_i64(ring._peak(a), ring._peak(b), n, kernels.I32_SAFE)


# Each signed width's last n and the two past it: the sieve's cofactors
# move from int8 to int16 at 128 and from int16 to int32 at 32768.  One
# width too narrow, 129 and 32769 wrap to values that an odd prime divides
# wrongly; a wrapped 128 or 32768 only halves down to -1 and comes out right.
@pytest.mark.parametrize("n", [127, 128, 129, 32767, 32768, 32769])
def test_sieves_match_exact_at_cofactor_widths(n):
    for name, prime_power_value in PRIME_POWER_VALUES.items():
        got = kernels._multiplicative(n, kernels.RULES[name][1])
        assert got.dtype == np.int64
        assert got[1:].tolist() == list(_exact_multiplicative(n, prime_power_value).values), name
    k = 12  # n^12 * 2 isqrt(n) is past 2**62: sigma_12 takes the object sieve
    assert not kernels.convolution_fits_i64(n**k, 1, n)
    want = _exact_multiplicative(n, sigma_prime_power(k))
    assert object_sieve(f"sigma_{k}", n) == want
    assert build(f"sigma_{k}", n, Domain.Z) == want


@pytest.mark.parametrize("extreme", [-(1 << 63), 1 << 63])
def test_out_of_gate_values_fall_back_to_exact(extreme, kernel_inputs):
    f = make([extreme, 1, -1, 0, 5, 7], Domain.Z)
    g = make([2, 3, 0, -4, 1, 1], Domain.Z)
    got = convolve(f, g)
    # past the gate and both dense: one int64 kernel call per CRT prime, on residues
    primes = crt.primes_for(6, (1 << 63) * 4 * 2 * math.isqrt(6))
    assert len(kernel_inputs) == len(primes)
    for (a, b, _), p in zip(kernel_inputs, primes):
        assert a.dtype == b.dtype == np.int64 and 0 <= min(a.min(), b.min())
        assert max(a.max(), b.max()) < p
    assert got.values == exact_convolution(f.values, g.values, 6, 0)
    assert got[1] == 2 * extreme


def test_concurrent_convolutions_are_identical(rng):
    # values are immutable and operations pure, so sharing across threads
    # must not perturb exact results
    from concurrent.futures import ThreadPoolExecutor

    f = make([rng.randint(-9, 9) for _ in range(500)], Domain.Z)
    g = make([rng.randint(-9, 9) for _ in range(500)], Domain.Z)
    expected = convolve(f, g)
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda _: convolve(f, g), range(32)))
    assert all(r == expected for r in results)
