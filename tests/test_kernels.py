"""Differential tests: the int64 kernels against the exact big-int routes."""

from __future__ import annotations

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from arithring import Domain, build, convolve, make
from arithring import kernels, ring
from conftest import exact_multiplicative as _exact_multiplicative

from conftest import trial_division

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
    return list(ring._convolve_exact(a[1:].tolist(), b[1:].tolist(), n, 0))


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


SIEVES = {
    "mobius_i64": lambda p, e: -1 if e == 1 else 0,
    "phi_i64": lambda p, e: p**e - p ** (e - 1),
    "tau_i64": lambda p, e: e + 1,
    "liouville_i64": lambda p, e: 1 - 2 * (e & 1),
}


@pytest.mark.parametrize(
    "n", sorted(set(EDGE_NS) | {16, 97, 300, 1000, 97 * 97 - 1, 97 * 97, 97 * 97 + 1, 2 * 9973})
)
def test_sieves_match_exact(n):
    for name, prime_power_value in SIEVES.items():
        got = getattr(kernels, name)(n)[1:].tolist()
        assert got == list(_exact_multiplicative(n, prime_power_value).values), name
    for k in (0, 1, 2, 3):
        want = _exact_multiplicative(
            n, lambda p, e: (p ** (k * (e + 1)) - 1) // (p**k - 1) if k else e + 1
        )
        assert kernels.sigma_i64(n, k)[1:].tolist() == list(want.values), f"sigma k={k}"
    mask = kernels.primes_mask(n)
    assert not mask[0] and not mask[1]
    assert [i for i in range(2, n + 1) if mask[i]] == [
        i for i in range(2, n + 1) if trial_division(i) == [i]
    ]


def test_python_backend_disables_int64_paths(rng, monkeypatch):
    f = make([rng.randint(-9, 9) for _ in range(60)], Domain.Z)
    g = make([rng.randint(-9, 9) for _ in range(60)], Domain.Z)
    fast = convolve(f, g)
    calls = []
    kernel = kernels.convolve_i64
    monkeypatch.setattr(kernels, "convolve_i64", lambda a, b: calls.append(a) or kernel(a, b))
    with kernels.use_backend("python"):
        assert not kernels.int64_paths_enabled()
        exact = convolve(f, g)
    assert calls == []
    assert fast == exact


@pytest.mark.parametrize("name", ["mobius", "euler_phi", "tau", "sigma_2", "liouville_lambda"])
def test_builders_match_across_backends(name):
    results = []
    for backend in kernels.BACKENDS:
        with kernels.use_backend(backend):
            results.append(build(name, 400))
    assert results[0] == results[1]


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
def test_convolve_just_inside_gate_with_negative_extremes(n):
    # tau(n) = 2 * isqrt(n) for exactly these n, so out[n] reaches the
    # full bound -max_a * max_b * 2 * isqrt(n) just below -2**62.
    max_a = (kernels.I64_SAFE - 1) // (2 * math.isqrt(n))
    f = make([-max_a] * n, Domain.Z)
    g = make([1] * n, Domain.Z)
    assert ring._try_convolve_i64(ring._operand(f._num), ring._operand(g._num), n) is not None
    got = convolve(f, g)
    with kernels.use_backend("python"):
        assert got == convolve(f, g)
    assert got[n] == -max_a * 2 * math.isqrt(n) > -(1 << 62)


@pytest.mark.parametrize("extreme", [-(1 << 63), 1 << 63])
def test_out_of_gate_values_fall_back_to_exact(extreme):
    f = make([extreme, 1, -1, 0, 5, 7], Domain.Z)
    g = make([2, 3, 0, -4, 1, 1], Domain.Z)
    assert ring._try_convolve_i64(ring._operand(f._num), ring._operand(g._num), 6) is None
    got = convolve(f, g)
    assert got.values == ring._convolve_exact(f.values, g.values, 6, 0)
    assert got[1] == 2 * extreme


def test_set_backend_validates():
    with pytest.raises(ValueError):
        kernels.set_backend("fortran")
    with pytest.raises(ValueError):
        kernels.set_backend("numba")
    assert kernels.active_backend() in kernels.BACKENDS


def test_env_flag_selects_backend():
    code = "import arithring.kernels as k; print(k.active_backend())"
    # the child imports arithring from where this process found it
    base = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    env = dict(base, ARITHRING_BACKEND="python")
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert out.stdout.strip() == "python"
    env_bad = dict(base, ARITHRING_BACKEND="cuda")
    out = subprocess.run(
        [sys.executable, "-c", code], env=env_bad, capture_output=True, text=True
    )
    assert out.returncode != 0
    assert "ARITHRING_BACKEND='cuda'" in out.stderr


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
