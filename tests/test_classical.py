"""Sieve builders against per-index oracles, plus the identity suite."""

from __future__ import annotations

import itertools

import pytest
import sympy

from arithring import Domain, build, convolve, epsilon, identity_suite, is_unit, kernels, make
from arithring.classical import available_names, is_known_name

from conftest import (
    exact_multiplicative,
    naive_divisor_list,
    naive_is_prime,
    naive_liouville,
    naive_mobius,
    naive_phi,
    naive_sigma,
    naive_tau,
)

Q, Z = Domain.Q, Domain.Z


class TestVectors:
    def test_mobius_first_ten(self):
        assert build("mobius", 10).values == (1, -1, -1, 0, -1, 1, -1, 0, 0, 1)

    def test_phi_first_ten(self):
        assert build("euler_phi", 10).values == (1, 1, 2, 2, 4, 2, 6, 4, 6, 4)

    def test_prime_char_first_eight(self):
        assert build("prime_char", 8).values == (0, 1, 1, 0, 1, 0, 1, 0)

    def test_pi_squared_prefix(self):
        # pi(n) for n=1..8: 0,1,2,2,3,3,4,4
        assert build("pi_squared", 8).values == (0, 1, 4, 4, 9, 9, 16, 16)

    def test_one_epsilon_id(self):
        assert build("one", 4).values == (1, 1, 1, 1)
        assert build("epsilon", 4) == epsilon(4, Z)
        assert build("id", 5).values == (1, 2, 3, 4, 5)
        assert build("id_3", 4).values == (1, 8, 27, 64)

    def test_sigma_aliases(self):
        assert build("sigma_0", 30) == build("tau", 30)
        assert build("sigma", 30) == build("sigma_1", 30)

    def test_domain_embedding(self):
        f = build("mobius", 6, Q)
        assert f.domain is Q and f.values[:3] == (1, -1, -1)

    def test_unknown_names(self):
        for bad in ("moebius", "id_0", "sigma_-1", "nu_2", ""):
            with pytest.raises(ValueError):
                build(bad, 10)

    def test_bad_bound(self):
        with pytest.raises(ValueError):
            build("one", 0)

    def test_is_known_name(self):
        assert is_known_name("mobius")
        assert is_known_name("sigma_4")
        assert not is_known_name("nu_2")
        assert "id_<k>" in available_names()


class TestOracleAgreement:
    N = 1000

    def test_mobius(self):
        f = build("mobius", self.N)
        assert all(f[n] == naive_mobius(n) for n in range(1, self.N + 1))

    def test_phi(self):
        f = build("euler_phi", self.N)
        assert all(f[n] == naive_phi(n) for n in range(1, self.N + 1))

    def test_tau(self):
        f = build("tau", self.N)
        assert all(f[n] == naive_tau(n) for n in range(1, self.N + 1))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_sigma(self, k):
        f = build(f"sigma_{k}", self.N)
        assert all(f[n] == naive_sigma(n, k) for n in range(1, self.N + 1))

    def test_liouville(self):
        f = build("liouville_lambda", self.N)
        assert all(f[n] == naive_liouville(n) for n in range(1, self.N + 1))

    def test_prime_char(self):
        f = build("prime_char", self.N)
        assert all(f[n] == int(naive_is_prime(n)) for n in range(1, self.N + 1))

    def test_pi_squared(self):
        f = build("pi_squared", self.N)
        count = 0
        for n in range(1, self.N + 1):
            count += naive_is_prime(n)
            assert f[n] == count * count

    def test_sigma_large_k_uses_exact_path(self):
        # n^k * 2 sqrt(n) overflows int64 here; the big-int sieve must agree
        n, k = 200, 12
        f = build(f"sigma_{k}", n)
        assert all(f[m] == naive_sigma(m, k) for m in range(1, n + 1))

    def test_id_large_k_exact(self):
        f = build("id_25", 60)
        assert f[59] == 59**25

    def test_build_deterministic(self):
        assert build("sigma_2", 500) == build("sigma_2", 500)


class TestOverflowGateEdges:
    """sigma_k and id_k on each side of the 2^62 gate: n^k * 2 isqrt(n) and n^k."""

    @pytest.mark.parametrize("n, k, i64", [(4, 29, True), (3, 38, True),
                                           (4, 30, False), (3, 39, False)])
    def test_sigma(self, monkeypatch, n, k, i64):
        calls = []
        sigma_i64 = kernels.sigma_i64

        def spy(*args):
            calls.append(args)
            return sigma_i64(*args)

        monkeypatch.setattr(kernels, "sigma_i64", spy)
        with kernels.use_backend("numpy"):
            f = build(f"sigma_{k}", n, Z)
        assert f.values == tuple(naive_sigma(m, k) for m in range(1, n + 1))
        assert calls == ([(n, k)] if i64 else [])

    @pytest.mark.parametrize("n, k", [(2, 61), (8, 20), (2, 62), (8, 21)])
    def test_id(self, n, k):
        with kernels.use_backend("numpy"):
            f = build(f"id_{k}", n, Z)
        assert f.values == tuple(m**k for m in range(1, n + 1))


class TestSympyAgreement:
    """The sieves on every backend against sympy's per-index number theory at N = 3000."""

    N = 3000
    ORACLES = {
        "mobius": sympy.mobius,
        "euler_phi": sympy.totient,
        "tau": lambda n: sympy.divisor_sigma(n, 0),
        "sigma_1": lambda n: sympy.divisor_sigma(n, 1),
        "sigma_2": lambda n: sympy.divisor_sigma(n, 2),
        "liouville_lambda": lambda n: (-1) ** sympy.primeomega(n),
    }

    @pytest.mark.parametrize("name", list(ORACLES))
    def test_multiplicative(self, name):
        oracle = self.ORACLES[name]
        want = [int(oracle(n)) for n in range(1, self.N + 1)]
        for backend in kernels.BACKENDS:
            with kernels.use_backend(backend):
                f = build(name, self.N, Z)
            assert list(f.values) == want, backend

    def test_prime_char_prefix_sums_count_primes(self):
        want = [int(sympy.primepi(n)) for n in range(1, self.N + 1)]
        for backend in kernels.BACKENDS:
            with kernels.use_backend(backend):
                f = build("prime_char", self.N, Z)
            assert list(itertools.accumulate(f.values)) == want, backend


@pytest.mark.parametrize("backend", kernels.BACKENDS)
class TestEveryBackend:
    """sigma_k on both sides of the int64 gate and pi_squared, per backend."""

    @pytest.mark.parametrize("k", [0, 1, 2, 4, 12])
    def test_sigma_k_matches_loop_oracle(self, backend, k):
        n = 2 * 9973
        with kernels.use_backend(backend):
            f = build(f"sigma_{k}", n, Z)
        assert f == exact_multiplicative(
            n, lambda p, e: (p ** (k * (e + 1)) - 1) // (p**k - 1) if k else e + 1
        )

    def test_pi_squared_matches_sympy(self, backend):
        n = 3000
        with kernels.use_backend(backend):
            f = build("pi_squared", n, Z)
        assert list(f.values) == [int(sympy.primepi(m)) ** 2 for m in range(1, n + 1)]


class TestInvariants:
    @pytest.mark.parametrize(
        "name", ["one", "epsilon", "mobius", "euler_phi", "tau", "sigma_1",
                 "liouville_lambda", "id_2"]
    )
    def test_multiplicative_builtins_are_units(self, name):
        f = build(name, 20)
        assert f[1] == 1
        assert is_unit(f)
        assert is_unit(build(name, 20, Q))

    @pytest.mark.parametrize("name", ["prime_char", "pi_squared"])
    def test_prime_counting_functions_start_at_zero(self, name):
        f = build(name, 20)
        assert f[1] == 0
        assert f[2] != 0
        assert not is_unit(f)


class TestIdentitySuite:
    def test_all_pass_at_thousand(self):
        report = identity_suite(1000)
        assert report.ok
        assert [c.name for c in report.checks] == [
            "mobius*one=epsilon",
            "one*one=tau",
            "one*id=sigma",
            "mobius*id=euler_phi",
        ]
        assert all(c.first_mismatch is None for c in report.checks)

    def test_spot_oracle_random_indices(self, rng):
        n = 1000
        one = build("one", n)
        ident = build("id", n)
        mob = build("mobius", n)
        tau_conv = convolve(one, one)
        sigma_conv = convolve(one, ident)
        phi_conv = convolve(mob, ident)
        for _ in range(20):
            m = rng.randint(1, n)
            divs = naive_divisor_list(m)
            assert tau_conv[m] == len(divs)
            assert sigma_conv[m] == sum(divs)
            assert phi_conv[m] == sum(naive_mobius(d) * (m // d) for d in divs)

    def test_mu_times_one_at_one(self):
        report = identity_suite(1)
        assert report.ok

    def test_sigma_at_six(self):
        assert convolve(build("one", 8), build("id", 8))[6] == 12

    def test_failure_reporting_shape(self):
        # a deliberately wrong identity check exercises the mismatch report
        got = convolve(build("one", 10), build("one", 10))
        want = make([1] * 10, Z)
        from arithring.classical import _first_mismatch

        assert _first_mismatch(got, want) == 2

    def test_json_shape(self):
        obj = identity_suite(50).to_json_obj()
        assert obj["ok"] is True
        assert obj["bound"] == 50
        assert len(obj["checks"]) == 4

    def test_over_q(self):
        assert identity_suite(200, Q).ok
