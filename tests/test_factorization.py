"""Irreducibility certificates, claim verification, rank screening."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from arithring import (
    Domain,
    DomainMismatch,
    FactorizationClaim,
    NoVisibleRank,
    Verdict,
    add,
    build,
    certify,
    convolve,
    epsilon,
    make,
    nu,
    numutil,
    omega,
    rank_screen,
    scale,
    verify_factorization,
    witness_reducible,
)
from arithring.factorization import PRIME_LEADING_MAGNITUDE, PRIME_SUPPORT, Certificate

from conftest import arith_funcs

Q, Z = Domain.Q, Domain.Z


def two_eps(n, domain=Z):
    return scale(epsilon(n, domain), 2)


class TestCertify:
    def test_zero_and_unit(self):
        assert certify(omega(8, Q)).verdict is Verdict.ZERO
        assert certify(epsilon(8, Q)).verdict is Verdict.UNIT
        assert certify(build("mobius", 8)).verdict is Verdict.UNIT

    def test_prime_char_prime_support(self):
        for domain in (Q, Z):
            cert = certify(build("prime_char", 50, domain))
            assert cert.verdict is Verdict.IRREDUCIBLE
            assert (cert.reason.kind, cert.reason.value) == (PRIME_SUPPORT, 2)

    def test_pi_squared_prime_support(self):
        cert = certify(build("pi_squared", 100))
        assert cert.verdict is Verdict.IRREDUCIBLE
        assert (cert.reason.kind, cert.reason.value) == (PRIME_SUPPORT, 2)

    def test_smallest_supporting_prime_reported(self):
        f = add(nu(3, 20, Q), nu(5, 20, Q))
        cert = certify(f)
        assert (cert.reason.kind, cert.reason.value) == (PRIME_SUPPORT, 3)

    def test_two_epsilon_prime_leading_magnitude(self):
        cert = certify(two_eps(16))
        assert cert.verdict is Verdict.IRREDUCIBLE
        assert (cert.reason.kind, cert.reason.value) == (PRIME_LEADING_MAGNITUDE, 2)

    def test_mersenne_leading_magnitude(self):
        p = (1 << 61) - 1  # Mersenne prime
        cert = certify(scale(epsilon(4, Z), p))
        assert (cert.reason.kind, cert.reason.value) == (PRIME_LEADING_MAGNITUDE, p)

    def test_leading_magnitude_rule_holds_only_below_psi_12(self):
        # psi_12 passes the 12-base Miller-Rabin test but splits, so a lead of
        # that magnitude proves nothing; the prime 20 below it is proven
        psi12, split = numutil.MR_PROOF_LIMIT, (399165290221, 798330580441)
        assert numutil.is_prime(psi12) and split[0] * split[1] == psi12
        for sign in (1, -1):
            f = scale(epsilon(3, Z), sign * psi12)
            assert certify(f) == Certificate(Verdict.UNKNOWN)
            left, right = scale(epsilon(3, Z), sign * split[0]), scale(epsilon(3, Z), split[1])
            assert witness_reducible(f, left, right).verdict is Verdict.REDUCIBLE
        below = psi12 - 20
        cert = certify(scale(epsilon(3, Z), -below))
        assert cert.verdict is Verdict.IRREDUCIBLE
        assert (cert.reason.kind, cert.reason.value) == (PRIME_LEADING_MAGNITUDE, below)

    def test_prime_rank_subsumed_by_support_over_q(self):
        # a prime rank puts a nonzero value on a prime index, so the
        # support rule answers first; the verdict is irreducible either way
        cert = certify(scale(nu(7, 20, Q), 5))
        assert cert.verdict is Verdict.IRREDUCIBLE
        assert (cert.reason.kind, cert.reason.value) == (PRIME_SUPPORT, 7)

    def test_nu4_is_unknown(self):
        cert = certify(nu(4, 16, Q))
        assert cert.verdict is Verdict.UNKNOWN
        assert cert.reason is None

    def test_four_epsilon_is_unknown(self):
        assert certify(scale(epsilon(16, Z), 4)).verdict is Verdict.UNKNOWN

    def test_prime_rank_not_used_over_z(self):
        # rank 2 is prime, but 6*nu_2 = (2 eps) * (3 nu_2) splits over Z
        f = scale(nu(2, 16, Z), 6)
        assert certify(f).verdict is Verdict.UNKNOWN
        assert certify(scale(nu(2, 16, Q), 6)).verdict is Verdict.IRREDUCIBLE

    def test_mixed_support_over_z_declines(self):
        # (2 eps + nu_2) * nu_2 = 2 nu_2 + nu_4: gcd over prime indices is 2
        f = add(scale(nu(2, 16, Z), 2), nu(4, 16, Z))
        assert certify(f).verdict is Verdict.UNKNOWN

    def test_unit_gcd_prime_support_over_z(self):
        # nu_2 + 6 nu_3: values at primes are 1 and 6, gcd 1
        f = add(nu(2, 16, Z), scale(nu(3, 16, Z), 6))
        cert = certify(f)
        assert (cert.reason.kind, cert.reason.value) == (PRIME_SUPPORT, 2)

    def test_json_shapes(self):
        assert certify(omega(4, Q)).to_json_obj() == {
            "verdict": "zero",
            "reason": None,
            "witness_indices": [],
        }
        obj = certify(two_eps(8)).to_json_obj()
        assert obj["verdict"] == "irreducible"
        assert obj["witness_indices"] == [1]


class TestReducibleWitness:
    def test_valid_witness(self):
        f = scale(nu(2, 16, Z), 6)
        cert = witness_reducible(f, two_eps(16), scale(nu(2, 16, Z), 3))
        assert cert.verdict is Verdict.REDUCIBLE
        assert cert.to_json_obj()["witness_indices"] == [1, 2]

    def test_rejects_unit_factor(self):
        f = nu(2, 8, Q)
        with pytest.raises(ValueError):
            witness_reducible(f, epsilon(8, Q), nu(2, 8, Q))

    def test_rejects_wrong_product(self):
        with pytest.raises(ValueError):
            witness_reducible(nu(6, 12, Z), nu(2, 12, Z), nu(5, 12, Z))

    def test_rejects_a_product_shorter_than_the_target(self):
        """A product is known at the factors' common bound only."""
        with pytest.raises(ValueError, match="cover the target's bound"):
            witness_reducible(nu(4, 12, Z), nu(2, 6, Z), nu(2, 12, Z))

    def test_rejects_zero_factor(self):
        with pytest.raises(ValueError):
            witness_reducible(omega(8, Z), omega(8, Z), two_eps(8))

    def test_rejects_domain_mismatch(self):
        with pytest.raises(DomainMismatch):
            witness_reducible(nu(4, 8, Q), nu(2, 8, Z), nu(2, 8, Z))

    @pytest.mark.parametrize(
        "target,left,right,domain",
        [
            ("nu4", "nu2", "nu2", Q),
            ("4eps", "2eps", "2eps", Z),
            ("6nu2", "2eps", "3nu2", Z),
        ],
    )
    def test_certify_never_contradicts_verified_witness(self, target, left, right, domain):
        n = 16
        named = {
            "nu4": nu(4, n, domain),
            "nu2": nu(2, n, domain),
            "4eps": scale(epsilon(n, domain), 4),
            "2eps": scale(epsilon(n, domain), 2),
            "6nu2": scale(nu(2, n, domain), 6),
            "3nu2": scale(nu(2, n, domain), 3),
        }
        cert = witness_reducible(named[target], named[left], named[right])
        assert cert.verdict is Verdict.REDUCIBLE
        assert certify(named[target]).verdict is not Verdict.IRREDUCIBLE


class TestPrimeSupportSoundness:
    @given(arith_funcs(Q, min_bound=8, max_bound=24), arith_funcs(Q, min_bound=8, max_bound=24))
    @settings(max_examples=25)
    def test_leading_zero_products_vanish_on_primes(self, f, g):
        n = min(f.bound, g.bound)
        f = make((0,) + f.values[1:n], Q)
        g = make((0,) + g.values[1:n], Q)
        product = convolve(f, g)
        for p in (2, 3, 5, 7, 11, 13):
            if p <= n:
                assert product[p] == 0

    @given(arith_funcs(Z, min_bound=2, max_bound=16), arith_funcs(Z, min_bound=2, max_bound=16))
    @settings(max_examples=30)
    def test_leading_magnitude_multiplies_over_z(self, f, g):
        product = convolve(f, g)
        assert abs(product[1]) == abs(f[1]) * abs(g[1])


class TestVerifyFactorization:
    def test_nu4_claim(self):
        n = 16
        claim = FactorizationClaim(epsilon(n, Q), (nu(2, n, Q), nu(2, n, Q)))
        report = verify_factorization(nu(4, n, Q), claim)
        assert report.ok and report.all_factors_certified
        assert all(
            c.reason.kind == PRIME_SUPPORT and c.reason.value == 2
            for c in report.certificates
        )

    def test_four_epsilon_claim(self):
        n = 12
        claim = FactorizationClaim(epsilon(n, Z), (two_eps(n), two_eps(n)))
        report = verify_factorization(scale(epsilon(n, Z), 4), claim)
        assert report.ok and report.all_factors_certified
        assert all(
            (c.reason.kind, c.reason.value) == (PRIME_LEADING_MAGNITUDE, 2)
            for c in report.certificates
        )

    def test_wrong_product_reports_first_mismatch(self):
        n = 12
        claim = FactorizationClaim(epsilon(n, Q), (nu(2, n, Q), nu(5, n, Q)))
        report = verify_factorization(nu(6, n, Q), claim)
        assert not report.ok and report.first_mismatch == 6

    def test_nonunit_unit_part_flagged(self):
        n = 8
        claim = FactorizationClaim(two_eps(n), (nu(2, n, Z),))
        report = verify_factorization(scale(nu(2, n, Z), 2), claim)
        assert not report.unit_ok
        assert report.product_ok
        assert not report.ok

    def test_unknown_factor_flagged_unverified(self):
        n = 16
        claim = FactorizationClaim(epsilon(n, Q), (nu(4, n, Q),))
        report = verify_factorization(nu(4, n, Q), claim)
        assert report.ok  # product and unit check out
        assert report.unverified == (0,)
        assert not report.all_factors_certified

    def test_empty_factor_list(self):
        n = 6
        claim = FactorizationClaim(build("mobius", n, Q), ())
        report = verify_factorization(build("mobius", n, Q), claim)
        assert report.ok and report.all_factors_certified

    def test_nontrivial_unit_part(self):
        n = 16
        target = scale(nu(4, n, Q), -3)
        claim = FactorizationClaim(
            scale(epsilon(n, Q), -3), (nu(2, n, Q), nu(2, n, Q))
        )
        report = verify_factorization(target, claim)
        assert report.ok and report.all_factors_certified

    def test_bound_mismatch_raises(self):
        claim = FactorizationClaim(epsilon(8, Q), (nu(2, 6, Q),))
        with pytest.raises(ValueError):
            verify_factorization(nu(2, 8, Q), claim)

    def test_domain_mismatch_raises(self):
        claim = FactorizationClaim(epsilon(8, Z), (nu(2, 8, Z),))
        with pytest.raises(DomainMismatch):
            verify_factorization(nu(2, 8, Q), claim)

    def test_json_shape(self):
        n = 8
        claim = FactorizationClaim(epsilon(n, Q), (nu(2, n, Q),))
        obj = verify_factorization(nu(2, n, Q), claim).to_json_obj()
        assert obj["ok"] is True
        assert obj["factors"][0]["reason"]["kind"] == PRIME_SUPPORT


class TestRankScreen:
    def test_six_splits(self):
        splits = rank_screen(nu(6, 12, Q))
        assert [(s.left, s.right) for s in splits] == [(1, 6), (2, 3), (3, 2), (6, 1)]
        assert splits[0].note == "unit factor"
        assert splits[1].note == ""

    def test_prime_rank_only_trivial_splits(self):
        splits = rank_screen(nu(7, 14, Q))
        assert [(s.left, s.right) for s in splits] == [(1, 7), (7, 1)]
        assert all(s.note == "unit factor" for s in splits)

    def test_rank_one_over_z(self):
        splits = rank_screen(two_eps(8))
        assert [(s.left, s.right) for s in splits] == [(1, 1)]
        assert splits[0].note == "unit or rank-one nonunit factor"

    def test_zero_function_raises(self):
        with pytest.raises(NoVisibleRank):
            rank_screen(omega(4, Q))
