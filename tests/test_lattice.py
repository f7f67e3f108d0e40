"""Divisor posets: structure, chain partitions, lattice checks, factorizer."""

from __future__ import annotations

import json
import math
import time

import pytest

from arithring import (
    chain_cover,
    co_ideal,
    complements_of,
    euclid_factorization,
    gcd_lcm_identity_check,
    is_boolean,
    is_complemented,
    is_distributive,
    is_uniquely_complemented,
    join,
    lattice_report,
    meet,
    prime_property_check,
    to_dot,
    width,
)
from arithring import cli, numutil
from arithring import lattice as lattice_module
from arithring.lattice import DEFAULT_ROOT_LIMIT

from conftest import (
    brute_complements,
    brute_distributive,
    brute_force_width,
    matching_width,
    pairwise_antichain,
    trial_division,
)


def squarefree(n: int) -> bool:
    return all(e == 1 for _, e in numutil.factorize(n))


class TestCoIdeal:
    def test_thirty(self):
        poset = co_ideal(30)
        assert poset.elements == (1, 2, 3, 5, 6, 10, 15, 30)
        assert len(poset) == 8
        assert poset.atoms == (2, 3, 5)

    def test_twelve(self):
        poset = co_ideal(12)
        assert poset.elements == (1, 2, 3, 4, 6, 12)
        assert poset.atoms == (2, 3)
        assert poset.hasse_edges == (
            (1, 2), (1, 3), (2, 4), (2, 6), (3, 6), (4, 12), (6, 12),
        )

    def test_one(self):
        poset = co_ideal(1)
        assert poset.elements == (1,)
        assert poset.atoms == ()
        assert poset.hasse_edges == ()

    def test_membership(self):
        poset = co_ideal(12)
        assert 6 in poset and 5 not in poset
        with pytest.raises(ValueError):
            poset.index(5)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            co_ideal(0)
        with pytest.raises(ValueError):
            co_ideal(DEFAULT_ROOT_LIMIT * 10)

    def test_atoms_cover_one(self):
        for a in (30, 12, 64, 210, 9240):
            poset = co_ideal(a)
            covers_of_one = sorted(y for x, y in poset.hasse_edges if x == 1)
            assert covers_of_one == list(poset.atoms)

    def test_hasse_edges_are_prime_steps(self):
        for a in (60, 128, 210):
            poset = co_ideal(a)
            for x, y in poset.hasse_edges:
                assert y % x == 0
                step = y // x
                assert step in poset.atoms


class TestMeetJoin:
    def test_in_sixty(self):
        poset = co_ideal(60)
        assert meet(12, 30, poset) == 6
        assert join(12, 30, poset) == 60

    def test_paper_pair_in_twelve(self):
        poset = co_ideal(12)
        assert meet(2, 6, poset) == 2
        assert join(2, 6, poset) == 6

    def test_idempotent(self):
        poset = co_ideal(36)
        for x in poset.elements:
            assert meet(x, x, poset) == x
            assert join(x, x, poset) == x

    def test_closure_and_monotone(self):
        poset = co_ideal(360)
        elems = poset.elements
        for x in elems[::3]:
            for y in elems[::4]:
                m, j = meet(x, y, poset), join(x, y, poset)
                assert m in poset and j in poset
                assert x % m == 0 and y % m == 0
                assert j % x == 0 and j % y == 0

    def test_non_member_rejected(self):
        poset = co_ideal(12)
        with pytest.raises(ValueError):
            meet(5, 6, poset)
        with pytest.raises(ValueError):
            join(6, 7, poset)


class TestChainCover:
    def test_thirty_has_three_chains(self):
        cover = chain_cover(co_ideal(30))
        assert cover.width == 3
        assert len(cover.antichain) == 3

    def test_twelve_has_two_chains(self):
        cover = chain_cover(co_ideal(12))
        assert cover.width == 2

    def test_single_element(self):
        cover = chain_cover(co_ideal(1))
        assert cover.chains == ((1,),)
        assert cover.antichain == (1,)

    def test_prime_power_is_one_chain(self):
        cover = chain_cover(co_ideal(243))
        assert cover.chains == ((1, 3, 9, 27, 81, 243),)

    def test_two_ten_width_six_atoms_four(self):
        poset = co_ideal(210)
        cover = chain_cover(poset)
        assert cover.width == 6
        assert len(poset.atoms) == 4  # strictly fewer than the width

    def test_cover_is_deterministic(self):
        for a in (30, 360, 720720):
            assert chain_cover(co_ideal(a)) == chain_cover(co_ideal(a))

    def test_brute_force_width_small_roots(self):
        for a in (1, 2, 12, 30, 60, 210, 360, 1024, 9240):
            poset = co_ideal(a)
            if len(poset) <= 20:
                assert chain_cover(poset).width == brute_force_width(list(poset.elements))

    def test_width_depends_only_on_exponent_multiset(self):
        assert width(co_ideal(12)) == width(co_ideal(75))  # 2^2*3 vs 3*5^2
        assert width(co_ideal(30)) == width(co_ideal(1001))  # three distinct primes

    def test_dilworth_equality_exhaustive_small(self):
        # chain_cover raises internally if |chains| != |antichain| or any
        # chain/antichain is malformed; the pairwise oracle re-checks the
        # antichain without the rank argument chain_cover relies on
        for a in range(1, 3000):
            assert pairwise_antichain(chain_cover(co_ideal(a)).antichain), a

    @pytest.mark.parametrize("antichain", [(2, 4), (2, 2), (5, 3)])
    def test_validate_cover_rejects_bad_antichains(self, antichain):
        # comparable pair, duplicate member, non-divisor of 12
        poset = co_ideal(12)
        chains = chain_cover(poset).chains
        assert len(chains) == len(antichain)
        with pytest.raises(RuntimeError, match="antichain"):
            lattice_module._validate_cover(poset, chains, antichain)

    def test_dilworth_equality_sampled_to_ten_thousand(self, rng):
        for _ in range(300):
            chain_cover(co_ideal(rng.randint(3000, 10**4)))

    def test_atom_antichain_never_exceeds_width(self):
        for a in (2, 6, 30, 210, 2310, 30030, 720720):
            poset = co_ideal(a)
            assert width(poset) >= len(poset.atoms)

    def test_first_width_atom_gaps(self):
        # among all roots the gap first opens at 36 = 2^2 * 3^2 (width 3,
        # atoms 2); among squarefree roots it first opens at 210, where the
        # middle binomial layer beats the four primes
        for a in range(2, 36):
            poset = co_ideal(a)
            assert width(poset) == len(poset.atoms), a
        assert width(co_ideal(36)) == 3 and len(co_ideal(36).atoms) == 2
        for a in range(2, 210):
            if squarefree(a):
                poset = co_ideal(a)
                assert width(poset) == len(poset.atoms), a
        poset = co_ideal(210)
        assert width(poset) == 6 and len(poset.atoms) == 4

    def test_every_width_plus_one_subset_has_comparable_pair(self, rng):
        import itertools

        for a in (30, 12, 210, 360):
            poset = co_ideal(a)
            w = width(poset)
            elems = list(poset.elements)
            samples = itertools.islice(
                itertools.combinations(elems, w + 1), 0, None
            )
            for subset in list(samples)[:200]:
                assert any(
                    x != y and (y % x == 0 or x % y == 0)
                    for i, x in enumerate(subset)
                    for y in subset[i + 1 :]
                )


class TestComplements:
    def test_thirty(self):
        poset = co_ideal(30)
        assert complements_of(2, poset) == [15]
        assert complements_of(3, poset) == [10]
        assert complements_of(5, poset) == [6]
        assert complements_of(1, poset) == [30]
        assert is_complemented(poset)
        assert is_uniquely_complemented(poset)

    def test_twelve(self):
        poset = co_ideal(12)
        assert complements_of(2, poset) == []
        assert complements_of(6, poset) == []
        assert complements_of(3, poset) == [4]
        assert complements_of(4, poset) == [3]
        assert complements_of(1, poset) == [12]
        assert complements_of(12, poset) == [1]
        assert not is_complemented(poset)

    def test_trivial(self):
        poset = co_ideal(1)
        assert complements_of(1, poset) == [1]
        assert is_uniquely_complemented(poset)

    def test_complements_unique_when_present(self):
        # distributivity forces uniqueness: no element ever has two complements
        poset = co_ideal(60)
        assert complements_of(4, poset) == [15]
        assert complements_of(2, poset) == []
        assert not is_complemented(poset)
        for a in (12, 36, 60, 360, 720720):
            for x in co_ideal(a).elements:
                assert len(complements_of(x, co_ideal(a))) <= 1

    def test_member_check(self):
        with pytest.raises(ValueError):
            complements_of(7, co_ideal(12))


class TestDistributiveBoolean:
    def test_thirty_is_boolean(self):
        poset = co_ideal(30)
        assert is_distributive(poset)
        assert is_boolean(poset)

    def test_twelve_distributive_not_boolean(self):
        poset = co_ideal(12)
        assert is_distributive(poset)
        assert not is_boolean(poset)

    def test_trivial_boolean(self):
        assert is_boolean(co_ideal(1))

    def test_boolean_iff_squarefree_exhaustive(self):
        for a in range(1, 1000):
            assert is_boolean(co_ideal(a)) == squarefree(a), a

    def test_boolean_iff_squarefree_sampled(self, rng):
        for _ in range(60):
            a = rng.randint(1000, 10**4)
            assert is_boolean(co_ideal(a)) == squarefree(a), a

    def test_gcd_lcm_identity(self):
        assert gcd_lcm_identity_check(co_ideal(30))
        assert gcd_lcm_identity_check(co_ideal(12))
        assert gcd_lcm_identity_check(co_ideal(720720))

    def test_gcd_lcm_identity_just_above_int64_edge(self):
        root = math.isqrt(2**63 - 1) + 1  # 3037000500: x * y passes int64
        poset = co_ideal(root, root_limit=root)
        oracle = all(
            math.gcd(x, y) * math.lcm(x, y) == x * y
            for x in poset.elements
            for y in poset.elements
        )
        assert gcd_lcm_identity_check(poset) is oracle is True

    def test_gcd_lcm_identity_is_exact_above_int64_edge(self, monkeypatch):
        # At (2**32, 2**32) a doubled lcm gives 2**65 against 2**64, equal
        # mod 2**64: int64 products would hide the corrupt entry.
        root = 1 << 32
        poset = co_ideal(root, root_limit=root)
        e, g, l = lattice_module._tables(poset)
        l[-1, -1] *= 2
        assert int(g[-1, -1]) * int(l[-1, -1]) != root * root
        monkeypatch.setattr(lattice_module, "_tables", lambda _: (e, g, l))
        assert not gcd_lcm_identity_check(poset)


def _assert_verdicts_match_oracles(a: int) -> None:
    poset = co_ideal(a)
    elems = list(poset.elements)
    complements = {x: brute_complements(x, elems) for x in elems}
    for x in elems:
        assert complements_of(x, poset) == complements[x], (a, x)
    distributive = brute_distributive(elems)
    unique = all(len(c) == 1 for c in complements.values())
    assert is_distributive(poset) is distributive, a
    assert is_complemented(poset) is all(complements.values()), a
    assert is_uniquely_complemented(poset) is unique, a
    assert is_boolean(poset) is (distributive and unique), a
    oracle_width, koenig = matching_width(elems)
    assert len(koenig) == oracle_width
    assert chain_cover(poset).width == oracle_width, a


class TestStructuralVerdicts:
    """Closed-form lattice verdicts against the brute-force oracles."""

    def test_every_root_below_1500(self):
        for a in range(1, 1500):
            _assert_verdicts_match_oracles(a)

    @pytest.mark.parametrize("a", [2**6 * 3**3, 2**4 * 3**2 * 5**2 * 7])
    def test_high_exponent_roots(self, a):
        _assert_verdicts_match_oracles(a)

    def test_report_under_root_limit_is_fast(self, capsys):
        # 1344 divisors under the default root limit
        start = time.perf_counter()
        code = cli.main(["lattice-report", "735134400", "--format", "json"])
        elapsed = time.perf_counter() - start
        report = json.loads(capsys.readouterr().out)
        assert code == 0 and elapsed < 2.0, elapsed
        assert report["width"] == 184
        assert report["distributive"] is True
        assert report["complemented"] is False and report["boolean"] is False

    def test_width_is_middle_coefficient(self):
        # 963761198400 = 2^6 3^4 5^2 7 11 13 17 19 23: 6720 divisors; the
        # middle coefficient of prod (1 + x + ... + x^e) is 882
        poset = co_ideal(963761198400, root_limit=10**12)
        assert len(poset) == 6720
        assert chain_cover(poset).width == 882


class TestEuclidFactorization:
    def test_examples(self):
        assert euclid_factorization(30) == [2, 3, 5]
        assert euclid_factorization(12) == [2, 2, 3]
        assert euclid_factorization(97) == [97]
        assert euclid_factorization(2) == [2]

    def test_rejects_below_two(self):
        for n in (1, 0, -5):
            with pytest.raises(ValueError):
                euclid_factorization(n)

    def test_matches_trial_division_prefix(self):
        for n in range(2, 5000):
            assert euclid_factorization(n) == trial_division(n), n

    def test_factors_are_irreducible(self):
        for n in (2, 30, 97, 1024, 9699690, 2**31 - 1):
            for p in euclid_factorization(n):
                assert all(p % d != 0 for d in range(2, int(p**0.5) + 1))

    def test_product_recovers_input(self, rng):
        import math

        for _ in range(50):
            n = rng.randint(2, 10**9)
            assert math.prod(euclid_factorization(n)) == n


class TestPrimeProperty:
    def test_single_pair(self):
        assert prime_property_check(2, [(6, 5)])

    def test_exhaustive_small(self):
        pairs = [(a, b) for a in range(1, 201) for b in range(1, 201)]
        assert prime_property_check(7, pairs)

    def test_randomized_large(self, rng):
        pairs = [(rng.randint(1, 10**6), rng.randint(1, 10**6)) for _ in range(10**4)]
        assert prime_property_check(13, pairs)

    def test_composite_pseudo_prime_fails(self):
        # 6 | 4*9 yet 6 divides neither factor: the check exposes non-primes
        assert not prime_property_check(6, [(4, 9)])

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            prime_property_check(1, [(2, 3)])


class TestReportsAndDot:
    def test_report_keys_and_values(self):
        report = lattice_report(30)
        assert report == {
            "a": 30,
            "elements": [1, 2, 3, 5, 6, 10, 15, 30],
            "atoms": [2, 3, 5],
            "width": 3,
            "chains": report["chains"],
            "boolean": True,
            "distributive": True,
            "complemented": True,
        }
        assert len(report["chains"]) == 3

    def test_dot_output(self):
        poset = co_ideal(12)
        dot = to_dot(poset)
        assert dot.startswith("digraph divisors_of_12 {")
        assert '"6" -> "12";' in dot
        assert dot.count("->") == len(poset.hasse_edges)

    def test_dot_chain_coloring(self):
        poset = co_ideal(30)
        cover = chain_cover(poset)
        dot = to_dot(poset, cover.chains)
        assert "color=" in dot

    def test_dot_deterministic(self):
        assert to_dot(co_ideal(360)) == to_dot(co_ideal(360))
