"""Core ring operations: construction, convolution, rank, inverse, division."""

from __future__ import annotations

import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arithring import (
    Domain,
    DomainMismatch,
    NoVisibleRank,
    NotAUnit,
    NotInDomain,
    add,
    are_associates,
    convolve,
    divide,
    epsilon,
    inverse,
    is_unit,
    make,
    monic,
    nu,
    omega,
    rank,
    restrict,
    scale,
    with_domain,
)
from arithring.ring import ArithFunc

from conftest import arith_funcs, naive_convolve, units

Q, Z = Domain.Q, Domain.Z


class TestConstruction:
    def test_make_epsilon_like(self):
        f = make([1, 0, 0], Q)
        assert f == epsilon(3, Q)
        assert f.bound == 3
        assert f[1] == 1 and f[2] == 0

    def test_make_indicator_over_z(self):
        assert make([0, 1], Z) == nu(2, 2, Z)

    def test_make_rejects_fraction_under_z(self):
        with pytest.raises(NotInDomain):
            make(["1/2"], Z)
        with pytest.raises(NotInDomain):
            make([Fraction(1, 2)], Z)

    def test_make_accepts_integer_valued_fraction_under_z(self):
        f = make(["4/2"], Z)
        assert f.values == (2,)
        assert isinstance(f.values[0], int)

    def test_make_rejects_empty_and_floats(self):
        with pytest.raises(ValueError):
            make([], Q)
        with pytest.raises(NotInDomain):
            make([0.5], Q)

    def test_make_parses_strings(self):
        f = make(["1/2", "-3", "0"], Q)
        assert f.values == (Fraction(1, 2), Fraction(-3), Fraction(0))

    def test_make_accepts_numpy_integers(self):
        f = make(np.array([3, -1, 0]), Z)
        assert f.values == (3, -1, 0)
        assert all(type(v) is int for v in f.values)
        with pytest.raises(NotInDomain):
            make([np.float64(0.5)], Q)

    @pytest.mark.parametrize(
        "value, want",
        [
            (True, 1),
            (False, 0),
            (np.int64(-7), -7),
            (np.uint8(200), 200),
            (Fraction(4, 1), 4),
            (" 6/3 ", 2),
            ("-5", -5),
        ],
    )
    def test_make_over_z_coerces_values_that_are_not_exact_ints(self, value, want):
        for values in ([3, value, 0], [value], iter([value, 3])):
            f = make(values, Z)
            assert want in f.values
            assert all(type(v) is int for v in f.values)

    @pytest.mark.parametrize(
        "value, message",
        [
            (0.0, "floating point value 0.0 rejected"),
            (np.float64(2.0), "floating point value"),
            ("x", "cannot parse coefficient 'x'"),
            ("1/2", "1/2 is not an integer"),
            (Fraction(1, 2), "1/2 is not an integer"),
            (None, "unsupported coefficient type NoneType"),
        ],
    )
    def test_make_over_z_rejects_values_that_are_not_integers(self, value, message):
        with pytest.raises(NotInDomain, match=message):
            make([1, 2, value], Z)

    def test_long_unparsable_text_is_quoted_short(self):
        with pytest.raises(NotInDomain) as info:
            make([1, "y" * 100], Z)
        assert str(info.value) == "cannot parse coefficient '" + "y" * 40 + "'... (100 characters)"
        digits = sys.get_int_max_str_digits() + 1
        with pytest.raises(NotInDomain, match=rf"\({digits} characters\): more digits than"):
            make(["9" * digits], Z)

    def test_make_over_z_keeps_exact_ints(self):
        values = [5, -(1 << 70), 0, 1 << 63]
        f = make(iter(values), Z)
        assert f.values == tuple(values)
        assert all(type(v) is int for v in f.values)

    def test_epsilon_omega_nu_vectors(self):
        assert epsilon(4, Q).values == (1, 0, 0, 0)
        assert omega(3, Z).values == (0, 0, 0)
        assert nu(3, 4, Q).values == (0, 0, 1, 0)

    def test_nu_out_of_range(self):
        with pytest.raises(ValueError):
            nu(5, 4, Q)
        with pytest.raises(ValueError):
            nu(0, 4, Q)

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            epsilon(0, Q)

    def test_with_domain_embeds_and_rejects(self):
        f = make([1, -2, 2**70], Z)
        g = with_domain(f, Q)
        assert g.domain is Q and g.values == (Fraction(1), Fraction(-2), Fraction(2**70))
        assert all(type(v) is Fraction for v in g.values)
        assert with_domain(g, Z) == f
        with pytest.raises(NotInDomain):
            with_domain(make(["1/2"], Q), Z)

    def test_indexing(self):
        f = make([5, 6, 7], Z)
        assert f[3] == 7
        with pytest.raises(IndexError):
            f[0]
        with pytest.raises(IndexError):
            f[4]


class TestAdd:
    def test_additive_identity(self):
        f = epsilon(8, Q)
        assert add(f, omega(8, Q)) == f

    def test_disjoint_indicators(self):
        s = add(nu(2, 6, Q), nu(3, 6, Q))
        assert s.values == (0, 1, 1, 0, 0, 0)

    def test_domain_mismatch(self):
        with pytest.raises(DomainMismatch):
            add(epsilon(4, Q), epsilon(4, Z))

    def test_mixed_bounds_truncate(self):
        s = add(make([1, 1, 1], Z), make([1, 1], Z))
        assert s.values == (2, 2)

    @given(arith_funcs(Q))
    def test_additive_inverse(self, f):
        assert add(f, scale(f, -1)) == omega(f.bound, Q)


class TestConvolve:
    def test_indicator_law(self):
        assert convolve(nu(2, 10, Q), nu(3, 10, Q)) == nu(6, 10, Q)

    def test_tau_at_six(self):
        one = make([1] * 8, Z)
        # divisors of 6 are {1, 2, 3, 6}
        assert convolve(one, one)[6] == 4

    @given(arith_funcs(Z, max_bound=64))
    @settings(max_examples=30)
    def test_identity_element(self, f):
        assert convolve(epsilon(f.bound, Z), f) == f
        assert convolve(f, epsilon(f.bound, Z)) == f

    @given(arith_funcs(Q, max_bound=24), arith_funcs(Q, max_bound=24))
    @settings(max_examples=40)
    def test_matches_trial_division_oracle_q(self, f, g):
        assert convolve(f, g) == naive_convolve(f, g)

    @given(arith_funcs(Z, max_bound=24), arith_funcs(Z, max_bound=24))
    @settings(max_examples=40)
    def test_matches_trial_division_oracle_z(self, f, g):
        assert convolve(f, g) == naive_convolve(f, g)

    def test_huge_values_use_exact_path(self):
        big = 10**30
        f = make([big, -big, big + 1], Z)
        g = make([big, big, big], Z)
        assert convolve(f, g) == naive_convolve(f, g)

    def test_int64_boundary_values_stay_exact(self):
        lead = (1 << 62) - 1
        f = make([lead, 1, 1, 1], Z)
        assert convolve(f, f) == naive_convolve(f, f)

    @given(arith_funcs(Z, max_bound=32), arith_funcs(Z, max_bound=32),
           arith_funcs(Z, max_bound=32))
    @settings(max_examples=25)
    def test_ring_axioms(self, f, g, h):
        n = min(f.bound, g.bound, h.bound)
        f, g, h = restrict(f, n), restrict(g, n), restrict(h, n)
        assert convolve(f, g) == convolve(g, f)
        assert convolve(convolve(f, g), h) == convolve(f, convolve(g, h))
        assert convolve(f, add(g, h)) == add(convolve(f, g), convolve(f, h))

    @given(arith_funcs(Q, max_bound=32), arith_funcs(Q, max_bound=32))
    @settings(max_examples=25)
    def test_integral_domain_rank_product(self, f, g):
        rf, rg = rank(f), rank(g)
        n = min(f.bound, g.bound)
        if not (rf.visible and rg.visible) or rf.index * rg.index > n:
            return
        product = convolve(f, g)
        rp = rank(product)
        assert rp.index == rf.index * rg.index
        assert product[rf.index * rg.index] == rf.leading * rg.leading
        assert rp.leading != 0


class TestRank:
    def test_indicator(self):
        r = rank(nu(6, 10, Q))
        assert r.visible and (r.index, r.leading) == (6, 1)

    def test_zero_function(self):
        assert not rank(omega(5, Z)).visible

    def test_inverse_of_one_has_rank_one(self):
        mu = inverse(make([1] * 10, Z))
        r = rank(mu)
        assert (r.index, r.leading) == (1, 1)


class TestUnits:
    def test_multiplicative_function_is_unit(self):
        phi = make([1, 1, 2, 2, 4, 2], Q)
        assert is_unit(phi)

    def test_two_epsilon(self):
        double = scale(epsilon(4, Z), 2)
        assert not is_unit(double)
        assert is_unit(with_domain(double, Q))

    def test_negative_unit_over_z(self):
        assert is_unit(scale(epsilon(4, Z), -1))


class TestInverse:
    def test_epsilon_self_inverse(self):
        assert inverse(epsilon(6, Q)) == epsilon(6, Q)

    def test_one_function_inverts_to_mobius(self):
        # mobius values on 1..30 from squarefree sign factorization
        expected = [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0, -1, 1, 1,
                    0, -1, 0, -1, 0, 1, 1, -1, 0, 0, 1, 0, 0, -1, -1]
        assert inverse(make([1] * 30, Z)).values == tuple(expected)

    def test_leading_reciprocal(self):
        f = make([2, 1, 1], Q)
        assert inverse(f)[1] == Fraction(1, 2)

    def test_not_a_unit(self):
        with pytest.raises(NotAUnit):
            inverse(nu(2, 4, Q))
        with pytest.raises(NotAUnit):
            inverse(scale(epsilon(4, Z), 2))

    @given(units(Q, max_bound=40))
    @settings(max_examples=30)
    def test_inverse_correctness_q(self, f):
        g = inverse(f)
        assert convolve(f, g) == epsilon(f.bound, Q)
        assert inverse(g) == f

    @given(units(Z, max_bound=40))
    @settings(max_examples=30)
    def test_inverse_correctness_z(self, f):
        g = inverse(f)
        assert convolve(f, g) == epsilon(f.bound, Z)
        assert inverse(g) == f

    def test_inverse_unique_at_bound(self):
        f = make([2, 3, -1, 5, 0, 7], Q)
        g = inverse(f)
        for i in range(f.bound):
            perturbed = ArithFunc(Q, g.values[:i] + (g.values[i] + 1,) + g.values[i + 1:])
            assert convolve(f, perturbed) != epsilon(f.bound, Q)


class TestDivide:
    def test_indicator_quotient(self):
        result = divide(nu(6, 12, Q), nu(2, 12, Q))
        assert result.divisible and result.quotient == nu(3, 12, Q)

    def test_witness_at_three(self):
        total = add(nu(2, 12, Q), nu(3, 12, Q))
        result = divide(total, nu(2, 12, Q))
        assert not result.divisible and result.witness == 3

    @given(arith_funcs(Q, max_bound=24), units(Q, max_bound=24))
    @settings(max_examples=30)
    def test_division_by_unit(self, f, d):
        n = min(f.bound, d.bound)
        f, d = restrict(f, n), restrict(d, n)
        result = divide(f, d)
        assert result.divisible
        assert result.quotient == convolve(inverse(d), f)

    def test_zero_numerator_gives_omega(self):
        result = divide(omega(8, Q), nu(2, 8, Q))
        assert result.divisible and result.quotient == omega(8, Q)

    def test_zero_denominator_raises(self):
        with pytest.raises(NoVisibleRank):
            divide(epsilon(8, Q), omega(8, Q))

    def test_integer_exact_division_failure(self):
        result = divide(epsilon(4, Z), scale(epsilon(4, Z), 2))
        assert not result.divisible and result.witness == 1

    def test_integer_witness_mid_solve(self):
        # 2*eps + nu_2 has quotient g(1)=? against 2*eps: g(1)=1 fails 2g=... 2g(1)=2 ok g(1)=1; index2: g(2)*2 = 1 -> fails
        num = add(scale(epsilon(4, Z), 2), nu(2, 4, Z))
        result = divide(num, scale(epsilon(4, Z), 2))
        assert not result.divisible and result.witness == 2

    @given(arith_funcs(Q, max_bound=20), arith_funcs(Q, min_bound=1, max_bound=20))
    @settings(max_examples=40)
    def test_division_soundness(self, f, d):
        n = min(f.bound, d.bound)
        f, d = restrict(f, n), restrict(d, n)
        if not rank(d).visible:
            return
        result = divide(f, d)
        if result.divisible:
            assert convolve(d, result.quotient) == f
        else:
            assert 1 <= result.witness <= n
            # the triangular solve is unique, so the verdict is deterministic
            assert divide(f, d) == result

    @given(arith_funcs(Q, max_bound=20), arith_funcs(Q, max_bound=20))
    @settings(max_examples=30)
    def test_product_always_divides_back(self, f, g):
        n = min(f.bound, g.bound)
        f, g = restrict(f, n), restrict(g, n)
        if not rank(g).visible:
            return
        product = convolve(f, g)
        result = divide(product, g)
        assert result.divisible
        assert convolve(g, result.quotient) == product

    @given(arith_funcs(Q, max_bound=20), units(Q, max_bound=20))
    @settings(max_examples=25)
    def test_same_rank_divisor_implies_unit_quotient(self, f, d):
        n = min(f.bound, d.bound)
        f, d = restrict(f, n), restrict(d, n)
        g = convolve(f, d)  # same rank as f
        if not rank(f).visible:
            return
        result = divide(g, f)
        assert result.divisible
        assert rank(g).index == rank(f).index
        assert is_unit(result.quotient)


class TestAssociates:
    def test_reflexive(self):
        f = make([0, 2, 3], Q)
        assert are_associates(f, f)

    def test_scalar_unit_factor(self):
        assert are_associates(nu(2, 8, Q), scale(nu(2, 8, Q), 3))

    def test_counterexample_same_rank(self):
        assert not are_associates(nu(2, 12, Q), add(nu(2, 12, Q), nu(3, 12, Q)))

    def test_zero_functions(self):
        assert are_associates(omega(4, Q), omega(4, Q))
        assert not are_associates(omega(4, Q), nu(2, 4, Q))

    def test_integer_scaling_is_not_associate(self):
        # over Z the scalar 2 is not a unit
        assert not are_associates(epsilon(4, Z), scale(epsilon(4, Z), 2))
        assert are_associates(epsilon(4, Z), scale(epsilon(4, Z), -1))

    @given(
        arith_funcs(Q, max_bound=16),
        arith_funcs(Q, max_bound=16),
        units(Q, max_bound=16),
        units(Q, max_bound=16),
    )
    @settings(max_examples=20)
    def test_congruence_of_products(self, f, g, d1, d2):
        n = min(f.bound, g.bound, d1.bound, d2.bound)
        f, g = restrict(f, n), restrict(g, n)
        f2 = convolve(f, restrict(d1, n))
        g2 = convolve(g, restrict(d2, n))
        assert are_associates(f, f2)
        assert are_associates(g, g2)
        assert are_associates(convolve(f, g), convolve(f2, g2))

    @pytest.mark.parametrize("domain", [Q, Z])
    @given(data=st.data())
    @settings(max_examples=60)
    def test_matches_two_sided_division(self, domain, data):
        """Oracle: associates are exactly the pairs that divide each other."""
        f = data.draw(arith_funcs(domain, max_bound=16, max_abs=3))
        g = data.draw(
            st.one_of(
                arith_funcs(domain, max_bound=16, max_abs=3),
                units(domain, max_bound=16, max_abs=3).map(lambda u: convolve(f, u)),
                arith_funcs(domain, max_bound=16, max_abs=3).map(lambda h: convolve(f, h)),
            )
        )
        n = min(f.bound, g.bound)
        f, g = restrict(f, n), restrict(g, n)
        if not rank(f).visible or not rank(g).visible:
            return
        two_sided = divide(f, g).divisible and divide(g, f).divisible
        assert are_associates(f, g) == two_sided


class TestScaleRestrict:
    def test_scale_one_is_identity(self):
        f = make([3, -1, 4], Q)
        assert scale(f, 1) == f

    def test_scale_matches_convolution_with_scaled_epsilon(self):
        f = make([3, -1, 4, 1, 5], Z)
        assert scale(f, 7) == convolve(scale(epsilon(5, Z), 7), f)

    def test_scaled_epsilon_is_rank_one_nonunit_over_z(self):
        f = scale(epsilon(6, Z), 2)
        r = rank(f)
        assert (r.index, r.leading) == (1, 2)
        assert not is_unit(f)

    def test_restrict_commutes_with_convolve_exhaustive(self, rng):
        n = 24
        f = make([rng.randint(-9, 9) for _ in range(n)], Z)
        g = make([rng.randint(-9, 9) for _ in range(n)], Z)
        product = convolve(f, g)
        for m in range(1, n + 1):
            assert restrict(product, m) == convolve(restrict(f, m), restrict(g, m))

    def test_restrict_range_errors(self):
        f = make([1, 2], Q)
        with pytest.raises(ValueError):
            restrict(f, 0)
        with pytest.raises(ValueError):
            restrict(f, 3)

    @given(units(Q, min_bound=2, max_bound=24))
    @settings(max_examples=20)
    def test_restrict_commutes_with_inverse(self, f):
        m = max(1, f.bound // 2)
        assert restrict(inverse(f), m) == inverse(restrict(f, m))

    @given(arith_funcs(Q, min_bound=2, max_bound=24), arith_funcs(Q, min_bound=2, max_bound=24))
    @settings(max_examples=20)
    def test_restrict_commutes_with_add(self, f, g):
        n = min(f.bound, g.bound)
        m = max(1, n // 2)
        assert restrict(add(f, g), m) == add(restrict(f, m), restrict(g, m))

    def test_divide_verdict_restricts(self):
        f = convolve(nu(2, 24, Q), make([1, 2, 0, 1] + [0] * 20, Q))
        result = divide(f, nu(2, 24, Q))
        assert result.divisible
        smaller = divide(restrict(f, 12), nu(2, 12, Q))
        assert smaller.divisible
        assert smaller.quotient == restrict(result.quotient, 12)


class TestMonic:
    def test_monic_normalizes_leading(self):
        f = make([0, 4, 6], Q)
        g = monic(f)
        assert rank(g).leading == 1
        assert are_associates(f, g)

    def test_monic_needs_rationals(self):
        with pytest.raises(NotInDomain):
            monic(make([0, 4], Z))

    def test_monic_needs_nonzero(self):
        with pytest.raises(NoVisibleRank):
            monic(omega(3, Q))
