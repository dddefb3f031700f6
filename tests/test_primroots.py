"""Factorization, the totient, and primitive-root enumeration."""

import math

import pytest

from modsquares.genseq import lcg_orbit
from modsquares.modarith import odd_primes_below
from modsquares.primroots import (
    euler_phi,
    factorize,
    inverse_pairs,
    is_primitive_root,
    primitive_roots,
    smallest_primitive_root,
)


def phi_by_gcd_count(n):
    """Independent totient oracle."""
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def prime_by_trial_division(q):
    """Independent primality oracle: no divisor from 2 up to sqrt(q)."""
    return q >= 2 and all(q % d for d in range(2, math.isqrt(q) + 1))


# 40- to 62-bit inputs whose trial division stays short: all small primes,
# or one large prime cofactor (2**31 - 1) left after the small ones.
WIDE = [2**40 - 1, 2**48 - 1, 8191 * 131071 * 524287, 10**18,
        2**29 * (2**31 - 1), 2**61 - 2, 2**32 * (2**30 - 1)]


class TestFactorize:
    def test_smallest_input(self):
        assert factorize(2) == ((2, 1),)

    def test_twenty_eight(self):
        assert factorize(28) == ((2, 2), (7, 1))

    def test_8190(self):
        assert factorize(8190) == ((2, 1), (3, 2), (5, 1), (7, 1), (13, 1))

    def test_multiply_back(self):
        for n in [*range(2, 2000), *WIDE]:
            pairs = factorize(n)
            primes = [q for q, _ in pairs]
            assert primes == sorted(set(primes)), n
            assert all(prime_by_trial_division(q) and e >= 1 for q, e in pairs), n
            assert math.prod(q**e for q, e in pairs) == n

    def test_rejects_small_and_huge(self):
        with pytest.raises(ValueError):
            factorize(1)
        with pytest.raises(ValueError):
            factorize(2**63)


class TestEulerPhi:
    def test_one(self):
        assert euler_phi(1) == 1

    def test_counts_behind_root_counts(self):
        assert euler_phi(10) == 4  # the four primitive roots of 11
        assert euler_phi(28) == 12  # the twelve primitive roots of 29

    def test_matches_gcd_count(self):
        for n in range(1, 300):
            assert euler_phi(n) == phi_by_gcd_count(n)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            euler_phi(0)


class TestIsPrimitiveRoot:
    def test_one_is_never_a_root(self):
        for p in (5, 11, 8191):
            assert not is_primitive_root(1, p)

    def test_known_roots_of_eleven(self):
        assert is_primitive_root(2, 11)
        assert not is_primitive_root(3, 11)

    def test_short_period_multiplier(self):
        assert not is_primitive_root(1904, 8191)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            is_primitive_root(0, 11)
        with pytest.raises(ValueError):
            is_primitive_root(11, 11)


class TestPrimitiveRoots:
    def test_three(self):
        assert primitive_roots(3) == (2,)

    def test_eleven(self):
        assert primitive_roots(11) == (2, 6, 7, 8)

    def test_twenty_nine(self):
        assert primitive_roots(29) == (2, 3, 8, 10, 11, 14, 15, 18, 19, 21, 26, 27)

    def test_count_is_totient_of_p_minus_1(self):
        for p in odd_primes_below(500):
            assert len(primitive_roots(p)) == euler_phi(p - 1)

    def test_roots_ascending_and_in_range(self):
        roots = primitive_roots(97)
        assert list(roots) == sorted(roots)
        assert all(2 <= g <= 96 for g in roots)

    def test_smallest_primitive_root(self):
        for p in odd_primes_below(200):
            g = smallest_primitive_root(p)
            assert g == primitive_roots(p)[0]


def test_roots_have_full_period_and_non_roots_do_not():
    for p in odd_primes_below(100):
        roots = set(primitive_roots(p))
        for g in range(1, p):
            period = lcg_orbit(g, p).period
            assert (p - 1) % period == 0
            if g in roots:
                assert period == p - 1
            else:
                assert period < p - 1


class TestInversePairs:
    def test_three_pairs_with_itself(self):
        assert inverse_pairs(3) == [(2, 2)]

    def test_twenty_nine_contains_2_15(self):
        assert (2, 15) in inverse_pairs(29)

    def test_pairs_multiply_to_one(self):
        for p in odd_primes_below(200):
            for g, g_inv in inverse_pairs(p):
                assert g * g_inv % p == 1

    def test_pairs_cover_roots_exactly_once(self):
        for p in odd_primes_below(200):
            flat = [g for pair in inverse_pairs(p) for g in pair]
            if p == 3:
                assert flat == [2, 2]
            else:
                assert sorted(flat) == list(primitive_roots(p))
