"""Modular arithmetic and the two Legendre-symbol engines."""

import itertools
import math

import pytest
from hypothesis import example, given, strategies as st

from modsquares.modarith import (
    MAX_MODULUS,
    Symbol,
    discrete_log,
    first_odd_primes,
    is_prime,
    iter_odd_primes,
    legendre_euler,
    legendre_reciprocity,
    odd_primes_below,
    prime_value,
    residue_rule,
    sqrt_mod,
)
from modsquares.primroots import smallest_primitive_root
from modsquares.rng import SplitMix64


def brute_squares(p):
    """Independent oracle: square every residue."""
    return {x * x % p for x in range(1, p)}


def walk_log(g, a, p):
    """Orbit-walk oracle: the position of a in 1, g, g**2, ... mod p."""
    x = 1
    for l in range(p - 1):
        if x == a:
            return l
        x = x * g % p
        if x == 1:
            break
    raise ValueError(
        f"{a} is not a power of {g} mod {p}: the orbit of {g} closed early, "
        "so g is not a primitive root"
    )


def log_or_error(log, g, a, p):
    try:
        return log(g, a, p)
    except ValueError as exc:
        return str(exc)


class TestIsPrime:
    def test_small_values(self):
        assert [n for n in range(30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_carmichael_numbers_rejected(self):
        # strong-pseudoprime traps for weak tests
        for n in (561, 1105, 1729, 2465, 2821, 6601):
            assert not is_prime(n)

    def test_large_known_prime(self):
        assert is_prime(2**61 - 1)
        assert not is_prime((2**31 - 1) * (2**31 + 11))

    def test_prime_listing_matches_sieve(self):
        assert odd_primes_below(100) == [p for p in range(3, 100, 2) if is_prime(p)]
        assert first_odd_primes(7) == [3, 5, 7, 11, 13, 17, 19]
        # the sieve bound switches to Rosser's formula at count = 5
        oracle = list(itertools.islice(iter_odd_primes(), 2000))
        for count in range(1, 2001):
            assert first_odd_primes(count) == oracle[:count]


class TestOddPrime:
    """`prime_value`, the one validator of prime moduli."""

    @pytest.mark.parametrize("bad", [1, 2, 8, 9, 15, -7, 0, 8191 * 3])
    def test_rejects_non_odd_primes(self, bad):
        with pytest.raises(ValueError):
            prime_value(bad)

    def test_rejects_oversized(self):
        with pytest.raises(ValueError):
            prime_value(2**63 + 37)

    def test_rejects_non_integers(self):
        with pytest.raises(ValueError):
            prime_value(11.0)

    def test_accepts_and_unwraps(self):
        p = prime_value(8191)
        assert int(p) == 8191
        assert range(int(p))[-1] == 8190


def is_odd_prime_below_2_63(n):
    """Oracle: trial division up to 2**20, the Miller-Rabin test above."""
    if n < 3 or n % 2 == 0 or n >= MAX_MODULUS:
        return False
    if n < 1 << 20:
        return all(n % d for d in range(3, math.isqrt(n) + 1, 2))
    return is_prime(n)


@given(st.integers(-100, 1 << 16) | st.integers(-(1 << 70), 1 << 70))
@example(2)
@example(3)
@example(2**63 - 25)  # the largest prime below 2**63
@example(2**63 + 37)
def test_prime_value_returns_exactly_the_odd_primes_below_2_63(n):
    if is_odd_prime_below_2_63(n):
        assert prime_value(n) == n and type(prime_value(n)) is int
    else:
        with pytest.raises(ValueError):
            prime_value(n)


@given(st.booleans() | st.floats(allow_nan=True, allow_infinity=True))
@example(11.0)
def test_prime_value_refuses_bools_and_floats(x):
    with pytest.raises(ValueError, match="p must be an integer"):
        prime_value(x)


class TestLegendreEuler:
    def test_one_is_always_a_square(self):
        for p in first_odd_primes(20):
            assert legendre_euler(1, p) == Symbol.RESIDUE

    def test_two_mod_8191(self):
        assert legendre_euler(2, 8191) == 1

    def test_row_for_eleven(self):
        row = [int(legendre_euler(a, 11)) for a in range(1, 11)]
        assert row == [1, -1, 1, 1, 1, -1, -1, -1, 1, -1]

    def test_multiple_of_p_gives_zero(self):
        assert legendre_euler(0, 11) == Symbol.DIVISIBLE
        assert legendre_euler(22, 11) == 0
        assert legendre_euler(-11, 11) == 0

    def test_agrees_with_exhaustive_squaring(self):
        for p in odd_primes_below(200):
            squares = brute_squares(p)
            for a in range(1, p):
                expected = 1 if a in squares else -1
                assert legendre_euler(a, p) == expected

    def test_half_the_residues_are_squares(self):
        for p in odd_primes_below(300):
            plus = sum(1 for a in range(1, p) if legendre_euler(a, p) == 1)
            assert plus == (p - 1) // 2


class TestLegendreReciprocity:
    def test_p_on_itself_is_zero(self):
        for q in (3, 7, 11, 97):
            assert legendre_reciprocity(q, q) == 0

    def test_two_mod_8191(self):
        assert legendre_reciprocity(2, 8191) == 1

    def test_negative_arguments_reduce(self):
        assert legendre_reciprocity(-1, 13) == legendre_euler(-1, 13) == 1
        assert legendre_reciprocity(-1, 11) == legendre_euler(-1, 11) == -1

    def test_matches_euler_engine(self):
        for p in odd_primes_below(200):
            for a in range(1, p):
                assert legendre_reciprocity(a, p) == legendre_euler(a, p), (a, p)


def test_multiplicativity_small_range():
    for p in odd_primes_below(100):
        sym = [0] + [int(legendre_euler(a, p)) for a in range(1, p)]
        for a in range(1, p):
            for b in range(1, p):
                assert sym[a * b % p] == sym[a] * sym[b]


class TestResidueRule:
    def test_minus_one_rule(self):
        for p in odd_primes_below(500):
            expected = 1 if p % 4 == 1 else -1
            assert residue_rule(-1, p) == expected
            assert residue_rule(-1, p) == legendre_euler(-1, p)

    def test_two_mod_8191(self):
        assert residue_rule(2, 8191) == 1

    def test_six_mod_23(self):
        assert residue_rule(6, 23) == 1
        assert legendre_euler(6, 23) == 1

    def test_agrees_with_euler_small_range(self):
        for p in odd_primes_below(500):
            for a in (-1, 2, 3, 5, 6):
                if a > 0 and a % p == 0:
                    continue
                assert residue_rule(a, p) == legendre_euler(a, p), (a, p)

    def test_rejects_unsupported_argument(self):
        with pytest.raises(ValueError):
            residue_rule(7, 11)

    def test_rejects_p_dividing_a(self):
        with pytest.raises(ValueError):
            residue_rule(3, 3)
        with pytest.raises(ValueError):
            residue_rule(6, 3)
        with pytest.raises(ValueError):
            residue_rule(5, 5)


class TestDiscreteLog:
    def test_log_of_one_is_zero(self):
        assert discrete_log(2, 1, 11) == 0
        assert discrete_log(17, 1, 8191) == 0

    def test_known_cycle_position(self):
        # 5 = 2**4 in the cycle (1, 2, 4, 8, 5, 10, 9, 7, 3, 6) mod 11
        assert discrete_log(2, 5, 11) == 4

    def test_round_trips_pow(self):
        for p in odd_primes_below(200):
            g = smallest_primitive_root(p)
            for a in range(1, p):
                assert pow(g, discrete_log(g, a, p), p) == a

    def test_orbit_exhaustion_raises(self):
        # 3 has order 5 mod 11; 2 is outside its orbit
        with pytest.raises(ValueError, match="2 is not a power of 3 mod 11"):
            discrete_log(3, 2, 11)

    def test_matches_the_orbit_walk_for_every_g_and_a(self):
        # primitive or not: the same l, or the same error.  All pairs below
        # 128; above, every g with 16 spread values of a (all 1.58 million
        # pairs below 300 take about half a minute)
        for p in odd_primes_below(300):
            step = 1 if p < 128 else -(-p // 16)
            for g in range(1, p):
                for a in range(1, p, step):
                    assert log_or_error(discrete_log, g, a, p) == log_or_error(walk_log, g, a, p)

    def test_matches_the_orbit_walk_near_a_million(self):
        rng = SplitMix64(1_000_003)
        for p in (999_983, 1_000_003, 1_000_033):
            for _ in range(3):
                g, a = 1 + rng.randbelow(p - 1), 1 + rng.randbelow(p - 1)
                assert log_or_error(discrete_log, g, a, p) == log_or_error(walk_log, g, a, p)
            g = smallest_primitive_root(p)
            a = pow(g, rng.randbelow(p - 1), p)
            assert discrete_log(g, a, p) == walk_log(g, a, p)

    def test_prime_order_beyond_the_baby_step_table(self):
        # p = 2q + 1 with q = 8589934631 > 2**32: q's digit needs more
        # giant steps than the 2**16-entry table has entries
        p = 17179869263
        for g, a in ((5, 2), (5, p - 1), (3, 12345678), (2, 3)):
            assert pow(g, discrete_log(g, a, p), p) == a

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            discrete_log(2, 0, 11)
        with pytest.raises(ValueError):
            discrete_log(0, 1, 11)


class TestSqrtMod:
    def test_root_of_one(self):
        for p in (5, 11, 8191):
            assert sqrt_mod(1, p, smallest_primitive_root(p)) == 1

    def test_root_of_two_mod_8191(self):
        assert sqrt_mod(2, 8191, smallest_primitive_root(8191)) == 128

    def test_squaring_round_trip(self):
        for p in odd_primes_below(200):
            g = smallest_primitive_root(p)
            for r in range(1, p):
                root = sqrt_mod(r * r % p, p, g)
                assert root == min(r, p - r)

    def test_nonresidue_gives_none(self):
        for p in odd_primes_below(100):
            g = smallest_primitive_root(p)
            squares = brute_squares(p)
            for a in range(1, p):
                root = sqrt_mod(a, p, g)
                if a in squares:
                    assert root is not None
                    assert root * root % p == a
                    assert root <= (p - 1) // 2
                else:
                    assert root is None

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            sqrt_mod(0, 11, 2)

    def test_rejects_a_non_primitive_g(self):
        # 3 has order 5 mod 11, so log_3 3 = 1 is odd although 3 = 5**2
        with pytest.raises(ValueError, match="3 is not a primitive root of 11"):
            sqrt_mod(3, 11, 3)
