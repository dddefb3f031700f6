"""Congruential orbits, full cycles, and the squares generator."""

import pytest

from modsquares.genseq import (
    GeneratorCycle,
    generator_cycle,
    lcg_orbit,
    square_cycle,
    squares_set,
)
from modsquares.modarith import odd_primes_below
from modsquares.primroots import is_primitive_root, primitive_roots

CYCLE_2_MOD_29 = (
    1, 2, 4, 8, 16, 3, 6, 12, 24, 19, 9, 18, 7, 14,
    28, 27, 25, 21, 13, 26, 23, 17, 5, 10, 20, 11, 22, 15,
)


class TestLcgOrbit:
    def test_fixed_point(self):
        orbit = lcg_orbit(1, 10)
        assert orbit.states == (1,)
        assert orbit.period == 1

    def test_five_state_orbit_mod_8191(self):
        orbit = lcg_orbit(1904, 8191)
        assert orbit.states == (1, 1904, 4794, 3002, 6681)
        assert orbit.period == 5

    def test_full_period_for_root(self):
        assert lcg_orbit(2, 11).period == 10

    def test_rejects_non_coprime_multiplier(self):
        with pytest.raises(ValueError):
            lcg_orbit(6, 9)
        with pytest.raises(ValueError):
            lcg_orbit(2, 8)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            lcg_orbit(0, 9)
        with pytest.raises(ValueError):
            lcg_orbit(9, 9)
        with pytest.raises(ValueError):
            lcg_orbit(1, 1)

    def test_rejects_modulus_beyond_63_bits(self):
        with pytest.raises(ValueError, match=r"modulus must be below 2\*\*63"):
            lcg_orbit(3, 2**63)

    def test_period_divides_p_minus_1(self):
        for p in (11, 29, 97):
            for a in range(1, p):
                assert (p - 1) % lcg_orbit(a, p).period == 0

    def test_full_period_iff_primitive_root(self):
        p = 29
        for a in range(1, p):
            assert (lcg_orbit(a, p).period == p - 1) == is_primitive_root(a, p)

    def test_orbit_closes_back_to_one(self):
        for a, m in [(1904, 8191), (2, 11), (7, 100)]:
            orbit = lcg_orbit(a, m)
            assert a * orbit.states[-1] % m == 1

    def test_states_follow_the_recurrence(self):
        for a, m in [(1904, 8191), (2, 29), (7, 100)]:
            states = lcg_orbit(a, m).states
            assert states[0] == 1
            for previous, current in zip(states, states[1:]):
                assert current == a * previous % m


class TestGeneratorCycle:
    def test_cycle_2_mod_11(self):
        assert generator_cycle(2, 11).states == (1, 2, 4, 8, 5, 10, 9, 7, 3, 6)

    def test_cycle_2_mod_29(self):
        assert generator_cycle(2, 29).states == CYCLE_2_MOD_29

    def test_inverse_root_reverses_the_tail(self):
        c2 = generator_cycle(2, 29).states
        c15 = generator_cycle(15, 29).states
        assert c15 == (1,) + tuple(reversed(c2[1:]))

    def test_reversal_holds_for_every_inverse_pair(self):
        from modsquares.primroots import inverse_pairs

        for p in odd_primes_below(100):
            if p == 3:
                continue
            for g, g_inv in inverse_pairs(p):
                forward = generator_cycle(g, p).states
                backward = generator_cycle(g_inv, p).states
                assert backward == (1,) + tuple(reversed(forward[1:]))

    def test_states_are_a_permutation(self):
        for p in (11, 29, 101):
            for g in primitive_roots(p):
                assert sorted(generator_cycle(g, p).states) == list(range(1, p))

    def test_even_positions_hold_the_squares(self):
        for p in (11, 29, 101):
            for g in primitive_roots(p):
                cycle = generator_cycle(g, p)
                assert set(cycle.states[0::2]) == squares_set(p)

    def test_rejects_non_root(self):
        with pytest.raises(ValueError):
            generator_cycle(3, 11)

    def test_invariant_validation(self):
        with pytest.raises(ValueError):
            GeneratorCycle(11, 2, (2, 4))


class TestSquareCycle:
    def test_squares_mod_11(self):
        assert set(square_cycle(2, 11).states) == {1, 3, 4, 5, 9}

    def test_every_root_gives_the_same_set(self):
        for g in primitive_roots(11):
            assert set(square_cycle(g, 11).states) == {1, 3, 4, 5, 9}

    def test_period_is_half(self):
        for p in (11, 29, 101, 8191):
            g = primitive_roots(p)[0]
            assert square_cycle(g, p).period == (p - 1) // 2

    def test_walk_order_follows_even_powers(self):
        cycle = square_cycle(2, 29)
        assert cycle.states == CYCLE_2_MOD_29[0::2]

    def test_matches_exhaustive_squaring_everywhere(self):
        for p in odd_primes_below(1000):
            expected = squares_set(p)
            for g in primitive_roots(p):
                assert set(square_cycle(g, p).states) == expected

    def test_rejects_non_root(self):
        with pytest.raises(ValueError):
            square_cycle(4, 11)

    def test_is_the_orbit_of_the_squared_root(self):
        # the paper's x -> g^2 x walk from 1: states, period and multiplier
        for p in odd_primes_below(200):
            for g in primitive_roots(p):
                cycle = square_cycle(g, p)
                assert cycle == lcg_orbit(g * g % p, p)
                assert (cycle.modulus, cycle.multiplier) == (p, g * g % p)


class TestSquaresSet:
    def test_smallest_prime(self):
        assert squares_set(3) == {1}

    def test_eleven(self):
        assert squares_set(11) == {1, 3, 4, 5, 9}

    def test_seven(self):
        assert squares_set(7) == {1, 2, 4}

    def test_cardinality(self):
        for p in odd_primes_below(500):
            assert len(squares_set(p)) == (p - 1) // 2
