"""Legendre sequences, runs, pair counts, and the runs-test null."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from modsquares.modarith import odd_primes_below
from modsquares.permstats import SimConfig
from modsquares.runstats import (
    aladov_predicted,
    count_runs,
    legendre_pair_counts,
    legendre_sequence,
    pair_counts,
    runs_null_moments,
    scan_runs,
    simulate_runs,
)

# the symbol table for the first seven odd primes, with run counts
SMALL_PRIME_TABLE = {
    3: ((1, -1), 2),
    5: ((1, -1, -1, 1), 3),
    7: ((1, 1, -1, 1, -1, -1), 4),
    11: ((1, -1, 1, 1, 1, -1, -1, -1, 1, -1), 6),
    13: ((1, -1, 1, 1, -1, -1, -1, -1, 1, 1, -1, 1), 7),
    17: ((1, 1, -1, 1, -1, -1, -1, 1, 1, -1, -1, -1, 1, -1, 1, 1), 9),
    19: ((1, -1, -1, 1, 1, 1, 1, -1, 1, -1, 1, -1, -1, -1, -1, 1, 1, -1), 10),
}


def runs_oracle(symbols):
    """Count maximal blocks by grouping."""
    return len([1 for _ in itertools.groupby(symbols)])


def enumerate_runs_moments(n_plus, n_minus):
    """Exact run-count moments over all arrangements of the multiset."""
    n = n_plus + n_minus
    counts = []
    for plus_positions in itertools.combinations(range(n), n_plus):
        seq = [-1] * n
        for i in plus_positions:
            seq[i] = 1
        counts.append(runs_oracle(seq))
    mean = Fraction(sum(counts), len(counts))
    variance = sum((Fraction(c) - mean) ** 2 for c in counts) / len(counts)
    return mean, variance


class TestLegendreSequence:
    @pytest.mark.parametrize("p", sorted(SMALL_PRIME_TABLE))
    def test_small_prime_rows(self, p):
        symbols, _ = SMALL_PRIME_TABLE[p]
        assert legendre_sequence(p) == symbols

    def test_starts_with_plus_one_and_is_balanced(self):
        for p in odd_primes_below(500):
            seq = legendre_sequence(p)
            assert len(seq) == p - 1
            assert seq[0] == 1
            assert sum(1 for s in seq if s == 1) == (p - 1) // 2

    def test_perfect_squares_carry_plus_one(self):
        for p in (11, 97, 8191):
            seq = legendre_sequence(p)
            k = 1
            while k * k < p:
                assert seq[k * k - 1] == 1
                k += 1


class TestCountRuns:
    def test_constant_sequence(self):
        assert count_runs([1] * 9) == 1
        assert count_runs([-1]) == 1

    def test_small_prime_run_counts(self):
        for p, (_, runs) in SMALL_PRIME_TABLE.items():
            assert count_runs(legendre_sequence(p)) == runs

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            count_runs([])

    def test_rejects_other_symbols(self):
        with pytest.raises(ValueError):
            count_runs([1, 0, -1])

    @given(st.lists(st.sampled_from([1, -1]), min_size=1, max_size=200))
    def test_matches_groupby_oracle(self, symbols):
        assert count_runs(symbols) == runs_oracle(symbols)

    @given(st.lists(st.sampled_from([1, -1]), min_size=2, max_size=200))
    def test_runs_equal_sign_changes_plus_one(self, symbols):
        pc = pair_counts(symbols)
        assert count_runs(symbols) == pc.npm + pc.nmp + 1 == pc.runs


class TestPairCounts:
    def test_p7_worked_example(self):
        pc = pair_counts(legendre_sequence(7))
        assert pc.as_tuple() == (1, 2, 1, 1)

    def test_p13_row(self):
        pc = pair_counts(legendre_sequence(13))
        assert (pc.npp, pc.npm, pc.nmp, pc.nmm) == (2, 3, 3, 3)
        assert pc == aladov_predicted(13)

    def test_constant_plus_sequence(self):
        pc = pair_counts([1] * 10)
        assert pc.as_tuple() == (9, 0, 0, 0)

    def test_rejects_short_input(self):
        with pytest.raises(ValueError):
            pair_counts([1])

    @given(st.lists(st.sampled_from([1, -1]), min_size=2, max_size=200))
    def test_totals_and_alternation_balance(self, symbols):
        pc = pair_counts(symbols)
        assert pc.total == len(symbols) - 1
        # +- and -+ transitions interleave, so they differ by at most one
        assert abs(pc.npm - pc.nmp) <= 1


class TestLegendrePairCounts:
    def test_matches_the_symbol_sequence(self):
        for p in odd_primes_below(3000):
            seq = legendre_sequence(p)
            fused = legendre_pair_counts(p)
            assert fused == pair_counts(seq), p
            assert fused.runs == count_runs(seq) == (p + 1) // 2, p

    @pytest.mark.parametrize("bad", [1, 2, 15, 8191 * 3])
    def test_rejects_non_odd_primes(self, bad):
        with pytest.raises(ValueError):
            legendre_pair_counts(bad)


class TestAladovPredicted:
    def test_p5_against_the_sequence(self):
        assert aladov_predicted(5) == pair_counts(legendre_sequence(5))
        assert aladov_predicted(5).as_tuple() == (0, 1, 1, 1)

    def test_p7(self):
        assert aladov_predicted(7).as_tuple() == (1, 2, 1, 1)

    def test_totals_are_p_minus_2(self):
        for p in odd_primes_below(2000):
            assert aladov_predicted(p).total == p - 2

    def test_matches_observed_counts(self):
        for p in odd_primes_below(1000):
            assert pair_counts(legendre_sequence(p)) == aladov_predicted(p), p


class TestRunsNullMoments:
    def test_two_singletons(self):
        mean, variance = runs_null_moments(1, 1)
        assert mean == 2
        assert variance == 0

    def test_balanced_48(self):
        mean, _ = runs_null_moments(48, 48)
        assert mean == 49  # the halfway point for a 96-symbol sequence

    def test_three_three_by_enumeration(self):
        mean, variance = runs_null_moments(3, 3)
        assert mean == 4
        assert (mean, variance) == enumerate_runs_moments(3, 3)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_balanced_cases_by_enumeration(self, k):
        assert runs_null_moments(k, k) == enumerate_runs_moments(k, k)

    @pytest.mark.parametrize("a,b", [(2, 5), (1, 4), (6, 3)])
    def test_unbalanced_cases_by_enumeration(self, a, b):
        assert runs_null_moments(a, b) == enumerate_runs_moments(a, b)

    def test_rejects_zero_counts(self):
        with pytest.raises(ValueError):
            runs_null_moments(0, 3)


class TestSimulateRuns:
    def test_histogram_support(self):
        report = simulate_runs(13, SimConfig(seed=8, iterations=2000))
        assert min(report.histogram) >= 2
        assert max(report.histogram) <= 12

    def test_bit_reproducible_and_worker_independent(self):
        config = SimConfig(seed=21, iterations=600, streams=3)
        assert simulate_runs(97, config, workers=3) == simulate_runs(97, config, workers=1)

    def test_mean_near_null_for_p97(self):
        report = simulate_runs(97, SimConfig(seed=0x5EED, iterations=4000))
        mean, variance = runs_null_moments(48, 48)
        standard_error = float(variance) ** 0.5 / 4000**0.5
        assert abs(report.sample_mean - float(mean)) <= 4 * standard_error

    def test_p5_histogram_converges_to_enumeration(self):
        # 6 balanced arrangements of 2 +1s / 2 -1s: runs 2, 3, 4 equally likely
        draws = 60_000
        report = simulate_runs(5, SimConfig(seed=17, iterations=draws))
        assert set(report.histogram) == {2, 3, 4}
        sigma = (draws * (1 / 3) * (2 / 3)) ** 0.5
        for runs in (2, 3, 4):
            assert abs(report.histogram[runs] - draws / 3) <= 4 * sigma


class TestScanRuns:
    def test_first_seven(self):
        assert scan_runs(count=7) == (
            (3, 2), (5, 3), (7, 4), (11, 6), (13, 7), (17, 9), (19, 10)
        )

    def test_count_and_bound_forms_agree(self):
        assert scan_runs(count=7) == scan_runs(p_max=19)

    def test_straight_line_for_200_primes(self):
        scan = scan_runs(count=200)
        assert len(scan) == 200
        assert all(runs == (p + 1) // 2 for p, runs in scan)

    def test_smallest_case(self):
        assert scan_runs(p_max=3) == ((3, 2),)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            scan_runs()
        with pytest.raises(ValueError):
            scan_runs(count=5, p_max=100)
        with pytest.raises(ValueError):
            scan_runs(p_max=2)
