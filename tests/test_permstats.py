"""Inversion counting, exact null moments, and the Monte Carlo null."""

import itertools
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from modsquares import KERNEL_BACKEND, cli, permstats, primroots
from modsquares.genseq import generator_cycle
from modsquares.modarith import odd_primes_below
from modsquares.permstats import (
    SimConfig,
    SimReport,
    count_inversions,
    inversion_null_moments,
    inversion_summary,
    random_fixed_cycle,
    sd_pvalue,
    simulate_inversions,
)
from modsquares.primroots import euler_phi, inverse_pairs, primitive_roots
from modsquares.rng import SplitMix64, stream_seeds

P29_COUNTS = [129, 159, 168, 192, 183, 171, 222, 194, 205, 157, 146, 180]


def brute_inversions(seq):
    """O(n^2) pairwise-comparison oracle."""
    seq = list(seq)
    return sum(
        1
        for i in range(len(seq))
        for j in range(i + 1, len(seq))
        if seq[i] > seq[j]
    )


def enumerate_fixed_cycle_moments(p):
    """Exact inversion mean/variance over all (p-2)! fixed-first cycles."""
    tails = itertools.permutations(range(2, p))
    counts = [brute_inversions((1,) + tail) for tail in tails]
    n = len(counts)
    mean = Fraction(sum(counts), n)
    variance = sum((Fraction(c) - mean) ** 2 for c in counts) / n
    return mean, variance


def fraction_moments(counts):
    """Sample mean and unbiased sd, each an exact Fraction rounded once."""
    n = len(counts)
    mean = Fraction(sum(counts), n)
    if n < 2:
        return float(mean), 0.0
    variance = sum((c - mean) ** 2 for c in counts) / (n - 1)
    return float(mean), float(variance) ** 0.5


class TestCountInversions:
    def test_sorted_has_none(self):
        assert count_inversions(range(1, 20)) == 0

    def test_known_cycle_has_fifteen(self):
        assert count_inversions((1, 2, 4, 8, 5, 10, 9, 7, 3, 6)) == 15

    def test_descending_attains_the_maximum(self):
        n = 50
        assert count_inversions(range(n, 0, -1)) == n * (n - 1) // 2

    def test_root_cycle_counts_mod_29(self):
        counts = [count_inversions(generator_cycle(g, 29).states) for g in primitive_roots(29)]
        assert counts == P29_COUNTS

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            count_inversions([1, 2, 2, 3])

    def test_rejects_non_integers(self):
        with pytest.raises(TypeError):
            count_inversions([1.5, 2.5])

    def test_values_beyond_int64_are_rank_compressed(self):
        big = 1 << 70
        assert count_inversions([big, 3, -big, 7]) == brute_inversions([big, 3, -big, 7])

    def test_empty_and_singleton(self):
        assert count_inversions([]) == 0
        assert count_inversions([42]) == 0

    @given(st.lists(st.integers(-10**9, 10**9), max_size=150, unique=True))
    @settings(max_examples=200)
    def test_matches_quadratic_oracle(self, values):
        assert count_inversions(values) == brute_inversions(values)


class TestNullMoments:
    def test_p29_values(self):
        mean, variance = inversion_null_moments(29)
        assert mean == Fraction(351, 2)
        assert variance == Fraction(2301, 4)
        assert abs(float(variance) ** 0.5 - 23.98) < 0.01

    def test_p5_values(self):
        mean, variance = inversion_null_moments(5)
        assert mean == Fraction(3, 2)
        assert variance == Fraction(11, 12)

    @pytest.mark.parametrize("p", [5, 7])
    def test_matches_exhaustive_enumeration(self, p):
        assert inversion_null_moments(p) == enumerate_fixed_cycle_moments(p)

    def test_rejects_degenerate_prime(self):
        with pytest.raises(ValueError):
            inversion_null_moments(3)


class TestInversionSummary:
    def test_p29(self):
        summary = inversion_summary(29)
        assert [g for g, _ in summary.per_root] == list(primitive_roots(29))
        assert summary.counts() == P29_COUNTS
        assert summary.sample_mean == Fraction(351, 2)
        assert abs(summary.sample_sd - 26.02) < 0.01
        assert summary.theory_mean == Fraction(351, 2)

    def test_p11_mean(self):
        assert inversion_summary(11).sample_mean == Fraction(9 * 8, 4)

    def test_per_root_counts_match_the_validated_cycles(self):
        # the fused kernel against the cycle and the validated merge count,
        # over a window that covers the benchmark's primes; the pure twin
        # runs the oracle's own merge count, and there the full window
        # would take about 100 s, so it gets a shorter one
        limit = 1101 if KERNEL_BACKEND == "compiled" else 300
        for p in odd_primes_below(limit):
            if p < 5:
                continue
            expected = [(g, count_inversions(generator_cycle(g, p).states)) for g in primitive_roots(p)]
            assert list(inversion_summary(p).per_root) == expected, p

    def test_walks_one_root_of_each_inverse_pair(self):
        received, real = [], permstats._kernels.cycle_inversions

        def spy(p, roots):
            received.append(list(roots))
            return real(p, roots)

        with mock.patch.object(permstats._kernels, "cycle_inversions", spy):
            for p in odd_primes_below(200):
                if p < 5:
                    continue
                received.clear()
                inversion_summary(p)
                expected = [g for g in primitive_roots(p) if g <= pow(g, -1, p)]
                assert received == [expected], p
                assert len(expected) == euler_phi(p - 1) // 2, p

    def test_a_root_missing_from_the_table_is_an_internal_error(self, monkeypatch, capsys):
        def drop_last(p):
            return primitive_roots(p)[:-1]

        monkeypatch.setattr(permstats, "primitive_roots", drop_last)
        monkeypatch.setattr(primroots, "primitive_roots", drop_last)
        with pytest.raises(RuntimeError, match="inverse 27 of primitive root 14 mod 29 is not a root"):
            inversion_summary(29)
        with pytest.raises(RuntimeError, match="mod 29 is not a root"):
            inverse_pairs(29)
        assert cli.main(["inversions", "--p", "29"]) == cli.ExitStatus.INTERNAL
        assert "is not a root" in capsys.readouterr().err

    def test_a_walk_that_is_not_a_cycle_names_its_root(self):
        received = []

        def fail_third(p, roots):
            received.extend(roots)
            return [-1 if i == 2 else 0 for i in range(len(roots))]

        with mock.patch.object(permstats._kernels, "cycle_inversions", fail_third):
            with pytest.raises(RuntimeError) as excinfo:
                inversion_summary(29)
        assert str(excinfo.value) == f"primitive root {received[2]} mod 29 did not walk a (p-1)-cycle"

    def test_sample_mean_always_equals_theory_mean(self):
        for p in odd_primes_below(100):
            if p < 5:
                continue
            summary = inversion_summary(p)
            assert summary.sample_mean == summary.theory_mean


def test_inverse_pair_counts_sum_to_total():
    """Holds by construction: `inversion_summary` walks one root of each
    pair and fills its partner as the total minus its count.  The walked
    and the filled counts are checked against the cycles themselves by
    `test_per_root_counts_match_the_validated_cycles`."""
    for p in odd_primes_below(100):
        if p < 5:
            continue
        total = (p - 2) * (p - 3) // 2
        by_root = dict(inversion_summary(p).per_root)
        for g, g_inv in inverse_pairs(p):
            assert by_root[g] + by_root[g_inv] == total


class TestRandomFixedCycle:
    def test_shape(self):
        cycle = random_fixed_cycle(29, SplitMix64(99))
        assert len(cycle) == 28
        assert cycle[0] == 1
        assert sorted(cycle) == list(range(1, 29))

    def test_deterministic_for_a_seed(self):
        assert random_fixed_cycle(29, SplitMix64(5)) == random_fixed_cycle(29, SplitMix64(5))

    def test_rejects_tiny_prime(self):
        with pytest.raises(ValueError):
            random_fixed_cycle(3, SplitMix64(0))

    def test_tails_are_uniform_for_p5(self):
        # 6 possible tails; 3-sigma multinomial window around n/6
        draws = 100_000
        rng = SplitMix64(2024)
        freq = {}
        for _ in range(draws):
            tail = tuple(random_fixed_cycle(5, rng)[1:])
            freq[tail] = freq.get(tail, 0) + 1
        assert len(freq) == 6
        expected = draws / 6
        sigma = (draws * (1 / 6) * (5 / 6)) ** 0.5
        for count in freq.values():
            assert abs(count - expected) <= 3 * sigma


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(seed=-1, iterations=10)
        with pytest.raises(ValueError):
            SimConfig(seed=1 << 64, iterations=10)
        with pytest.raises(ValueError):
            SimConfig(seed=0, iterations=0)
        with pytest.raises(ValueError):
            SimConfig(seed=0, iterations=1, streams=0)
        with pytest.raises(ValueError):
            SimConfig(seed=0, iterations=1, rng_algorithm="mt19937")

    def test_stream_plan_partitions_iterations(self):
        config = SimConfig(seed=9, iterations=10, streams=3)
        plan = config.stream_plan()
        assert [n for _, n in plan] == [4, 3, 3]
        assert len({s for s, _ in plan}) == 3

    def test_stream_plan_derives_seeds_only_for_streams_that_draw(self):
        for streams in (50, 10**12):
            plan = SimConfig(seed=9, iterations=3, streams=streams).stream_plan()
            assert plan == [(s, 1) for s in stream_seeds(9, 3)]


class TestSimulateInversions:
    def test_histogram_sums_to_iterations(self):
        report = simulate_inversions(29, SimConfig(seed=3, iterations=500))
        assert sum(report.histogram.values()) == 500

    def test_bit_reproducible(self):
        config = SimConfig(seed=11, iterations=400, streams=2)
        assert simulate_inversions(29, config) == simulate_inversions(29, config)

    def test_worker_count_does_not_change_output(self):
        config = SimConfig(seed=12, iterations=500, streams=4)
        sequential = simulate_inversions(29, config, workers=1)
        threaded = simulate_inversions(29, config, workers=4)
        assert sequential == threaded

    def test_thread_pool_is_capped_by_the_cpu_count(self, monkeypatch):
        sizes = []

        class RecordingPool(permstats.ThreadPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(permstats, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(permstats.os, "cpu_count", lambda: 3)
        config = SimConfig(seed=13, iterations=640, streams=64)
        threaded = simulate_inversions(29, config, workers=64)
        assert sizes == [3]
        assert threaded == simulate_inversions(29, config, workers=1)
        assert sizes == [3]  # one worker runs without a pool

    def test_partition_plan_is_part_of_the_config(self):
        one = simulate_inversions(29, SimConfig(seed=12, iterations=500, streams=1))
        four = simulate_inversions(29, SimConfig(seed=12, iterations=500, streams=4))
        # different plan, different draws; each still reproducible on its own
        assert one.histogram != four.histogram

    def test_matches_manual_cycle_draws(self):
        # the kernel must consume the stream exactly like random_fixed_cycle
        config = SimConfig(seed=77, iterations=50)
        report = simulate_inversions(13, config)
        (stream_seed, n), = config.stream_plan()
        rng = SplitMix64(stream_seed)
        manual = [count_inversions(random_fixed_cycle(13, rng)) for _ in range(n)]
        assert report == SimReport.from_counts(manual, config)

    def test_p5_histogram_converges_to_enumeration(self):
        # exact tail distribution: inversions 0..3 with probabilities 1,2,2,1 / 6
        draws = 60_000
        report = simulate_inversions(5, SimConfig(seed=31, iterations=draws))
        probs = {0: 1 / 6, 1: 2 / 6, 2: 2 / 6, 3: 1 / 6}
        assert set(report.histogram) == set(probs)
        for value, prob in probs.items():
            sigma = (draws * prob * (1 - prob)) ** 0.5
            assert abs(report.histogram[value] - draws * prob) <= 4 * sigma

    def test_mean_near_theory_for_p29(self):
        report = simulate_inversions(29, SimConfig(seed=0x5EED, iterations=10_000))
        _, variance = inversion_null_moments(29)
        standard_error = float(variance) ** 0.5 / 100
        assert abs(report.sample_mean - 175.5) <= 4 * standard_error


class TestSdPvalue:
    def test_p29_is_interior(self):
        pvalue = sd_pvalue(29, SimConfig(seed=7, iterations=400))
        assert 0 < pvalue < 1

    def test_bounds_and_determinism(self):
        config = SimConfig(seed=5, iterations=200)
        first = sd_pvalue(29, config)
        assert 0 <= first <= 1
        assert first == sd_pvalue(29, config)

    def test_values_are_pinned(self):
        # recorded with exact Fraction variances; p = 13 has many tied spreads
        assert sd_pvalue(29, SimConfig(seed=5, iterations=200)) == 0.305
        assert sd_pvalue(29, SimConfig(seed=7, iterations=400, streams=3), workers=2) == 0.34
        assert sd_pvalue(13, SimConfig(seed=40, iterations=300)) == 0.19

    def test_estimates_stabilize_with_more_iterations(self):
        small = sd_pvalue(29, SimConfig(seed=40, iterations=400))
        large = sd_pvalue(29, SimConfig(seed=41, iterations=1600))
        # crude Monte Carlo convergence check: both sit in the same region
        assert abs(small - large) < 0.15


COUNTS = st.lists(st.integers(-(2**63), 2**63), min_size=1, max_size=40)


class TestMomentsFromIntegerSums:
    """The integer-sum statistics equal the Fraction formulas exactly."""

    @given(COUNTS, st.lists(st.integers(0, 40), max_size=4))
    def test_sim_report_from_a_list_or_a_chain_of_lists(self, counts, cuts):
        bounds = [0, *sorted(min(c, len(counts)) for c in cuts), len(counts)]
        pieces = [counts[a:b] for a, b in zip(bounds, bounds[1:])]
        config = SimConfig(seed=1, iterations=len(counts))
        for drawn in (counts, itertools.chain.from_iterable(pieces)):
            report = SimReport.from_counts(drawn, config)
            assert (report.sample_mean, report.sample_sd) == fraction_moments(counts)
            assert report.histogram == dict(sorted(Counter(counts).items()))

    def test_sim_report_checks_the_draw_count(self):
        with pytest.raises(RuntimeError, match="drew 2 values for 3 iterations"):
            SimReport.from_counts(iter([4, 5]), SimConfig(seed=1, iterations=3))

    @given(st.sampled_from([5, 11, 29, 61]).flatmap(
        lambda p: st.tuples(st.just(p), st.lists(st.integers(0, 2**62), min_size=euler_phi(p - 1) // 2,
                                                 max_size=euler_phi(p - 1) // 2))))
    def test_inversion_summary_sd(self, case):
        # the kernel gets one root of each inverse pair; each partner's count
        # is the total minus the walked one, so the counts span about +-2**62
        p, walked = case
        received = []

        def kernel(p, roots):
            received.extend(roots)
            return walked

        with mock.patch.object(permstats._kernels, "cycle_inversions", kernel):
            summary = inversion_summary(p)
        total = (p - 2) * (p - 3) // 2
        expected = {g: c for g, c in zip(received, walked)}
        expected.update({pow(g, -1, p): total - c for g, c in zip(received, walked)})
        assert dict(summary.per_root) == expected
        counts = summary.counts()
        assert summary.sample_mean == Fraction(sum(counts), len(counts)) == summary.theory_mean
        assert summary.sample_sd == fraction_moments(counts)[1]
