"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Wall-clock budgets are asserted only when the
compiled kernels are active; the pure-Python fallback runs the same
correctness checks without the timing gate.
"""

import itertools
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from modsquares import KERNEL_BACKEND
from modsquares.cli import main as cli_main
from modsquares.genseq import generator_cycle, lcg_orbit, squares_set
from modsquares.modarith import (
    legendre_euler,
    legendre_reciprocity,
    odd_primes_below,
    residue_rule,
    sqrt_mod,
)
from modsquares.permstats import (
    SimConfig,
    count_inversions,
    inversion_null_moments,
    inversion_summary,
    simulate_inversions,
)
from modsquares.primroots import euler_phi, inverse_pairs, primitive_roots
from modsquares.rng import SplitMix64
from modsquares.runstats import (
    aladov_predicted,
    count_runs,
    legendre_sequence,
    pair_counts,
    runs_null_moments,
    scan_runs,
    simulate_runs,
)

TIMING_ENFORCED = KERNEL_BACKEND == "compiled"


@contextmanager
def criterion(number, name, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:>2} {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number:>2} {name}: PASS ({elapsed:.3f}s)")
    if TIMING_ENFORCED:
        assert elapsed < budget_seconds, (
            f"criterion {number} took {elapsed:.3f}s, budget {budget_seconds}s"
        )


def test_criterion_01_orbit_reproduction(tmp_path):
    out = tmp_path / "orbit.csv"
    rc = cli_main(["period", "--m", "8191", "--a", "1904", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[1:6] == ["0,1", "1,1904", "2,4794", "3,3002", "4,6681"]
    assert lines[6] == "# period=5"
    with criterion(1, "orbit of 1904 mod 8191 has exactly 5 states", 0.001):
        orbit = lcg_orbit(1904, 8191)
        assert orbit.states == (1, 1904, 4794, 3002, 6681)
        assert orbit.period == 5


def test_criterion_02_primitive_roots():
    with criterion(2, "primitive roots: known sets and phi(p-1) counts below 10^4", 10.0):
        assert primitive_roots(11) == (2, 6, 7, 8)
        assert primitive_roots(29) == (
            2, 3, 8, 10, 11, 14, 15, 18, 19, 21, 26, 27,
        )
        for p in odd_primes_below(10_000):
            assert len(primitive_roots(p)) == euler_phi(p - 1), p


def test_criterion_03_inversion_table_p29():
    with criterion(3, "p=29 cycle inversions, exact mean, sample sd", 0.01):
        summary = inversion_summary(29)
        assert summary.counts() == [
            129, 159, 168, 192, 183, 171, 222, 194, 205, 157, 146, 180,
        ]
        assert summary.sample_mean == Fraction(351, 2)
        assert abs(summary.sample_sd - 26.02) <= 0.01


def test_criterion_04_moment_formulas():
    with criterion(4, "null moment formulas vs exhaustive enumeration", 1.0):
        mean, variance = inversion_null_moments(29)
        assert (mean, variance) == (Fraction(351, 2), Fraction(2301, 4))
        assert abs(float(variance) ** 0.5 - 23.98) <= 0.01
        for p in (5, 7):
            counts = [
                count_inversions((1,) + tail)
                for tail in itertools.permutations(range(2, p))
            ]
            n = len(counts)
            exhaustive_mean = Fraction(sum(counts), n)
            exhaustive_var = sum((Fraction(c) - exhaustive_mean) ** 2 for c in counts) / n
            assert inversion_null_moments(p) == (exhaustive_mean, exhaustive_var)


def test_criterion_05_pairing_identity():
    with criterion(5, "inverse-pair inversion sums for all p in [5, 500]", 30.0):
        for p in odd_primes_below(501):
            if p < 5:
                continue
            total = (p - 2) * (p - 3) // 2
            by_root = {
                g: count_inversions(generator_cycle(g, p).states)
                for g in primitive_roots(p)
            }
            for g, g_inv in inverse_pairs(p):
                assert by_root[g] + by_root[g_inv] == total, (p, g)


def test_criterion_06_monte_carlo_inversions():
    with criterion(6, "p=29 Monte Carlo mean/sd near null values", 5.0):
        _, variance = inversion_null_moments(29)
        theory_sd = float(variance) ** 0.5
        report = simulate_inversions(29, SimConfig(seed=0x5EED, iterations=10_000))
        mean_tolerance = 4 * theory_sd / 10_000**0.5
        assert abs(report.sample_mean - 175.5) <= mean_tolerance
        sd_standard_error = theory_sd / (2 * (10_000 - 1)) ** 0.5
        assert abs(report.sample_sd - theory_sd) <= 4 * sd_standard_error


def test_criterion_07_legendre_rows():
    table = {
        3: ([1, -1], 2),
        5: ([1, -1, -1, 1], 3),
        7: ([1, 1, -1, 1, -1, -1], 4),
        11: ([1, -1, 1, 1, 1, -1, -1, -1, 1, -1], 6),
        13: ([1, -1, 1, 1, -1, -1, -1, -1, 1, 1, -1, 1], 7),
        17: ([1, 1, -1, 1, -1, -1, -1, 1, 1, -1, -1, -1, 1, -1, 1, 1], 9),
        19: ([1, -1, -1, 1, 1, 1, 1, -1, 1, -1, 1, -1, -1, -1, -1, 1, 1, -1], 10),
    }
    with criterion(7, "symbol rows and run counts for the seven smallest odd primes", 0.001):
        for p, (symbols, runs) in table.items():
            seq = legendre_sequence(p)
            assert list(seq) == symbols, p
            assert count_runs(seq) == runs, p


def test_criterion_08_aladov_and_corollary():
    with criterion(8, "pair counts and runs have their exact values below 10^4", 30.0):
        for p in odd_primes_below(10_000):
            seq = legendre_sequence(p)
            assert pair_counts(seq) == aladov_predicted(p), p
            assert count_runs(seq) == (p + 1) // 2, p
        scan = scan_runs(count=200)
        assert len(scan) == 200
        assert all(runs == (p + 1) // 2 for p, runs in scan)


def test_criterion_09_monte_carlo_runs():
    with criterion(9, "p=97 Monte Carlo run-count mean near 49", 5.0):
        mean, variance = runs_null_moments(48, 48)
        assert mean == 49
        report = simulate_runs(97, SimConfig(seed=0x5EED, iterations=10_000))
        standard_error = float(variance) ** 0.5 / 10_000**0.5
        assert abs(report.sample_mean - 49) <= 4 * standard_error


def test_criterion_10_symbol_engine_equivalence():
    with criterion(10, "euler = reciprocity = squaring; multiplicativity; rules", 60.0):
        for p in odd_primes_below(1000):
            squares = squares_set(p)
            seq = legendre_sequence(p)
            for a in range(1, p):
                expected = 1 if a in squares else -1
                assert seq[a - 1] == expected
                assert legendre_euler(a, p) == expected
                assert legendre_reciprocity(a, p) == expected
        for p in odd_primes_below(500):
            row = np.array(legendre_sequence(p), dtype=np.int64)
            table = np.concatenate(([0], row))  # symbol indexed by residue
            values = np.arange(1, p, dtype=np.int64)
            products = np.outer(values, values) % p
            assert np.array_equal(table[products], np.outer(row, row))
        for p in odd_primes_below(10_000):
            for a in (-1, 2, 3, 5, 6):
                if a > 0 and a % p == 0:
                    continue
                assert residue_rule(a, p) == legendre_euler(a, p), (a, p)


def test_criterion_11_square_root_of_two():
    with criterion(11, "sqrt of 2 mod 8191 is 128 for any primitive root", 1.0):
        roots = primitive_roots(8191)
        sample = roots[:3] + roots[-2:] + (roots[len(roots) // 2],)
        for g in sample:
            assert sqrt_mod(2, 8191, g) == 128, g


def test_criterion_12_inversion_counter_oracle():
    with criterion(12, "merge counter matches the quadratic oracle on 1000 inputs", 5.0):
        rng = SplitMix64(0xACCE97)
        for _ in range(1000):
            length = 1 + rng.randbelow(200)
            values = [rng.randbelow(1 << 40) - (1 << 39) for _ in range(length)]
            if len(set(values)) != length:
                continue  # vanishing-probability collision; oracle needs distinct
            arr = np.array(values, dtype=np.int64)
            oracle = int(np.triu(arr[:, None] > arr[None, :], k=1).sum())
            assert count_inversions(values) == oracle


def test_criterion_13_cli_determinism(tmp_path):
    with criterion(13, "byte-identical CLI output, including --workers 3", 60.0):
        for name, argv in {
            "inv": ["sim-inversions", "--p", "29", "--iterations", "2000",
                    "--seed", "77", "--workers", "3"],
            "runs": ["sim-runs", "--p", "97", "--iterations", "2000",
                     "--seed", "77", "--workers", "3"],
            "scan": ["scan", "--count", "50"],
        }.items():
            first = tmp_path / f"{name}_a.out"
            second = tmp_path / f"{name}_b.out"
            assert cli_main(argv + ["--out", str(first)]) == 0
            assert cli_main(argv + ["--out", str(second)]) == 0
            assert first.read_bytes() == second.read_bytes(), name
