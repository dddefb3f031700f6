"""Runs structure of Legendre-symbol sequences.

The sequence (1/p), (2/p), ..., ((p-1)/p) is balanced binary data, so
the natural randomness check is the runs test.  Its overlapping-pair
counts are pinned down exactly by Aladov's 1896 theorem, which forces
the run count to (p+1)/2 for every odd prime; the Monte Carlo null
shows how unusual that is for a random balanced sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import _kernels
from .modarith import first_odd_primes, odd_primes_below, prime_value
from .permstats import SimConfig, SimReport, _simulate

__all__ = [
    "PairCounts",
    "aladov_predicted",
    "count_runs",
    "legendre_pair_counts",
    "legendre_sequence",
    "pair_counts",
    "runs_null_moments",
    "scan_runs",
    "simulate_runs",
]


@dataclass(frozen=True)
class PairCounts:
    """Counts of overlapping consecutive pairs in a +-1 sequence."""

    npp: int
    npm: int
    nmp: int
    nmm: int

    @property
    def total(self) -> int:
        return self.npp + self.npm + self.nmp + self.nmm

    @property
    def runs(self) -> int:
        """Number of runs of the sequence: sign changes plus 1."""
        return self.npm + self.nmp + 1

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.npp, self.npm, self.nmp, self.nmm)


def legendre_sequence(p: int) -> tuple[int, ...]:
    """The symbols (a/p) = +-1 for a = 1..p-1, by marking the nonzero squares."""
    return tuple(_kernels.legendre_symbols(prime_value(p)))


def legendre_pair_counts(p: int) -> PairCounts:
    """Pair counts of the Legendre sequence of p, built without the sequence.

    Equal to `pair_counts(legendre_sequence(p))`; its `runs` equals
    `count_runs(legendre_sequence(p))`.
    """
    return PairCounts(*_kernels.legendre_pair_counts(prime_value(p)))


def count_runs(seq) -> int:
    """Number of maximal blocks of equal symbols: sign changes plus 1."""
    it = iter(seq)
    try:
        prev = next(it)
    except StopIteration:
        raise ValueError("runs are undefined for an empty sequence") from None
    if prev not in (1, -1):
        raise ValueError(f"symbols must be +1 or -1, got {prev!r}")
    runs = 1
    for v in it:
        if v != prev:
            if v not in (1, -1):
                raise ValueError(f"symbols must be +1 or -1, got {v!r}")
            runs += 1
            prev = v
    return runs


def pair_counts(seq) -> PairCounts:
    """Counts of (+,+), (+,-), (-,+), (-,-) over consecutive overlapping pairs."""
    symbols = list(seq)
    if len(symbols) < 2:
        raise ValueError("pair counts need a sequence of length >= 2")
    npp = npm = nmp = nmm = 0
    prev = symbols[0]
    if prev not in (1, -1):
        raise ValueError(f"symbols must be +1 or -1, got {prev!r}")
    for v in symbols[1:]:
        if prev == 1:
            if v == 1:
                npp += 1
            elif v == -1:
                npm += 1
            else:
                raise ValueError(f"symbols must be +1 or -1, got {v!r}")
        else:
            if v == 1:
                nmp += 1
            elif v == -1:
                nmm += 1
            else:
                raise ValueError(f"symbols must be +1 or -1, got {v!r}")
        prev = v
    return PairCounts(npp, npm, nmp, nmm)


def aladov_predicted(p: int) -> PairCounts:
    """Aladov's exact pair counts for the Legendre sequence of p.

    For p = 1 (mod 4): n+- = n-+ = n-- = (p-1)/4 and n++ = (p-5)/4.
    For p = 3 (mod 4): n++ = n-- = n-+ = (p-3)/4 and n+- = (p+1)/4.
    Both branches sum to p - 2, the number of overlapping pairs.
    """
    p = prime_value(p)
    if p % 4 == 1:
        quarter = (p - 1) // 4
        return PairCounts(npp=(p - 5) // 4, npm=quarter, nmp=quarter, nmm=quarter)
    quarter = (p - 3) // 4
    return PairCounts(npp=quarter, npm=(p + 1) // 4, nmp=quarter, nmm=quarter)


def runs_null_moments(n_plus: int, n_minus: int) -> tuple[Fraction, Fraction]:
    """Exact (mean, variance) of the run count of a random arrangement.

    Standard two-sample runs-test moments for a uniformly shuffled
    multiset of n_plus +1s and n_minus -1s:
        mean = 2ab/(a+b) + 1
        var  = 2ab(2ab - a - b) / ((a+b)^2 (a+b-1)).
    """
    a, b = n_plus, n_minus
    if a < 1 or b < 1:
        raise ValueError("both symbol counts must be >= 1")
    mean = Fraction(2 * a * b, a + b) + 1
    variance = Fraction(2 * a * b * (2 * a * b - a - b), (a + b) ** 2 * (a + b - 1))
    return mean, variance


def simulate_runs(p: int, config: SimConfig, workers: int = 1) -> SimReport:
    """Histogram of run counts over uniform shuffles of (p-1)/2 +1s and -1s."""
    p = prime_value(p)
    if p < 5:
        raise ValueError(f"p must be >= 5, got {p}")
    return _simulate(_kernels.simulate_run_counts, (p - 1) // 2, config, workers)


def scan_runs(count: int | None = None, p_max: int | None = None) -> tuple[tuple[int, int], ...]:
    """Rows (p, run count of the Legendre sequence of p), p ascending.

    Pass exactly one of `count` (the first that many odd primes) or
    `p_max` (all odd primes p <= p_max).
    """
    if (count is None) == (p_max is None):
        raise ValueError("pass exactly one of count or p_max")
    if count is not None:
        primes = first_odd_primes(count)
    else:
        primes = odd_primes_below(p_max + 1)
        if not primes:
            raise ValueError(f"no odd prime is <= {p_max}")
    # sieved primes need no primality check
    return tuple((p, PairCounts(*_kernels.legendre_pair_counts(p)).runs) for p in primes)
