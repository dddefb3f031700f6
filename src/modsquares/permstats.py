"""Inversion statistics of primitive-root cycles, with a null-model Monte Carlo.

A cycle is always written with 1 first, so its randomness is judged
against uniform permutations of the remaining p - 2 entries.  Under
that null the inversion count has mean (p-2)(p-3)/4 and variance
(p-2)(p-3)(2p+1)/72, and the observed mean over all primitive roots
hits the theoretical mean exactly because inverse roots generate
mutually reversed cycles.  That reflection also halves the exact work:
only one root of each inverse pair is walked, and its partner's count
is the fixed total (p-2)(p-3)/2 minus its own.
"""

from __future__ import annotations

import operator
import os
from concurrent.futures import ThreadPoolExecutor
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from . import _kernels
from .modarith import prime_value
from .primroots import _inverse_indices, primitive_roots
from .rng import RNG_ALGORITHM, SplitMix64, stream_seeds

__all__ = [
    "InversionSummary",
    "SimConfig",
    "SimReport",
    "count_inversions",
    "inversion_null_moments",
    "inversion_summary",
    "random_fixed_cycle",
    "sd_pvalue",
    "simulate_inversions",
]

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1
#: Exclusive bound on p for root-cycle inversions: the kernel's Fenwick
#: tree holds uint32 counters.
_CYCLE_LIMIT = 1 << 32


def count_inversions(seq) -> int:
    """Number of pairs (i, j) with i < j but seq[i] > seq[j].

    O(n log n) via merge counting in the active kernel backend.
    Elements must be distinct integers; values outside the int64 range
    are rank-compressed first (order, hence count, is unchanged).
    """
    values = [operator.index(v) for v in seq]
    ordered = sorted(values)
    for x, y in zip(ordered, ordered[1:]):
        if x == y:
            raise ValueError(
                f"duplicate element {x}: inversion counting needs distinct entries"
            )
    if ordered and (ordered[0] < _INT64_MIN or ordered[-1] > _INT64_MAX):
        rank = {v: i for i, v in enumerate(ordered)}
        values = [rank[v] for v in values]
    return _kernels.count_inversions(values)


def inversion_null_moments(p: int) -> tuple[Fraction, Fraction]:
    """Exact (mean, variance) of inversions of a random fixed cycle.

    Fixing 1 in front leaves a uniform permutation of p - 2 entries;
    the classical inversion moments of S_n with n = p - 2 give
    mean (p-2)(p-3)/4 and variance (p-2)(p-3)(2p+1)/72.
    """
    p = prime_value(p)
    if p < 5:
        raise ValueError("p must be >= 5: a 2-element universe has a single cycle")
    mean = Fraction((p - 2) * (p - 3), 4)
    variance = Fraction((p - 2) * (p - 3) * (2 * p + 1), 72)
    return mean, variance


@dataclass(frozen=True)
class InversionSummary:
    """Observed inversion counts over every primitive-root cycle of p."""

    per_root: tuple[tuple[int, int], ...]
    sample_mean: Fraction
    sample_sd: float
    theory_mean: Fraction
    theory_sd: float

    def counts(self) -> list[int]:
        return [c for _, c in self.per_root]


def _spread(values: list[int]) -> int:
    """n*sum(x^2) - sum(x)^2: exactly n(n-1) times the unbiased sample variance."""
    return len(values) * sum(map(operator.mul, values, values)) - sum(values) ** 2


def _sample_sd(spread: int, n: int) -> float:
    """Unbiased (n-1 denominator) sample sd from a `_spread` of n values.

    int / int rounds once, as float(Fraction) does, so this is the square
    root of the exact variance rounded to a double.
    """
    return (spread / (n * (n - 1))) ** 0.5


def inversion_summary(p: int) -> InversionSummary:
    """Inversion counts of every primitive-root cycle, with both moments.

    Sample statistics use the n-1 denominator.  The cycle of g^-1 is 1
    followed by the tail of g's cycle reversed, so the two counts sum to
    the fixed total (p-2)(p-3)/2: only the root g <= g^-1 of each pair
    is walked, and its partner's count is the total minus its own.  The
    sample mean therefore lands exactly on the theoretical mean.

    The kernel counts each cycle while walking it, so no cycle is
    stored, and reports -1 for a walk that is not a (p-1)-cycle.  p must
    be below 2**32; a larger one would need phi(p-1)/2 walks of more
    than 4e9 states each.
    """
    p = prime_value(p)
    if p >= _CYCLE_LIMIT:
        raise ValueError(f"p must be below 2**32 for root-cycle inversions, got {p}")
    theory_mean, theory_var = inversion_null_moments(p)
    roots = primitive_roots(p)
    partners = _inverse_indices(p, roots)
    walked = [i for i, j in enumerate(partners) if i <= j]
    walked_counts = _kernels.cycle_inversions(p, [roots[i] for i in walked])
    if -1 in walked_counts:
        g = roots[walked[walked_counts.index(-1)]]
        raise RuntimeError(f"primitive root {g} mod {p} did not walk a (p-1)-cycle")
    total = (p - 2) * (p - 3) // 2
    counts = [0] * len(roots)
    for i, c in zip(walked, walked_counts):
        counts[i], counts[partners[i]] = c, total - c
    return InversionSummary(
        per_root=tuple(zip(roots, counts)),
        sample_mean=Fraction(sum(counts), len(counts)),
        sample_sd=_sample_sd(_spread(counts), len(counts)),
        theory_mean=theory_mean,
        theory_sd=float(theory_var) ** 0.5,
    )


@dataclass(frozen=True)
class SimConfig:
    """Fully determines a simulation: same config, same output, always.

    `streams` is the partition plan: iterations are split into that many
    contiguous chunks, each driven by a seed derived from (seed, index).
    Workers only schedule the chunks, so output is independent of how
    many actually run in parallel.
    """

    seed: int
    iterations: int
    streams: int = 1
    rng_algorithm: str = RNG_ALGORITHM

    def __post_init__(self):
        if not 0 <= self.seed < (1 << 64):
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if self.streams < 1:
            raise ValueError(f"streams must be >= 1, got {self.streams}")
        if self.rng_algorithm != RNG_ALGORITHM:
            raise ValueError(
                f"unsupported rng_algorithm {self.rng_algorithm!r}; "
                f"only {RNG_ALGORITHM!r} is implemented"
            )

    def stream_plan(self) -> list[tuple[int, int]]:
        """(stream_seed, iteration_count) per stream that draws; counts sum
        to iterations.  Streams beyond the first `iterations` draw nothing
        and are left out, so the plan never outgrows the draws."""
        seeds = stream_seeds(self.seed, min(self.streams, self.iterations))
        base, extra = divmod(self.iterations, self.streams)
        return [(s, base + (1 if i < extra else 0)) for i, s in enumerate(seeds)]


@dataclass(frozen=True)
class SimReport:
    """Monte Carlo output: exact-value histogram plus sample moments."""

    histogram: dict[int, int]
    sample_mean: float
    sample_sd: float

    @classmethod
    def from_counts(cls, counts: Iterable[int], config: SimConfig) -> "SimReport":
        """Histogram the draws, then take the moments from its bins."""
        histogram = dict(sorted(Counter(counts).items()))
        n = sum(histogram.values())
        if n != config.iterations:
            raise RuntimeError(f"drew {n} values for {config.iterations} iterations")
        s1 = sum(map(operator.mul, histogram, histogram.values()))
        s2 = sum(v * v * c for v, c in histogram.items())
        return cls(
            histogram=histogram,
            sample_mean=s1 / n,
            sample_sd=_sample_sd(n * s2 - s1 * s1, n) if n > 1 else 0.0,
        )


def _run_partitioned(draw, plan, workers: int) -> list[list[int]]:
    """Run one kernel call per stream; returns each stream's list, in order.

    At most one thread per CPU runs, however many workers are asked for;
    the plan alone fixes the output.
    """
    threads = min(workers, len(plan), os.cpu_count() or 1)
    if threads <= 1:
        return [draw(seed, n) for seed, n in plan]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(lambda sn: draw(*sn), plan))


def _simulate(kernel, size: int, config: SimConfig, workers: int) -> SimReport:
    """Report on `kernel(size, n, seed)` drawn for each stream of the plan."""
    chunks = _run_partitioned(lambda seed, n: kernel(size, n, seed), config.stream_plan(), workers)
    return SimReport.from_counts(chain.from_iterable(chunks), config)


def random_fixed_cycle(p: int, rng: SplitMix64) -> list[int]:
    """1 followed by a uniform permutation of [2, p-1] (Fisher-Yates)."""
    p = prime_value(p)
    if p < 5:
        raise ValueError(f"p must be >= 5, got {p}")
    tail = list(range(2, p))
    rng.shuffle(tail)
    return [1] + tail


def simulate_inversions(p: int, config: SimConfig, workers: int = 1) -> SimReport:
    """Histogram of inversion counts over random fixed cycles from S_{p-1}."""
    p = prime_value(p)
    if p < 5:
        raise ValueError(f"p must be >= 5, got {p}")
    return _simulate(_kernels.simulate_inversion_counts, p - 2, config, workers)


def sd_pvalue(p: int, config: SimConfig, workers: int = 1) -> float:
    """Monte Carlo p-value for the observed root-cycle standard deviation.

    Each of config.iterations batches draws phi(p-1) random fixed cycles
    (the size of the primitive-root sample) and scores whether the batch
    sample sd reaches the observed one.  Every batch has as many counts as
    the observed sample, so comparing the exact integer `_spread`s compares
    the variances, and ties are counted deterministically.
    """
    p = prime_value(p)
    counts = inversion_summary(p).counts()
    observed, batch = _spread(counts), len(counts)
    streams = _run_partitioned(
        lambda seed, n: _kernels.simulate_inversion_counts(p - 2, n * batch, seed),
        config.stream_plan(),
        workers,
    )
    hits = 0
    for drawn in streams:  # a stream of n iterations drew n whole batches
        for start in range(0, len(drawn), batch):
            hits += _spread(drawn[start : start + batch]) >= observed
    return hits / config.iterations
