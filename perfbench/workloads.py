"""The benchmark's workloads: seeded, endless streams of command passes.

A pass is one workload's command list; `wall_s` is the time of one pass.
A run measures a fixed number of passes, --seconds / REFERENCE_PASS_S,
so every commit runs the same commands on a seed and order statistics
such as the tail latency compare like with like.

Each kind of command draws its primes from a band of the workload's
window chosen so that the command costs about the same on every seed,
while the seed still picks the primes.  Within a band, primes are drawn
without replacement, so no two commands of a run share an input until
the band is used up.  The client also clears every package cache before
each command.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass

from arith import (
    prime_factors,
    primes_between,
    smallest_primitive_root,
    totient,
)


@dataclass(frozen=True)
class Op:
    """One client operation: a CLI argv, or the library call `sd_pvalue`."""

    argv: tuple[str, ...]
    ext: str = "csv"

    @property
    def kind(self) -> str:
        return self.argv[0]

    @property
    def library(self) -> bool:
        return self.kind == "sd_pvalue"

    def int_flag(self, name: str) -> int:
        return int(self.argv[self.argv.index(name) + 1])


class Band:
    """Inputs drawn in a seeded order, without replacement until all are used."""

    def __init__(self, values, rng):
        self._values, self._rng, self._queue = list(values), rng, []

    def draw(self) -> int:
        if not self._queue:
            self._queue = self._values[:]
            self._rng.shuffle(self._queue)
        return self._queue.pop()


def _op(*args, ext="csv") -> Op:
    return Op(tuple(str(a) for a in args), ext)


def root_cycles(rng):
    # Six of the nine commands are inversions from the middle 40% of the
    # window by cost, so the median and the tail latency both fall inside
    # one cluster of similar commands.  Inversion cost grows with
    # phi(p-1) * p log p, which jumps between neighbouring primes.  The
    # root scans use safe primes q = 2r + 1, whose (q-3)/2 roots make the
    # output and the peak memory the same on every seed.
    by_cost = sorted(primes_between(400, 1100), key=lambda p: totient(p - 1) * p * math.log(p))
    inversions = Band(by_cost[int(0.3 * len(by_cost)) : int(0.7 * len(by_cost))], rng)
    halves = set(primes_between(25_000, 30_000))
    roots = Band([q for q in primes_between(50_000, 60_000) if (q - 1) // 2 in halves], rng)
    sqrt = Band(primes_between(990_000, 1_010_000), rng)
    while True:
        ops = []
        for _ in range(2):
            r = sqrt.draw()
            ops.append(_op("sqrt", "--p", r, "--a", rng.randrange(2, r)))
        ops.append(_op("primroots", "--p", roots.draw()))
        ops += [_op("inversions", "--p", inversions.draw()) for _ in range(6)]
        yield ops


def legendre_sweep(rng):
    # runs and pairs alternate over 40 equal-count bands of the window, so
    # every pass covers it evenly.  Scans are the slowest commands; a run
    # has more than ten of them, of nearly equal size and never the same
    # count twice, so the tail latency falls inside their cluster.
    primes = primes_between(10_000, 200_000)
    bands = [Band(primes[len(primes) * i // 40 : len(primes) * (i + 1) // 40], rng) for i in range(40)]
    scans = Band(range(480, 521), rng)
    while True:
        ops = [_op("pairs" if i % 2 else "runs", "--p", band.draw()) for i, band in enumerate(bands)]
        ops.append(_op("scan", "--count", scans.draw()))
        yield ops


def monte_carlo(rng):
    workers = min(2, os.cpu_count() or 1)
    while True:
        s = [rng.getrandbits(64) for _ in range(5)]
        yield [
            _op("sim-inversions", "--p", 29, "--iterations", 8000, "--seed", s[0], "--workers", 1),
            _op("sim-inversions", "--p", 29, "--iterations", 8000, "--seed", s[1], "--workers", workers),
            _op("sim-runs", "--p", 97, "--iterations", 5000, "--seed", s[2], "--workers", 1),
            _op("sim-runs", "--p", 97, "--iterations", 5000, "--seed", s[3], "--workers", workers,
                "--format", "svg", ext="svg"),
            _op("sd_pvalue", "--p", 29, "--iterations", 600, "--seed", s[4], "--workers", workers),
        ]


WORKLOADS = {
    "root-cycles": root_cycles,
    "legendre-sweep": legendre_sweep,
    "monte-carlo": monte_carlo,
}

#: Seconds one pass takes at the reference commit (pure-Python kernels,
#: 2 CPUs); a run of --seconds measures round(seconds / this) passes.
REFERENCE_PASS_S = {
    "root-cycles": 3.4,
    "legendre-sweep": 1.4,
    "monte-carlo": 3.0,
}


def passes(workload: str, seed: int):
    """The workload's passes; the same seed always yields the same argv."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))


def parity_cases(ops, python_kernels):
    """(kernel name, args) for the kernel inputs of one pass, one per kernel.

    Arguments that are themselves kernel outputs come from the pure
    backend, which is the parity oracle.
    """
    cases = {}
    for op in ops:
        if op.kind in ("inversions", "primroots") and "count_inversions" not in cases:
            p = op.int_flag("--p")
            orbit = (smallest_primitive_root(p), p, p)
            cases["primitive_root_scan"] = (p, [(p - 1) // q for q in prime_factors(p - 1)])
            cases.setdefault("multiplier_orbit", orbit)
            cases["count_inversions"] = (python_kernels.multiplier_orbit(*orbit),)
        elif op.kind in ("runs", "pairs"):
            cases.setdefault("legendre_symbols", (op.int_flag("--p"),))
        elif op.kind == "sim-inversions":
            cases.setdefault("simulate_inversion_counts",
                             (op.int_flag("--p") - 2, op.int_flag("--iterations"), op.int_flag("--seed")))
        elif op.kind == "sim-runs":
            cases.setdefault("simulate_run_counts",
                             ((op.int_flag("--p") - 1) // 2, op.int_flag("--iterations"), op.int_flag("--seed")))
    return list(cases.items())
