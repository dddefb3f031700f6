#!/usr/bin/env python3
"""Benchmark the compiled kernels against the pure-Python fallback.

Each hot kernel runs on both backends with identical inputs; outputs are
asserted equal before timings are reported (best of `--repeats` runs).

    python benchmarks/bench_backends.py
"""

import argparse
import time

from modsquares._kernels import available_backends, backend_module
from modsquares.primroots import factorize, primitive_roots, smallest_primitive_root
from modsquares.rng import SplitMix64


def best_time(fn, repeats):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def build_cases():
    seed = 0xBEEF
    shuffled = list(range(200_000))
    SplitMix64(seed).shuffle(shuffled)

    p_scan = 9973
    exponents = [(p_scan - 1) // q for q, _ in factorize(p_scan - 1)]

    p_orbit = 99991
    g_orbit = smallest_primitive_root(p_orbit)

    p_cycles = 2003
    roots = primitive_roots(p_cycles)

    return [
        ("count_inversions(n=200000)",
         lambda k: k.count_inversions(shuffled)),
        ("legendre_symbols(p=99991)",
         lambda k: k.legendre_symbols(99991)),
        ("legendre_pair_counts(p=99991)",
         lambda k: k.legendre_pair_counts(99991)),
        (f"primitive_root_scan(p={p_scan})",
         lambda k: k.primitive_root_scan(p_scan, exponents)),
        (f"multiplier_orbit(g={g_orbit}, p={p_orbit})",
         lambda k: k.multiplier_orbit(g_orbit, p_orbit, p_orbit)),
        (f"cycle_inversions(p={p_cycles}, {len(roots)} roots)",
         lambda k: k.cycle_inversions(p_cycles, roots)),
        ("simulate_inversion_counts(tail=27, 10000 draws)",
         lambda k: k.simulate_inversion_counts(27, 10_000, seed)),
        ("simulate_run_counts(half=48, 10000 draws)",
         lambda k: k.simulate_run_counts(48, 10_000, seed)),
    ]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()

    backends = available_backends()
    print(f"available backends: {', '.join(backends)}")
    if "compiled" not in backends:
        print("compiled kernels not built; nothing to compare")
        return

    pure = backend_module("python")
    compiled = backend_module("compiled")

    name_w = 48
    print(f"{'kernel':<{name_w}} {'python':>10} {'compiled':>10} {'speedup':>8}")
    for name, call in build_cases():
        t_py, out_py = best_time(lambda: call(pure), args.repeats)
        t_c, out_c = best_time(lambda: call(compiled), args.repeats)
        assert out_py == out_c, f"backend outputs differ for {name}"
        print(f"{name:<{name_w}} {t_py:>9.4f}s {t_c:>9.4f}s {t_py / t_c:>7.1f}x")


if __name__ == "__main__":
    main()
