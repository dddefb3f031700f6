"""Number theory the benchmark needs for inputs and oracles.

Written independently of the package under test, so that an oracle
never agrees with the program merely because both share a bug.
"""

from __future__ import annotations


def primes_between(lo: int, hi: int) -> list[int]:
    """All odd primes p with lo <= p <= hi (sieve of Eratosthenes)."""
    sieve = bytearray([1]) * (hi + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, int(hi**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, hi + 1, i)))
    return [p for p in range(max(lo, 3), hi + 1) if sieve[p] and p % 2]


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n, ascending, by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def totient(n: int) -> int:
    phi = n
    for q in prime_factors(n):
        phi -= phi // q
    return phi


def is_generator(g: int, p: int, factors: list[int]) -> bool:
    """Order test: g is a primitive root of p iff no g**((p-1)/q) == 1."""
    return all(pow(g, (p - 1) // q, p) != 1 for q in factors)


def smallest_primitive_root(p: int) -> int:
    factors = prime_factors(p - 1)
    return next(g for g in range(2, p) if is_generator(g, p, factors))


def count_inversions(seq: list[int]) -> int:
    """Pairs i < j with seq[i] > seq[j], counted while merge sorting."""

    def sort_count(xs):
        if len(xs) < 2:
            return xs, 0
        mid = len(xs) // 2
        (left, a), (right, b) = sort_count(xs[:mid]), sort_count(xs[mid:])
        merged, count, i = [], a + b, 0
        for x in right:  # x is inverted with every left value above it
            while i < len(left) and left[i] <= x:
                merged.append(left[i])
                i += 1
            count += len(left) - i
            merged.append(x)
        return merged + left[i:], count

    return sort_count(list(seq))[1]
