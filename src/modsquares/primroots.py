"""Primitive roots of an odd prime, backed by factoring p - 1.

A multiplicative generator mod p has full period p - 1 exactly when its
multiplier is a primitive root, and the order test behind that fact
needs the distinct primes dividing p - 1.  Trial division is plenty at
desk scale.  Roots come in inverse pairs (g, g^-1), the fact behind the
exact-mean identity for cycle inversions.
"""

from __future__ import annotations

from functools import lru_cache

from . import _kernels
from .modarith import MAX_MODULUS, prime_value

__all__ = [
    "euler_phi",
    "factorize",
    "inverse_pairs",
    "is_primitive_root",
    "primitive_roots",
    "smallest_primitive_root",
]


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization n = prod(q**e) by trial division, O(sqrt n).

    Returns the (q, e) pairs, primes ascending.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if n >= MAX_MODULUS:
        raise ValueError(f"n must be below 2**63, got {n}")
    pairs = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            pairs.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        pairs.append((n, 1))
    return tuple(pairs)


def euler_phi(n: int) -> int:
    """Euler's totient via the factorization product formula."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n == 1:
        return 1
    phi = 1
    for q, e in factorize(n):
        phi *= q ** (e - 1) * (q - 1)
    return phi


@lru_cache(maxsize=4096)
def _cofactor_exponents(p: int) -> tuple[int, ...]:
    """(p-1)/q for each distinct prime q dividing p - 1."""
    return tuple((p - 1) // q for q, _ in factorize(p - 1))


def _passes_order_test(g: int, p: int) -> bool:
    """No g**((p-1)/q) equals 1 mod p; p must already be a checked prime."""
    return all(pow(g, e, p) != 1 for e in _cofactor_exponents(p))


def is_primitive_root(g: int, p: int) -> bool:
    """Order test: g generates [1, p-1] iff no g**((p-1)/q) equals 1."""
    p = prime_value(p)
    if not 1 <= g < p:
        raise ValueError(f"g must lie in [1, {p - 1}], got {g}")
    return _passes_order_test(g, p)


def primitive_roots(p: int) -> tuple[int, ...]:
    """All primitive roots of p, ascending: there are phi(p-1) of them.

    Every residue in [2, p-1] is put to the order test.  The scan is
    deliberate: it keeps the phi(p-1) cardinality invariant an empirical
    fact rather than a construction artifact.  For q = 2 the compiled
    kernel answers the test by Euler's criterion, g**((p-1)/2) = 1 iff g
    is a nonzero square, from the marked squares instead of a power;
    that needs p to be an odd prime, which `prime_value` checks.
    """
    p = prime_value(p)
    return tuple(_kernels.primitive_root_scan(p, list(_cofactor_exponents(p))))


def smallest_primitive_root(p: int) -> int:
    """The least primitive root of p (candidates from 2 upward)."""
    p = prime_value(p)
    for g in range(2, p):
        if _passes_order_test(g, p):
            return g
    raise RuntimeError(f"no primitive root found for prime {p}")


def _inverse_indices(p: int, roots: tuple[int, ...]) -> list[int]:
    """For each root g in `roots`, the index in `roots` of g^-1 mod p.

    `roots` are the primitive roots of p; the inverse of a primitive root
    is one, so a missing inverse means the roots table is wrong and
    raises RuntimeError.
    """
    index = {g: i for i, g in enumerate(roots)}
    partners = []
    for g in roots:
        g_inv = pow(g, -1, p)
        if g_inv not in index:
            raise RuntimeError(
                f"inverse {g_inv} of primitive root {g} mod {p} is not a root"
            )
        partners.append(index[g_inv])
    return partners


def inverse_pairs(p: int) -> list[tuple[int, int]]:
    """The primitive roots of p grouped into {g, g^-1} pairs.

    Each pair is reported (smaller, larger), ordered by the smaller.  A
    root can only be its own inverse when g**2 = 1, i.e. g = p - 1, which
    is a primitive root just for p = 3; that singleton is reported as
    (2, 2).
    """
    p = prime_value(p)
    roots = primitive_roots(p)
    return [(g, roots[j]) for g, j in zip(roots, _inverse_indices(p, roots)) if g <= roots[j]]
