"""Multiplicative congruential orbits and primitive-root cycles.

The walk x -> a*x mod m from x0 = 1 either visits all of [1, m-1]
(a is a primitive root of a prime m) or closes early.  Squaring the
multiplier halves the period and walks exactly the nonzero squares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import _kernels
from .modarith import MAX_MODULUS, prime_value
from .primroots import is_primitive_root

__all__ = [
    "GeneratorCycle",
    "generator_cycle",
    "lcg_orbit",
    "square_cycle",
    "squares_set",
]


@dataclass(frozen=True)
class GeneratorCycle:
    """Orbit of 1 under x -> multiplier * x mod modulus.

    `states` lists the distinct values in visit order, starting with 1;
    the step after the last state returns to 1.  `period` is the number
    of distinct states and divides m - 1 when the modulus is prime.
    """

    modulus: int
    multiplier: int
    states: tuple[int, ...]

    def __post_init__(self):
        if not self.states or self.states[0] != 1:
            raise ValueError("orbit states must start at 1")

    @property
    def period(self) -> int:
        return len(self.states)


def lcg_orbit(a: int, m: int) -> GeneratorCycle:
    """Orbit of the multiplicative generator with multiplier a mod m.

    Requires gcd(a, m) = 1; otherwise the walk never returns to 1 and is
    rejected up front.  Iteration is capped at m steps as a safety net.
    """
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    if m >= MAX_MODULUS:
        raise ValueError(f"modulus must be below 2**63, got {m}")
    if not 1 <= a < m:
        raise ValueError(f"multiplier must lie in [1, {m - 1}], got {a}")
    if math.gcd(a, m) != 1:
        raise ValueError(
            f"gcd({a}, {m}) = {math.gcd(a, m)} != 1: the orbit never returns to 1"
        )
    states = _kernels.multiplier_orbit(a, m, m)
    return GeneratorCycle(m, a, tuple(states))


def _root_power_walk(g: int, p: int, k: int) -> GeneratorCycle:
    """The orbit of g**k mod p, for a primitive root g of the prime p.

    g**k has order (p-1)/k for k dividing p-1, so the walk needs none of
    `lcg_orbit`'s range and gcd checks.
    """
    p = prime_value(p)
    if not is_primitive_root(g, p):
        raise ValueError(f"{g} is not a primitive root of {p}")
    multiplier = pow(g, k, p)
    states = _kernels.multiplier_orbit(multiplier, p, p)
    if len(states) != (p - 1) // k:
        raise RuntimeError(f"walk of {g}**{k} mod {p} closed after {len(states)} states")
    return GeneratorCycle(p, multiplier, tuple(states))


def generator_cycle(g: int, p: int) -> GeneratorCycle:
    """The full (p-1)-cycle (1, g, g^2, ..., g^(p-2)) mod p."""
    return _root_power_walk(g, p, 1)


def square_cycle(g: int, p: int) -> GeneratorCycle:
    """The squares mod p in the order generated by x -> g**2 * x.

    Starting from 1, squaring the primitive root gives a multiplier of
    order (p-1)/2; the walk lists every quadratic residue exactly once,
    g^0, g^2, g^4, ...  The result is the orbit of that multiplier.
    """
    return _root_power_walk(g, p, 2)


def squares_set(p: int) -> set[int]:
    """{x**2 mod p : 1 <= x <= p-1}, the brute-force oracle for squares.

    Deliberately independent of the symbol and cycle machinery so it can
    serve as a cross-check on both.
    """
    p = prime_value(p)
    return {x * x % p for x in range(1, p)}
