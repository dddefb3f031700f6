"""Exact modular arithmetic and the Legendre symbol.

The symbol is computed along two independent routes: Euler's criterion
(one modular exponentiation) and a quadratic-reciprocity descent that
never exponentiates.  Keeping both lets any result be cross-checked, and
the closed-form congruence rules for small arguments give a third check.

Conventions
-----------
* (a/p) = 0 when p divides a.  This extends the classical two-valued
  symbol; see :class:`Symbol`.
* All moduli must be below 2**63 so products fit a double-width integer
  in the compiled kernels.  Larger inputs are rejected, never truncated.
"""

from __future__ import annotations

import enum
import math
from functools import lru_cache

__all__ = [
    "MAX_MODULUS",
    "Symbol",
    "discrete_log",
    "first_odd_primes",
    "is_prime",
    "iter_odd_primes",
    "legendre_euler",
    "legendre_reciprocity",
    "odd_primes_below",
    "residue_rule",
    "sqrt_mod",
]

#: Exclusive upper bound on every modulus handled by this package.
MAX_MODULUS = 1 << 63

# Witnesses that make Miller-Rabin deterministic for all n < 3.3e24,
# which covers the full 64-bit range.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@lru_cache(maxsize=1 << 16)
def is_prime(n: int) -> bool:
    """Deterministic primality test, exact for all n < 2**64."""
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def iter_odd_primes(start: int = 3):
    """Yield odd primes >= start, smallest first, without bound."""
    n = max(3, start)
    if n % 2 == 0:
        n += 1
    while True:
        if is_prime(n):
            yield n
        n += 2


def first_odd_primes(count: int) -> list[int]:
    """The first `count` odd primes (3, 5, 7, ...), via a sieve.

    They end at the (count+1)-th prime p_n, and Rosser's bound
    p_n < n (ln n + ln ln n) for n >= 6 sizes the sieve; p_5 = 11.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    n = count + 1
    limit = int(n * (math.log(n) + math.log(math.log(n)))) + 1 if n >= 6 else 12
    return odd_primes_below(limit)[:count]


def odd_primes_below(limit: int) -> list[int]:
    """All odd primes p with p < limit, via a sieve."""
    if limit <= 3:
        return []
    sieve = bytearray([1]) * limit
    sieve[0] = sieve[1] = 0
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(range(i * i, limit, i)))
    return [i for i in range(3, limit, 2) if sieve[i]]


class Symbol(enum.IntEnum):
    """Value of a Legendre symbol.

    RESIDUE (+1) marks a nonzero square, NONRESIDUE (-1) a nonsquare.
    DIVISIBLE (0) is the conventional extension for arguments that are
    multiples of p; the classical definition excludes that case.
    """

    NONRESIDUE = -1
    DIVISIBLE = 0
    RESIDUE = 1


def prime_value(p: int) -> int:
    """`p` itself, once checked to be an odd prime with 3 <= p < 2**63."""
    if not isinstance(p, int) or isinstance(p, bool):
        raise ValueError(f"p must be an integer, got {p!r}")
    if p < 3 or p % 2 == 0:
        raise ValueError(f"p must be an odd integer >= 3, got {p}")
    if p >= MAX_MODULUS:
        raise ValueError(f"p must be below 2**63, got {p}")
    if not is_prime(p):
        raise ValueError(f"p must be prime; {p} is composite")
    return p


def legendre_euler(a: int, p: int) -> Symbol:
    """Legendre symbol (a/p) via Euler's criterion a**((p-1)/2) mod p."""
    p = prime_value(p)
    r = a % p
    if r == 0:
        return Symbol.DIVISIBLE
    e = pow(r, (p - 1) // 2, p)
    if e == 1:
        return Symbol.RESIDUE
    if e == p - 1:
        return Symbol.NONRESIDUE
    raise RuntimeError(
        f"Euler criterion returned {e} for a={a}, p={p}; p cannot be prime"
    )


def legendre_reciprocity(a: int, p: int) -> Symbol:
    """Legendre symbol (a/p) by the quadratic-reciprocity descent.

    Works entirely with small reductions: factors of two leave via the
    (2/.) rule, the swap step applies the reciprocity sign, and the
    argument shrinks until it reaches zero.  No exponentiation at all,
    which makes it an independent check on :func:`legendre_euler`.
    Intermediate top arguments may be composite (Jacobi-style); the
    public contract still requires a prime p.
    """
    p = prime_value(p)
    n = a % p
    if n == 0:
        return Symbol.DIVISIBLE
    m = p
    sign = 1
    while n != 0:
        while n % 2 == 0:
            n //= 2
            if m % 8 in (3, 5):
                sign = -sign
        n, m = m, n
        if n % 4 == 3 and m % 4 == 3:
            sign = -sign
        n %= m
    if m != 1:
        # gcd(a, p) > 1 with 0 < a < p is impossible for prime p
        raise RuntimeError(f"reciprocity descent found gcd {m} for a={a}, p={p}")
    return Symbol.RESIDUE if sign == 1 else Symbol.NONRESIDUE


#: a -> (modulus, residue classes where (a/p) = +1)
_RULE_TABLE = {
    -1: (4, frozenset({1})),
    2: (8, frozenset({1, 7})),
    3: (12, frozenset({1, 11})),
    5: (5, frozenset({1, 4})),
    6: (24, frozenset({1, 5, 19, 23})),
}


def residue_rule(a: int, p: int) -> Symbol:
    """(a/p) for a in {-1, 2, 3, 5, 6}, read off the congruence class of p.

    These are the closed-form consequences of quadratic reciprocity: the
    symbol depends only on p mod 4, 8, 12, 5 or 24 respectively.
    """
    p = prime_value(p)
    if a not in _RULE_TABLE:
        raise ValueError(f"no congruence rule for a={a}; supported: -1, 2, 3, 5, 6")
    if a > 0 and a % p == 0:
        raise ValueError(f"p={p} divides a={a}; the rule table needs p coprime to a")
    modulus, ones = _RULE_TABLE[a]
    return Symbol.RESIDUE if p % modulus in ones else Symbol.NONRESIDUE


#: Most baby steps stored by `discrete_log`; more giant steps replace the
#: rest, so memory stays bounded at any p.
_BSGS_TABLE_MAX = 1 << 16


def _prime_order_log(gamma: int, q: int, p: int):
    """h -> d in [0, q) with gamma**d = h mod p, where gamma has prime order q.

    Baby-step giant-step: the m baby steps gamma**j are stored once, then
    each lookup takes giant steps h * gamma**(-m*i) until one lands in
    the table, so d = i*m + j.
    """
    m = min(math.isqrt(q - 1) + 1, _BSGS_TABLE_MAX)
    baby = {}
    x = 1
    for j in range(m):
        baby[x] = j
        x = x * gamma % p
    giant = pow(gamma, -m, p)

    def log(h: int) -> int:
        y = h
        for i in range(-(-q // m)):
            j = baby.get(y)
            if j is not None:
                return i * m + j
            y = y * giant % p
        raise RuntimeError(f"{h} is not a power of {gamma} mod {p} of order {q}")

    return log


def discrete_log(g: int, a: int, p: int) -> int:
    """The least exponent l >= 0 with g**l = a (mod p), by Pohlig-Hellman.

    l lies in [0, ord(g)), so it is the position of a in the orbit
    1, g, g**2, ... of g.  ord(g) comes from stripping the primes of
    p - 1; each prime power q**e dividing it contributes e base-q digits
    of l, each found by baby-step giant-step among the q powers of
    g**(ord/q), and the Chinese remainder theorem joins them.  Cost is
    O(sum of e * sqrt(q)) multiplications after trial division of p - 1
    (a q above 2**32 takes q / 2**16 giant steps instead, as the table is
    capped).  Raises if a is not in the orbit, which happens only when g
    is not a primitive root.
    """
    from .primroots import factorize  # primroots imports this module

    p = prime_value(p)
    if not 1 <= g < p:
        raise ValueError(f"g must lie in [1, {p - 1}], got {g}")
    if not 1 <= a < p:
        raise ValueError(f"a must lie in [1, {p - 1}], got {a}")
    n = p - 1
    pairs = factorize(n)
    for q, _ in pairs:
        while n % q == 0 and pow(g, n // q, p) == 1:
            n //= q
    if pow(a, n, p) != 1:
        raise ValueError(
            f"{a} is not a power of {g} mod {p}: the orbit of {g} closed early, "
            "so g is not a primitive root"
        )
    l, modulus = 0, 1
    for q, _ in pairs:
        if n % q:
            continue
        qe = q
        while n % (qe * q) == 0:
            qe *= q
        digit = _prime_order_log(pow(g, n // q, p), q, p)
        x, qk = 0, 1
        while qk < qe:
            x += digit(pow(a * pow(g, -x, p) % p, n // (qk * q), p)) * qk
            qk *= q
        l += modulus * ((x - l) * pow(modulus, -1, qe) % qe)
        modulus *= qe
    return l


def sqrt_mod(a: int, p: int, g: int) -> int | None:
    """The smaller square root of a mod p, or None when a is a nonsquare.

    Solves g**l = a by discrete logarithm, then halves the exponent: for
    a primitive root g, a is a square exactly when l is even.  Returns
    min(r, p - r) of the two roots r and p - r.  Any other g is refused:
    its odd exponents can still reach squares.
    """
    from .primroots import is_primitive_root  # primroots imports this module

    p = prime_value(p)
    if a % p == 0:
        raise ValueError(f"a must not be divisible by p, got a={a}, p={p}")
    if not is_primitive_root(g, p):
        raise ValueError(f"{g} is not a primitive root of {p}")
    l = discrete_log(g, a % p, p)
    if l % 2 == 1:
        return None
    r = pow(g, l // 2, p)
    return min(r, p - r)
