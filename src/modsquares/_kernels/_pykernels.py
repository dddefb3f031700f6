"""Pure-Python kernels: the fallback backend.

Same function-by-function contract as the compiled module `_ckernels`;
the test suite asserts output equality between the two.  These are the
hot loops of the package, so the code favours plain local-variable
arithmetic over abstraction.
"""

from __future__ import annotations

from ..rng import SplitMix64


def count_inversions(values: list) -> int:
    """Exact inversion count by bottom-up merge counting, O(n log n).

    No validation here: callers guarantee distinct, comparable values.
    """
    a = list(values)
    n = len(a)
    if n < 2:
        return 0
    tmp = a[:]
    inv = 0
    width = 1
    while width < n:
        lo = 0
        while lo + width < n:
            mid = lo + width
            hi = lo + 2 * width
            if hi > n:
                hi = n
            i, j, k = lo, mid, lo
            while i < mid and j < hi:
                if a[i] <= a[j]:
                    tmp[k] = a[i]
                    i += 1
                else:
                    tmp[k] = a[j]
                    j += 1
                    inv += mid - i
                k += 1
            while i < mid:
                tmp[k] = a[i]
                i += 1
                k += 1
            while j < hi:
                tmp[k] = a[j]
                j += 1
                k += 1
            a[lo:hi] = tmp[lo:hi]
            lo += 2 * width
        width *= 2
    return inv


def _square_marks(p: int) -> bytearray:
    """is_square[r] = 1 for each square r = x*x mod p.

    x only needs to run to (p-1)/2 because x and p-x square to the same
    residue.
    """
    is_square = bytearray(p)
    for x in range(1, (p - 1) // 2 + 1):
        is_square[x * x % p] = 1
    return is_square


def legendre_symbols(p: int) -> list:
    """Symbols (a/p) for a = 1..p-1 as a list of +-1 ints."""
    is_square = _square_marks(p)
    return [1 if is_square[a] else -1 for a in range(1, p)]


def legendre_pair_counts(p: int) -> tuple:
    """Overlapping-pair counts (n++, n+-, n-+, n--) of the symbols (a/p).

    Counts the pairs (a-1, a) for a = 2..p-1 without building the
    symbol list, from three sums as `kernels.c` does: the squares first,
    the squares second, and the pairs of two squares.  Read as one
    big-endian integer, the marks of 1..p-1 have a byte per mark, so
    `m & (m >> 8)` has a bit set for each pair of adjacent squares.
    """
    if p < 3:
        return (0, 0, 0, 0)
    is_square = _square_marks(p)
    first, second = is_square.count(1, 1, p - 1), is_square.count(1, 2, p)
    m = int.from_bytes(is_square[1:p], "big")
    both = (m & (m >> 8)).bit_count()
    return (both, first - both, second - both, (p - 2) - first - second + both)


def primitive_root_scan(p: int, exponents: list) -> list:
    """All g in [2, p-1] passing the order test for every cofactor exponent.

    `exponents` holds (p-1)/q for each distinct prime q dividing p-1;
    g is a primitive root iff no g**exponent lands on 1.
    """
    roots = []
    for g in range(2, p):
        for e in exponents:
            if pow(g, e, p) == 1:
                break
        else:
            roots.append(g)
    return roots


def multiplier_orbit(a: int, m: int, cap: int) -> list:
    """States 1, a, a^2, ... mod m until the walk returns to 1.

    The returned list holds the distinct states (starting with 1); the
    next step after the last entry is 1 again.  Raises RuntimeError if
    the walk exceeds `cap` steps, which can only happen when gcd(a, m)
    is not 1 and the orbit never closes.
    """
    states = [1]
    x = 1
    while True:
        x = a * x % m
        if x == 1:
            return states
        states.append(x)
        if len(states) > cap:
            raise RuntimeError(
                f"orbit of {a} mod {m} did not return to 1 within {cap} steps"
            )


def cycle_inversions(p: int, roots) -> list:
    """Inversion count of the cycle 1, g, g^2, ... mod p for each g in roots.

    -1 marks a g whose walk is not a cycle through all of 1..p-1.
    """
    out = []
    for g in roots:
        try:
            states = multiplier_orbit(g, p, p - 1)
        except RuntimeError:  # the walk never returns to 1
            states = ()
        out.append(count_inversions(states) if len(states) == p - 1 else -1)
    return out


def simulate_inversion_counts(tail_len: int, iterations: int, seed: int) -> list:
    """Inversion counts of `iterations` random fixed cycles.

    A fixed cycle is 1 followed by a uniform permutation of the tail;
    the leading 1 contributes no inversions, so only the tail pattern
    (here 0..tail_len-1) is shuffled and counted.
    """
    rng = SplitMix64(seed)
    base = list(range(tail_len))
    out = []
    for _ in range(iterations):
        arr = base.copy()
        rng.shuffle(arr)
        out.append(count_inversions(arr))
    return out


def simulate_run_counts(half: int, iterations: int, seed: int) -> list:
    """Run counts of `iterations` uniform shuffles of `half` +1s and -1s."""
    rng = SplitMix64(seed)
    out = []
    for _ in range(iterations):
        arr = [1] * half + [-1] * half
        rng.shuffle(arr)
        runs = 1
        prev = arr[0]
        for v in arr[1:]:
            if v != prev:
                runs += 1
                prev = v
        out.append(runs)
    return out
