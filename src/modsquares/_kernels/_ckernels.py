"""Compiled kernels: `kernels.c` loaded with ctypes.

Same function-by-function contract as `_pykernels`, and the same
output bit for bit; the test suite asserts the equality.  Buffers are
allocated here as `array`s, so a failed allocation raises MemoryError
in Python, and results come back as plain lists.  ctypes releases the
GIL during each call, so simulation streams run in parallel threads.

Importing this module raises ImportError when the library is missing,
cannot be loaded or was built from another version of `kernels.c`.
"""

from __future__ import annotations

import ctypes
from array import array
from itertools import compress

from . import LIBRARY

_ABI_VERSION = 1  # MSQ_ABI_VERSION in kernels.c
_ORBIT_START = 1 << 12  # states reserved before the orbit walk starts

_i64, _u64, _ptr = ctypes.c_int64, ctypes.c_uint64, ctypes.c_void_p
_SIGNATURES = {
    "msq_abi_version": (ctypes.c_int, []),
    "msq_count_inversions": (_i64, [_ptr, _ptr, _i64, ctypes.c_int]),
    "msq_legendre_symbols": (None, [_i64, _ptr]),
    "msq_legendre_pair_counts": (None, [_i64, _ptr, _ptr]),
    "msq_primitive_root_scan": (None, [_i64, _ptr, _i64, _ptr]),
    "msq_multiplier_orbit": (_i64, [_u64, _u64, _i64, _ptr, _i64, _i64]),
    "msq_cycle_inversions": (None, [_i64, _ptr, _i64, _ptr, _ptr]),
    "msq_simulate_inversion_counts": (None, [_i64, _i64, _u64, _ptr, _ptr, _ptr]),
    "msq_simulate_run_counts": (None, [_i64, _i64, _u64, _ptr, _ptr]),
}


def _load():
    try:
        lib = ctypes.CDLL(LIBRARY)
        for name, (restype, argtypes) in _SIGNATURES.items():
            fn = getattr(lib, name)
            fn.restype, fn.argtypes = restype, argtypes
    except (OSError, AttributeError) as exc:
        raise ImportError(f"cannot load {LIBRARY}: {exc}") from exc
    if lib.msq_abi_version() != _ABI_VERSION:
        raise ImportError(f"{LIBRARY} is stale; rebuild it with `python setup.py build_ext --inplace`")
    return lib


_lib = _load()


def _zeros(typecode: str, n: int) -> array:
    return array(typecode, [0]) * n


def _addr(buf: array) -> int:
    return buf.buffer_info()[0]


def count_inversions(values) -> int:
    """Exact inversion count, O(n log n); values must fit in int64 or uint64."""
    try:
        a, is_unsigned = array("Q", values), 1  # fills 2-3x faster than "q"
    except OverflowError:  # a negative value
        a, is_unsigned = array("q", values), 0
    tmp = array(a.typecode, a)
    return _lib.msq_count_inversions(_addr(a), _addr(tmp), len(a), is_unsigned)


def legendre_symbols(p: int) -> list:
    """Symbols (a/p) for a = 1..p-1 as a list of +-1 ints."""
    out = _zeros("b", p - 1)
    _lib.msq_legendre_symbols(p, _addr(out))
    return out.tolist()


def legendre_pair_counts(p: int) -> tuple:
    """Overlapping-pair counts (n++, n+-, n-+, n--) of the symbols (a/p)."""
    is_square, out = _zeros("b", p), _zeros("q", 4)
    _lib.msq_legendre_pair_counts(p, _addr(is_square), _addr(out))
    return tuple(out)


def primitive_root_scan(p: int, exponents: list) -> list:
    """All g in [2, p-1] passing the order test for every cofactor exponent."""
    exps = array("Q", exponents)
    is_root = _zeros("b", p)
    _lib.msq_primitive_root_scan(p, _addr(exps), len(exps), _addr(is_root))
    return list(compress(range(p), is_root))


def multiplier_orbit(a: int, m: int, cap: int) -> list:
    """States 1, a, a^2, ... mod m until the walk returns to 1.

    The buffer starts small and doubles while the walk goes on, so a cap
    near 2**63 costs no memory before the walk closes.
    """
    out = _zeros("q", max(1, min(cap, _ORBIT_START)))
    out[0] = filled = 1
    while True:
        period = _lib.msq_multiplier_orbit(a, m, cap, _addr(out), filled, len(out))
        if period < 0:
            raise RuntimeError(
                f"orbit of {a} mod {m} did not return to 1 within {cap} steps"
            )
        if period:
            del out[period:]
            return out.tolist()
        filled = len(out)
        out.extend(_zeros("q", min(filled, cap - filled)))


def cycle_inversions(p: int, roots) -> list:
    """Inversion count of the cycle 1, g, g^2, ... mod p for each g in roots.

    -1 marks a g whose walk is not a cycle through all of 1..p-1.  The
    counts come from one Fenwick tree of p uint32 counters, reused for
    every root, so 2 <= p <= 2**32.
    """
    gs = array("Q", roots)
    tree, out = _zeros("I", p), _zeros("q", len(gs))
    _lib.msq_cycle_inversions(p, _addr(gs), len(gs), _addr(tree), _addr(out))
    return out.tolist()


def simulate_inversion_counts(tail_len: int, iterations: int, seed: int) -> list:
    """Inversion counts of `iterations` random fixed cycles (tail shuffles)."""
    a, tmp, out = _zeros("q", tail_len), _zeros("q", tail_len), _zeros("q", iterations)
    _lib.msq_simulate_inversion_counts(
        tail_len, iterations, seed, _addr(a), _addr(tmp), _addr(out)
    )
    return out.tolist()


def simulate_run_counts(half: int, iterations: int, seed: int) -> list:
    """Run counts of `iterations` uniform shuffles of `half` +1s and -1s."""
    arr, out = _zeros("b", 2 * half), _zeros("q", iterations)
    _lib.msq_simulate_run_counts(half, iterations, seed, _addr(arr), _addr(out))
    return out.tolist()
