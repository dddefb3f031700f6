"""Kernel backend selection.

The compiled kernels (`kernels.c`, loaded by `_ckernels` with ctypes)
are used when their library has been built and loads; otherwise the
pure-Python twin takes over.  Both expose the same functions with
bit-identical output, so everything above this package is
backend-agnostic.  `BACKEND` reports which one is active.  Build the
library with `python setup.py build_ext --inplace`.

The benchmark harness in `perfbench/` depends on names here and above:
it calls six kernels by name and argument list (`count_inversions`,
`legendre_symbols`, `primitive_root_scan`, `multiplier_orbit`,
`simulate_inversion_counts`, `simulate_run_counts`), and it wraps, by
name, every function in each layer's `__all__` plus
`modarith.prime_value`, `permstats.ThreadPoolExecutor` and
`permstats.SimReport.from_counts`.  Renaming any of them breaks it;
`tests/test_perfbench_hooks.py` runs those hooks.
"""

import os
from importlib.machinery import EXTENSION_SUFFIXES

from . import _pykernels

#: The shared library built from kernels.c.  Not named `_ckernels`: a
#: library of that name would shadow the ctypes wrapper on import.
LIBRARY = os.path.join(os.path.dirname(__file__), "kernels" + EXTENSION_SUFFIXES[0])

try:
    from . import _ckernels
except ImportError:
    _ckernels = None

_active = _ckernels if _ckernels is not None else _pykernels

BACKEND = _active.BACKEND_NAME

count_inversions = _active.count_inversions
legendre_symbols = _active.legendre_symbols
legendre_pair_counts = _active.legendre_pair_counts
primitive_root_scan = _active.primitive_root_scan
multiplier_orbit = _active.multiplier_orbit
cycle_inversions = _active.cycle_inversions
simulate_inversion_counts = _active.simulate_inversion_counts
simulate_run_counts = _active.simulate_run_counts
splitmix_outputs = _active.splitmix_outputs


def available_backends() -> list[str]:
    """Names of the kernel backends importable in this installation."""
    names = ["python"]
    if _ckernels is not None:
        names.append("compiled")
    return names


def backend_module(name: str):
    """Fetch a backend by name ('python' or 'compiled'), for benchmarks."""
    if name == "python":
        return _pykernels
    if name == "compiled":
        if _ckernels is None:
            raise ValueError("compiled backend is not available in this installation")
        return _ckernels
    raise ValueError(f"unknown backend {name!r}")
