"""Kernel backend selection.

The compiled kernels (`kernels.c`, loaded by `_ckernels` with ctypes)
are used when their library has been built and loads; otherwise the
pure-Python twin takes over.  Both define every function named in
`KERNELS`, with bit-identical output, so everything above this package
is backend-agnostic; each name is bound here as a plain module global
from the active backend.  `BACKEND` reports which one is active.  Build
the library with `python setup.py build_ext --inplace`.

The benchmark harness in `perfbench/` depends on names here and above:
it calls six of the `KERNELS` by name and argument list and patches
their globals here by object identity, reads `_active.__file__`, and
wraps, by name, every function in each layer's `__all__` plus
`modarith.prime_value`, `permstats.ThreadPoolExecutor`,
`permstats.SimReport.from_counts`, `cli.build_parser` (which `cli.main`
calls through its module global) and the four emitters `cli.emit_csv`,
`cli.emit_json`, `cli.emit_svg_histogram` and `cli.emit_svg_scatter`.
Renaming any of them breaks it; `tests/test_perfbench_hooks.py` runs
those hooks.
"""

import os
from importlib.machinery import EXTENSION_SUFFIXES

from . import _pykernels

#: The kernel functions every backend defines, with the same parameters.
KERNELS = ("count_inversions", "legendre_symbols", "legendre_pair_counts", "primitive_root_scan",
           "multiplier_orbit", "cycle_inversions", "simulate_inversion_counts", "simulate_run_counts")

#: The shared library built from kernels.c.  Not named `_ckernels`: a
#: library of that name would shadow the ctypes wrapper on import.
LIBRARY = os.path.join(os.path.dirname(__file__), "kernels" + EXTENSION_SUFFIXES[0])

#: The importable backends by name; the last one is the active one.
_BACKENDS = {"python": _pykernels}
try:
    from . import _ckernels

    _BACKENDS["compiled"] = _ckernels
except ImportError:
    pass

BACKEND, _active = list(_BACKENDS.items())[-1]
globals().update({name: getattr(_active, name) for name in KERNELS})


def available_backends() -> list[str]:
    """Names of the kernel backends importable in this installation."""
    return list(_BACKENDS)


def backend_module(name: str):
    """Fetch a backend by name ('python' or 'compiled'), for benchmarks."""
    if name in _BACKENDS:
        return _BACKENDS[name]
    if name == "compiled":
        raise ValueError("compiled backend is not available in this installation")
    raise ValueError(f"unknown backend {name!r}")
