"""`benchmarks/bench_backends.py` builds its cases and calls every kernel.

The script is not part of the package, so nothing else imports it; a
renamed function or a changed return type it relies on shows here.  It
is imported as it is, with `benchmarks/` put on `sys.path`.
"""

import sys
from pathlib import Path

import pytest

from modsquares._kernels import KERNELS, available_backends, backend_module

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


@pytest.fixture(scope="module")
def cases():
    sys.path.insert(0, str(BENCHMARKS))
    try:
        import bench_backends
    finally:
        sys.path.remove(str(BENCHMARKS))
    return bench_backends.build_cases()


def test_build_cases_names_every_case_once(cases):
    names = [name for name, _ in cases]
    assert names and len(names) == len(set(names))


def test_every_kernel_has_one_case(cases):
    assert tuple(name.partition("(")[0] for name, _ in cases) == KERNELS


@pytest.mark.skipif("compiled" not in available_backends(), reason="compiled kernels not built")
def test_every_case_runs_on_the_compiled_backend(cases):
    compiled = backend_module("compiled")
    for name, call in cases:
        assert call(compiled) is not None, name
