"""The benchmark harness's hooks into the package, run with the suite.

`perfbench/` wraps package functions by name (`spans.Tracer`) and calls
kernels by name and argument list (`workloads.parity_cases`).  A renamed
function or a changed kernel signature breaks those hooks; here that
shows in seconds instead of only in a benchmark run.  The harness files
are imported as they are, with `perfbench/` put on `sys.path`.
"""

import sys
from pathlib import Path

import pytest

from modsquares import cli, genseq
from modsquares._kernels import KERNELS, available_backends, backend_module

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def harness():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import spans
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return spans, workloads


def test_tracer_installs_counts_and_uninstalls(harness, tmp_path):
    spans, _ = harness
    before = [dict(vars(module)) for module in (cli, genseq)]
    tracer = spans.Tracer()
    tracer.install()
    try:
        for argv in (["squares", "--p", "11", "--g", "2"], ["inversions", "--p", "29"]):
            tracer.cmd += 1
            assert cli.main([*argv, "--out", str(tmp_path / "out.csv")]) == 0
    finally:
        tracer.uninstall()
    assert tracer.counts["genseq.states"] == 5  # the squares of 11 in the 2^2-walk
    assert tracer.counts["primroots.roots"] == 13  # 2 is a root of 11; 29 has phi(28) = 12
    assert [dict(vars(module)) for module in (cli, genseq)] == before


def test_both_backends_agree_on_each_workloads_first_pass(harness):
    spans, workloads = harness
    pure = backend_module("python")
    compiled = backend_module("compiled") if "compiled" in available_backends() else None
    called = set()
    for name in sorted(workloads.WORKLOADS):
        first = next(workloads.passes(name, 1))
        for kernel, args in workloads.parity_cases(first, pure):
            expected = getattr(pure, kernel)(*args)
            if compiled is not None:
                assert getattr(compiled, kernel)(*args) == expected, (name, kernel)
            called.add(kernel)
    assert called == set(spans.KERNELS)


def test_traced_kernels_are_package_kernels(harness):
    spans, _ = harness
    assert set(spans.KERNELS) <= set(KERNELS)
