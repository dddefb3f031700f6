"""The package namespace: the union of the layer modules' `__all__` lists,
the types its functions return, the README tour that uses it, and the one
version string."""

import doctest
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import modsquares
from modsquares import genseq, modarith, permstats, primroots, rng, runstats
from modsquares._kernels import backend_module

MODULES = (genseq, modarith, permstats, primroots, rng, runstats)
ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_exports_are_the_module_exports_without_duplicates():
    expected = [name for module in MODULES for name in module.__all__]
    expected += ["KERNEL_BACKEND", "available_backends", "__version__"]
    assert len(set(expected)) == len(expected)
    assert len(set(modsquares.__all__)) == len(modsquares.__all__)
    assert set(modsquares.__all__) == set(expected)


def test_every_export_resolves_on_the_package():
    for name in modsquares.__all__:
        assert hasattr(modsquares, name), name
    for module in MODULES:
        for name in module.__all__:
            assert getattr(modsquares, name) is getattr(module, name), name


def test_pow_mod_is_gone():
    assert "pow_mod" not in modsquares.__all__
    assert not hasattr(modsquares, "pow_mod")
    assert not hasattr(modarith, "pow_mod")


def test_result_wrappers_are_gone():
    for name in ("LegendreSeq", "PrimitiveRootSet", "RunsScan"):
        assert name not in modsquares.__all__
        assert not hasattr(modsquares, name)
        assert not hasattr(runstats, name) and not hasattr(primroots, name)
    pure = backend_module("python")
    symbols = runstats.legendre_sequence(13)
    assert type(symbols) is tuple and symbols == tuple(pure.legendre_symbols(13))
    roots = primroots.primitive_roots(13)
    assert type(roots) is tuple and roots == tuple(pure.primitive_root_scan(13, [12 // 2, 12 // 3]))
    scan = runstats.scan_runs(count=5)
    assert type(scan) is tuple and scan == ((3, 2), (5, 3), (7, 4), (11, 6), (13, 7))


def test_generator_cycle_derives_its_period_from_its_states():
    assert [f.name for f in fields(genseq.GeneratorCycle)] == ["modulus", "multiplier", "states"]
    orbit = genseq.lcg_orbit(1904, 8191)
    assert orbit == genseq.GeneratorCycle(8191, 1904, (1, 1904, 4794, 3002, 6681))
    assert orbit.period == 5


def test_readme_quick_tour_runs_as_a_doctest():
    text = README.read_text()
    start = text.index("```python\n") + len("```python\n")
    block = text[start:text.index("```", start)]
    test = doctest.DocTestParser().get_doctest(
        block, {}, "README quick tour", str(README), text.count("\n", 0, start))
    report = []
    results = doctest.DocTestRunner(verbose=False).run(test, out=report.append)
    assert test.examples
    assert results.failed == 0, "".join(report)


def test_the_distribution_version_is_the_package_version():
    proc = subprocess.run([sys.executable, "setup.py", "--version"], cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == modsquares.__version__
