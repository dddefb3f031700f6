"""The package namespace is the union of the layer modules' `__all__` lists."""

import modsquares
from modsquares import genseq, modarith, permstats, primroots, rng, runstats

MODULES = (genseq, modarith, permstats, primroots, rng, runstats)


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
