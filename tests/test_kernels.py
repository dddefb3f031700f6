"""Backend parity: the compiled kernels must match the pure-Python twin bit for bit."""

import ctypes
import os
import pickle
import shutil
import subprocess
import sys
import textwrap
from inspect import signature
from pathlib import Path

import pytest

import modsquares
from modsquares._kernels import KERNELS, LIBRARY, available_backends, backend_module
from modsquares.modarith import odd_primes_below
from modsquares.permstats import SimConfig, simulate_inversions
from modsquares.primroots import factorize, primitive_roots
from modsquares.rng import SplitMix64, stream_seeds
from modsquares.runstats import PairCounts, aladov_predicted, legendre_sequence, pair_counts, simulate_runs

pure = backend_module("python")

needs_compiled = pytest.mark.skipif(
    "compiled" not in available_backends(),
    reason="compiled kernels not built in this installation",
)


@pytest.fixture(scope="module")
def compiled():
    return backend_module("compiled")


class TestSplitMix64:
    def test_known_fixed_point_free_stream(self):
        rng = SplitMix64(0)
        first = [rng.next_u64() for _ in range(3)]
        # reference outputs of the standard mixer seeded with 0
        assert first == [
            16294208416658607535,
            7960286522194355700,
            487617019471545679,
        ]

    def test_randbelow_range_and_determinism(self):
        rng = SplitMix64(123)
        draws = [rng.randbelow(10) for _ in range(1000)]
        assert set(draws) <= set(range(10))
        rng2 = SplitMix64(123)
        assert draws == [rng2.randbelow(10) for _ in range(1000)]

    def test_randbelow_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            SplitMix64(0).randbelow(0)

    def test_seed_validation(self):
        with pytest.raises(ValueError):
            SplitMix64(-1)
        with pytest.raises(ValueError):
            SplitMix64(1 << 64)

    def test_stream_seeds_are_distinct_and_stable(self):
        seeds = stream_seeds(42, 8)
        assert len(set(seeds)) == 8
        assert seeds == stream_seeds(42, 8)


def _shuffles(seed, count, most):
    """`count` shuffles of range(n), n drawn below `most`, from one stream."""
    rng = SplitMix64(seed)
    for _ in range(count):
        values = list(range(rng.randbelow(most)))
        rng.shuffle(values)
        yield (values,)


def _orbits():
    cases = [(1904, 8191), (2, 11), (7, 100), (1, 5)]
    cases.append((6, 99991))  # 99990 states outgrow the first buffer
    # 2 has order 2k mod 2^k + 1; on both sides of the 2^32 product fast path
    cases += [(2, (1 << k) + 1) for k in (31, 32, 61, 62)]
    return [(a, m, m) for a, m in cases]


def _root_cycles():
    for p in (3, 5, 7, 11, 29, 97, 1009, 2003, 10007):
        roots = list(primitive_roots(p))
        yield p, roots[::100] if p == 10007 else roots  # the pure twin takes ~20 ms a root there
    # 3 has order 5 mod 11, 10 order 2, 1 order 1; 0 and 11 never return to 1
    yield from [(11, [3, 2]), (11, [10, 1, 0, 11, 13]), (29, [])]


#: The argument tuples on which each kernel's two backends must agree.
PARITY_INPUTS = {
    "count_inversions": list(_shuffles(9, 50, 400)),
    # 1, 2, 9 and 15 also reach the kernel's non-prime corners
    "legendre_symbols": [(p,) for p in (1, 2, 3, 5, 7, 9, 11, 15, 8191, 9973)],
    # both classes mod 4 (13, 17 and 9973 are 1 mod 4; 19, 8191 and 99991
    # are 3 mod 4) and the non-prime corners
    "legendre_pair_counts": [(p,) for p in (1, 2, 3, 5, 7, 9, 11, 13, 15, 17, 19, 8191, 9973, 99991)],
    # the exponents are (p-1)/q for each prime q dividing p-1; the compiled
    # scan answers (p-1)/2 from the square marks, so single exponents with
    # and without it and the benchmark's safe primes p = 2q + 1 are here
    "primitive_root_scan": [(11, [5, 2]), (29, [14, 4]), (97, [48, 32]), (3, [1]), (9973, [4986, 3324, 36]),
                            (97, [32]), (97, [48]), (5, [2]), (55787, [27893, 2])],
    "multiplier_orbit": _orbits(),
    "cycle_inversions": list(_root_cycles()),
    "simulate_inversion_counts": [(27, 300, 555)],
    "simulate_run_counts": [(48, 300, 777)],
}


def test_every_kernel_has_parity_inputs():
    assert list(PARITY_INPUTS) == list(KERNELS)


@needs_compiled
def test_both_backends_define_every_kernel_with_the_same_parameters(compiled):
    for name in KERNELS:
        assert list(signature(getattr(compiled, name)).parameters) == list(
            signature(getattr(pure, name)).parameters), name


def _parity_test(kernel):
    def test(self, compiled):
        for args in PARITY_INPUTS[kernel]:
            assert getattr(compiled, kernel)(*args) == getattr(pure, kernel)(*args), args

    return test


@needs_compiled
class TestBackendParity:
    """One `test_<kernel>` per name in `KERNELS`, on its `PARITY_INPUTS`, plus edge cases."""

    def test_cycle_inversions_marks_each_non_cycle(self, compiled):
        for mod in (compiled, pure):
            assert mod.cycle_inversions(11, [3, 2]) == [-1, 15]
            assert mod.cycle_inversions(11, [10, 1, 0, 11, 13]) == [-1, -1, -1, -1, 15]
            assert mod.cycle_inversions(29, []) == []

    def test_primitive_root_scan_on_every_odd_prime_below_5000(self, compiled):
        for p in odd_primes_below(5000):
            exponents = [(p - 1) // q for q, _ in factorize(p - 1)]
            assert compiled.primitive_root_scan(p, exponents) == pure.primitive_root_scan(p, exponents), p

    def test_orbit_cap_raises_in_both(self, compiled):
        for mod in (compiled, pure):
            with pytest.raises(RuntimeError, match="orbit of 2 mod 11 did not return to 1 within 3 steps"):
                mod.multiplier_orbit(2, 11, 3)

    def test_orbit_with_huge_cap_allocates_nothing_up_front(self, compiled):
        m = (1 << 62) + 57
        for mod in (compiled, pure):
            assert mod.multiplier_orbit(m - 1, m, m) == [1, m - 1]

    def test_unallocatable_buffers_raise_memory_error(self, compiled):
        # buffers are Python arrays, so a failed allocation raises instead of crashing
        with pytest.raises(MemoryError):
            compiled.legendre_symbols((1 << 62) + 1)
        with pytest.raises(MemoryError):
            compiled.simulate_run_counts(2, 1 << 61, 0)

    def test_count_inversions_at_int64_and_uint64_edges(self, compiled):
        lo, hi, top = -(1 << 63), (1 << 63) - 1, (1 << 64) - 1
        rng = SplitMix64(63)
        for edges in ([lo, lo + 1, -1, 0, 1, hi - 1, hi], [0, 1, hi - 1, hi, hi + 1, top - 1, top]):
            for _ in range(20):
                values = edges.copy()
                rng.shuffle(values)
                assert compiled.count_inversions(values) == pure.count_inversions(values)
            assert compiled.count_inversions(edges[::-1]) == len(edges) * (len(edges) - 1) // 2
        with pytest.raises(OverflowError):
            compiled.count_inversions([hi + 1, -1])

    def test_simulations_independent_of_worker_threads(self):
        assert modsquares.KERNEL_BACKEND == "compiled"
        config = SimConfig(seed=0xC0FFEE, iterations=4001, streams=2)
        assert simulate_inversions(29, config, workers=2) == simulate_inversions(29, config, workers=1)
        assert simulate_runs(97, config, workers=2) == simulate_runs(97, config, workers=1)


for _kernel in KERNELS:
    setattr(TestBackendParity, f"test_{_kernel}", _parity_test(_kernel))


#: The primes on both sides of the first two block ends of the compiled
#: pair-count loop, whose blocks hold 65536 pairs from a = 2 on.
PAIR_BLOCK_EDGE_PRIMES = (65537, 65539, 131071, 131101)


@pytest.mark.parametrize("backend", available_backends())
def test_pair_counts_match_the_symbols_and_aladov(backend):
    kernel = backend_module(backend).legendre_pair_counts
    for p in [*odd_primes_below(5000), *PAIR_BLOCK_EDGE_PRIMES]:
        assert PairCounts(*kernel(p)) == pair_counts(legendre_sequence(p)) == aladov_predicted(p), p


def _setup_py_build_ext(out: Path, **env) -> tuple[str, list[Path]]:
    """Run `setup.py build_ext` into `out`; its stderr and the libraries it made."""
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--build-lib", str(out / "lib"), "--build-temp", str(out / "tmp")],
        cwd=Path(__file__).resolve().parents[1], env={**os.environ, **env},
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stderr, list(out.rglob(Path(LIBRARY).name))


def _inplace_fingerprint():
    inplace = Path(LIBRARY)
    if not inplace.exists():
        return None
    stat = inplace.stat()
    return stat.st_ino, stat.st_size, stat.st_mtime_ns


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_setup_py_builds_the_library_or_warns_and_builds_none(tmp_path):
    before = _inplace_fingerprint()
    built = _setup_py_build_ext(tmp_path / "werror", CFLAGS="-Werror")[1]  # warnings as errors
    assert [ctypes.CDLL(str(library)).msq_abi_version() for library in built] == [1]
    stderr, built = _setup_py_build_ext(tmp_path / "failing", CC="false")
    assert 'building extension "modsquares._kernels.kernels" failed' in stderr
    assert built == []
    assert _inplace_fingerprint() == before


def test_without_the_library_the_package_falls_back_to_python(tmp_path):
    package = Path(modsquares.__file__).parent
    shutil.copytree(package, tmp_path / "modsquares", ignore=shutil.ignore_patterns("*.so", "__pycache__"))
    script = textwrap.dedent("""
        import modsquares
        from modsquares._kernels import available_backends, backend_module
        assert modsquares.KERNEL_BACKEND == "python"
        assert available_backends() == ["python"]
        try:
            backend_module("compiled")
        except ValueError as exc:
            print("fallback ok:", exc)
    """)
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env={"PYTHONPATH": str(tmp_path)},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("fallback ok: compiled backend is not available")


def _sanitizer_runtimes() -> list[str]:
    """gcc's ASan and UBSan runtime libraries, or [] when either is missing."""
    if shutil.which("gcc") is None:
        return []
    paths = [subprocess.run(["gcc", f"-print-file-name={name}"], capture_output=True, text=True).stdout.strip()
             for name in ("libasan.so", "libubsan.so")]
    return paths if all(os.path.isabs(path) and os.path.exists(path) for path in paths) else []


SANITIZER_RUNTIMES = _sanitizer_runtimes()


@pytest.mark.skipif(not SANITIZER_RUNTIMES, reason="gcc or its ASan/UBSan runtime is missing")
def test_sanitized_kernels_match_the_pure_backend(tmp_path):
    """Every `PARITY_INPUTS` case, run on kernels.c built with ASan and UBSan."""
    package = Path(modsquares.__file__).parent
    copy = tmp_path / "modsquares"
    shutil.copytree(package, copy, ignore=shutil.ignore_patterns("*.so", "__pycache__"))
    build = subprocess.run(
        ["gcc", "-shared", "-fPIC", "-O3", "-g", "-fno-omit-frame-pointer",
         "-fsanitize=address,undefined", "-fno-sanitize-recover=undefined",
         "-o", str(copy / "_kernels" / Path(LIBRARY).name), str(copy / "_kernels" / "kernels.c")],
        capture_output=True, text=True, timeout=120)
    assert build.returncode == 0, build.stderr
    (tmp_path / "cases.pickle").write_bytes(pickle.dumps(PARITY_INPUTS))
    script = textwrap.dedent(f"""
        import pickle
        from modsquares._kernels import BACKEND, LIBRARY, backend_module
        assert BACKEND == "compiled" and LIBRARY.startswith({str(tmp_path)!r}), (BACKEND, LIBRARY)
        with open("cases.pickle", "rb") as f:
            parity_inputs = pickle.load(f)
        compiled, pure = backend_module("compiled"), backend_module("python")
        for name, cases in parity_inputs.items():
            for args in cases:
                assert getattr(compiled, name)(*args) == getattr(pure, name)(*args), (name, args)
        print("parity ok")
    """)
    env = {**os.environ, "PYTHONPATH": str(tmp_path), "LD_PRELOAD": " ".join(SANITIZER_RUNTIMES),
           "ASAN_OPTIONS": "detect_leaks=0:allocator_may_return_null=1"}
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-4000:]
    assert proc.stdout == "parity ok\n"


def test_backend_module_rejects_unknown_name():
    with pytest.raises(ValueError):
        backend_module("fortran")
