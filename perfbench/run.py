#!/usr/bin/env python3
"""Benchmark of the modsquares CLI: closed-loop workloads with oracles.

    python3 perfbench/run.py --workload root-cycles --seed 1 --seconds 25 --trace 0

One client in this process calls `modsquares.cli.main(argv)`, writing
each command's output to a file, and waits for it before the next call;
monte-carlo also calls the library's `sd_pvalue`.  The client repeats
the workload's command list (a pass) as many times as take --seconds
at the reference commit, so every commit measures the same commands; a
run that takes three times that long stops early.  Independent oracles
check every output outside the timed region.  A short calibration round
of the benchmark's own code runs between operations, and every
end-to-end timing is reported at a reference host speed (see
`calibration_round`).  --trace 0 prints the end-to-end metrics of
BENCHMARK.json; --trace 1 runs every pass twice, plain and with spans
around each layer, and prints the per-layer metrics.  The last line of
stdout is one JSON object.  A record with provenance and the sha256 of
every output goes to .perfbench/runs/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import os
import platform
import random
import resource
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import fmean, median

import oracles
from arith import count_inversions, primes_between
from spans import Tracer
from workloads import REFERENCE_PASS_S, WORKLOADS, Op, parity_cases, passes

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 15
MIN_PASSES = 3
TAIL_BEYOND = 10  # commands slower than the reported tail latency
REFERENCE_ROUND_S = 0.006  # one calibration round at the reference host speed


@dataclass
class Result:
    op: Op
    latency: float
    digest: str
    error: str | None
    reference: float = 0.0  # latency at the reference host speed


_ROUND_PERM = random.Random(0).sample(range(2000), 2000)


def calibration_round() -> float:
    """Seconds a fixed task of the benchmark's own takes on the host now.

    A shared host runs the same code at speeds up to 2x apart, in phases
    that last from a tenth of a second to minutes.  So a round runs
    before the first timed operation and after each one, outside the
    timed region, and each operation's time is reported at the reference
    speed: measured x REFERENCE_ROUND_S / the mean of the rounds around
    it.  No change to the package alters the round's code.
    """
    start = time.perf_counter()
    count_inversions(_ROUND_PERM)
    primes_between(3, 50_000)
    return time.perf_counter() - start


def at_reference(times: list[float], rounds: list[float]) -> list[float]:
    """times[i], taken between rounds[i] and rounds[i + 1], at the reference speed."""
    return [t * 2 * REFERENCE_ROUND_S / (a + b) for t, a, b in zip(times, rounds, rounds[1:])]


def import_package():
    sys.path.insert(0, str(SRC))
    import modsquares
    import modsquares.cli  # noqa: F401

    if Path(modsquares.__file__).resolve().parent != (SRC / "modsquares").resolve():
        raise SystemExit(f"error: imported modsquares from {modsquares.__file__}, not {SRC}")
    return modsquares


def build() -> str:
    """Build the optional compiled kernels from source; up-to-date targets are skipped."""
    proc = subprocess.run([sys.executable, "setup.py", "-q", "build_ext", "--inplace"],
                          cwd=ROOT, capture_output=True, text=True, timeout=850)
    status = "ok" if proc.returncode == 0 else f"failed with exit code {proc.returncode}"
    (OUT / "build.log").write_text(f"build_ext --inplace: {status}\n{proc.stdout}{proc.stderr}")
    return f"build_ext --inplace: {status}"


def measure_setup(workload: str, seed: int, rounds: list[float]) -> float:
    """Median spawn-to-exit time of the set-up probe in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).with_name("setup_probe.py")), workload, str(seed)]
    subprocess.run(cmd, cwd=ROOT, check=True)  # writes the bytecode caches
    times, around = [], [calibration_round()]
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True)  # no timeout: it would poll, in 1-50 ms sleeps
        times.append(time.perf_counter() - start)
        around.append(calibration_round())
    rounds += around
    return median(at_reference(times, around))


def _first_line(cmd) -> str | None:
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.splitlines()[0] if proc.returncode == 0 and proc.stdout else None


def provenance(modsquares, args, build_status: str) -> dict:
    from modsquares import _kernels

    git = _first_line(["git", "rev-parse", "HEAD"]) if (ROOT / ".git").exists() else None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "kernel_backend": modsquares.KERNEL_BACKEND,
        "kernel_module": str(Path(_kernels._active.__file__).resolve().relative_to(ROOT)),
        "available_backends": modsquares.available_backends(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "python_compiler": platform.python_compiler(),
        "cc": _first_line(["cc", "--version"]),
        "git_rev": git or "unknown (not a git checkout)",
        "build": build_status,
        "version": modsquares.__version__,
    }


def check_parity(kernels, ops) -> str:
    """Pure and compiled kernels must agree on this workload's inputs."""
    if "compiled" not in kernels.available_backends():
        return "parity skipped: python only"
    pure, compiled = kernels.backend_module("python"), kernels.backend_module("compiled")
    cases = parity_cases(ops, pure)
    for name, kernel_args in cases:
        if getattr(pure, name)(*kernel_args) != getattr(compiled, name)(*kernel_args):
            raise SystemExit(f"error: python and compiled {name} disagree")
    return f"parity ok: {len(cases)} kernel calls agree on both backends"


class Client:
    """Runs one operation at a time, cold, and checks what it wrote."""

    def __init__(self, out_dir: Path):
        from modsquares import cli, permstats

        self.cli, self.permstats, self.out_dir = cli, permstats, out_dir
        caches = {}
        for name, module in list(sys.modules.items()):
            if name.startswith("modsquares"):
                for value in vars(module).values():
                    if hasattr(value, "cache_clear"):
                        caches[id(value)] = value
        self.caches = list(caches.values())

    def run(self, op: Op, entry) -> Result:
        for cache in self.caches:  # every CLI invocation starts with empty caches
            cache.cache_clear()
        gc.collect()  # and with no garbage left by an earlier command
        path = self.out_dir / f"out.{op.ext}"
        error = None
        start = time.perf_counter()
        if op.library:
            workers = op.int_flag("--workers")
            config = self.permstats.SimConfig(seed=op.int_flag("--seed"),
                                              iterations=op.int_flag("--iterations"), streams=workers)
            try:
                data = repr(self.permstats.sd_pvalue(op.int_flag("--p"), config, workers=workers)).encode()
            except (ValueError, RuntimeError) as exc:
                data, error = b"", f"raised {exc!r}"
        else:
            code = entry([*op.argv, "--out", str(path)])
        latency = time.perf_counter() - start
        if not op.library:
            data = path.read_bytes() if path.exists() else b""
            path.unlink(missing_ok=True)
            error = f"exit code {code}" if code else None
        return Result(op, latency, hashlib.sha256(data).hexdigest(), error or oracles.check(op, data))


def measure(client: Client, stream, count: int, seconds: float, tracer: Tracer | None,
            rounds: list[float]):
    """Run `count` passes (fewer past 3 x seconds); returns (plain, traced) passes."""
    plain, traced = [], []
    deadline = time.perf_counter() + 3 * seconds
    for ops in itertools.islice(stream, count):
        results, around = [], [calibration_round()]
        for op in ops:
            results.append(client.run(op, client.cli.main))
            around.append(calibration_round())
        for r, t in zip(results, at_reference([r.latency for r in results], around)):
            r.reference = t
        rounds += around
        plain.append(results)
        if tracer is not None:
            root = tracer.wrap(client.cli.main, "cli.main")
            tracer.install()
            try:
                results = []
                for op in ops:
                    tracer.cmd += 1
                    results.append(client.run(op, root))
            finally:
                tracer.uninstall()
            for ours, theirs in zip(results, plain[-1]):
                if ours.error is None and ours.digest != theirs.digest:
                    ours.error = "output differs from the untraced run"
            traced.append(results)
        if len(plain) >= MIN_PASSES and time.perf_counter() > deadline:
            break
    return plain, traced


def pass_walls(passes_, field="latency"):
    return [sum(getattr(r, field) for r in results) for results in passes_]


def end_to_end(plain, setup_s: float) -> tuple[dict, dict]:
    """(metrics, tail); timings are at the reference host speed."""
    latencies = sorted(r.reference for results in plain for r in results)
    n = len(latencies)
    tail = {"percentile": 100 * (n - TAIL_BEYOND) / n, "commands": n}
    metrics = {
        "setup_s": setup_s,
        "wall_s": median(pass_walls(plain, "reference")),
        "cmd_p50_ms": 1000 * median(latencies),
        "cmd_tail_ms": 1000 * latencies[n - TAIL_BEYOND - 1],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, tail


def per_layer(tracer: Tracer, plain, traced) -> dict:
    metrics = tracer.layer_metrics(len(traced))
    wall = fmean(pass_walls(traced))
    metrics["trace.wall_s"] = wall
    metrics["trace.overhead_s"] = wall - fmean(pass_walls(plain))
    metrics["trace.unaccounted_s"] = wall - (metrics["trace.self_sum_s"] - metrics["trace.overlap_s"])
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "modsquares" / "__init__.py").is_file():
        raise SystemExit(f"error: no modsquares source under {SRC}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    OUT.mkdir(exist_ok=True)
    build_status = build()
    rounds = []
    setup_s = None if args.trace else measure_setup(args.workload, args.seed, rounds)
    modsquares = import_package()
    from modsquares import _kernels

    stream = passes(args.workload, args.seed)
    first = next(stream)
    record = {"provenance": provenance(modsquares, args, build_status),
              "parity": check_parity(_kernels, first)}
    print(" ".join(f"{k}={v}" for k, v in record["provenance"].items()))
    print(record["parity"])

    tracer = Tracer() if args.trace else None
    # a traced run runs every pass twice, so it takes half as many
    count = args.seconds / REFERENCE_PASS_S[args.workload] / (2 if tracer else 1)
    count = max(1 if tracer else MIN_PASSES, round(count))
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        plain, traced = measure(Client(Path(tmp)), itertools.chain([first], stream), count,
                                args.seconds, tracer, rounds)

    results = [r for results in plain + traced for r in results]
    failed = [r for r in results if r.error]
    for r in failed[:20]:
        print(f"FAILED {' '.join(r.op.argv)}: {r.error}", file=sys.stderr)
    if tracer is None:
        metrics, record["cmd_tail"] = end_to_end(plain, setup_s)
    else:
        metrics = per_layer(tracer, plain, traced)
    if set(metrics) != {m["name"] for m in declared}:
        raise SystemExit(f"error: computed metrics {sorted(metrics)} do not match BENCHMARK.json")

    print(f"{len(plain)} passes of {len(first)} operations; calibration rounds took a median "
          f"{1000 * median(rounds):.3f} ms, timings are at {1000 * REFERENCE_ROUND_S} ms")
    for m in declared:
        print(f"{m['name']:<32} {metrics[m['name']]:>14.6g} {m['unit']}")
    if tracer is None:
        print(f"{'(cmd_tail_ms percentile)':<32} {record['cmd_tail']['percentile']:>14.4g} "
              f"of {record['cmd_tail']['commands']} commands")
    print(f"{'failed_ratio':<32} {len(failed) / len(results):>14.6g} ratio ({len(failed)} of {len(results)})")

    runs = OUT / "runs"
    runs.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record.update(metrics=metrics, failed=len(failed), attempted=len(results), passes=len(plain),
                  calibration_rounds=rounds,
                  ops=[[" ".join(r.op.argv), r.latency, r.digest, r.error, r.reference] for r in results])
    (runs / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        tracer.dump(runs / f"{stem}-spans.json")
    print(f"record: {runs / stem}.json")

    print(json.dumps({
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
