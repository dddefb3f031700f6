"""Spans around calls into each layer, recorded from outside the package.

`Tracer.install()` replaces each layer's functions, at every module
global through which a caller looks them up, with a wrapper that records
a span: name, start, end, parent span and command id.  Pool threads get
the submitting span as parent.  `uninstall()` puts the originals back.
Spans stay in memory until `dump()`; `layer_metrics()` turns them into
the per-layer metrics of BENCHMARK.json.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor

LAYERS = ("modarith", "primroots", "genseq", "permstats", "runstats", "rng")
KERNELS = ("count_inversions", "legendre_symbols", "primitive_root_scan", "multiplier_orbit",
           "simulate_inversion_counts", "simulate_run_counts")
RENDERERS = ("emit_csv", "emit_json", "emit_svg_histogram", "emit_svg_scatter")

# Work counts taken at the boundary from a call's arguments and result.
# rng.swaps is computed: a Fisher-Yates shuffle of n items makes n - 1 swaps.
_COUNTERS = {
    "modarith.is_prime": lambda a, r: {"modarith.is_prime_calls": 1},
    "primroots.is_primitive_root": lambda a, r: {"primroots.candidates": 1, "primroots.roots": int(r)},
    "kernels.primitive_root_scan": lambda a, r: {"primroots.candidates": a[0] - 2,
                                                 "primroots.roots": len(r)},
    "genseq.lcg_orbit": lambda a, r: {"genseq.states": r.period},
    "genseq.square_cycle": lambda a, r: {"genseq.states": r.period},
    "genseq.squares_set": lambda a, r: {"genseq.states": len(r)},
    "permstats.count_inversions": lambda a, r: {"permstats.elements": len(a[0])},
    "runstats.legendre_sequence": lambda a, r: {"runstats.symbols": len(r)},
    "kernels.simulate_inversion_counts": lambda a, r: {"kernels.draws": a[1],
                                                       "rng.swaps": a[1] * max(a[0] - 1, 0)},
    "kernels.simulate_run_counts": lambda a, r: {"kernels.draws": a[1],
                                                 "rng.swaps": a[1] * (2 * a[0] - 1)},
    "cli.render": lambda a, r: {"cli.bytes_out": len(r)},
}


class Span:
    __slots__ = ("name", "parent", "cmd", "start", "end", "cpu")

    def __init__(self, name, parent, cmd):
        self.name, self.parent, self.cmd = name, parent, cmd
        self.cpu = 0.0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts = Counter()
        self.cmd = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo = []

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def wrap(self, fn, name):
        """`fn` recording a span `name` per call, plus its boundary counts."""
        tracer, counter = self, _COUNTERS.get(name)
        cpu = name.startswith("kernels.simulate")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span = Span(name, stack[-1] if stack else None, tracer.cmd)
            tracer.spans.append(span)
            stack.append(span)
            cpu0 = time.thread_time() if cpu else 0.0
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                if cpu:
                    span.cpu = time.thread_time() - cpu0
                stack.pop()
            if counter is not None:
                with tracer._lock:
                    tracer.counts.update(counter(args, result))
            return result

        return traced

    def _run_under(self, parent, fn, *args, **kwargs):
        stack = self._stack()
        stack.append(parent)
        try:
            return fn(*args, **kwargs)
        finally:
            stack.pop()

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = {name: sys.modules[f"modsquares.{name}"] for name in LAYERS + ("cli", "_kernels")}
        wrappers = {}
        for layer in LAYERS:
            module = modules[layer]
            names = list(module.__all__) + (["prime_value"] if layer == "modarith" else [])
            for attr in names:
                fn = getattr(module, attr)
                if callable(fn) and not isinstance(fn, type) and not inspect.isgeneratorfunction(fn):
                    wrappers[id(fn)] = self.wrap(fn, f"{layer}.{attr}")
        kernels = modules["_kernels"]
        for attr in KERNELS:
            wrappers[id(getattr(kernels, attr))] = self.wrap(getattr(kernels, attr), f"kernels.{attr}")
        cli = modules["cli"]
        wrappers[id(cli.build_parser)] = self.wrap(cli.build_parser, "cli.build_parser")
        for attr in RENDERERS:
            wrappers[id(getattr(cli, attr))] = self.wrap(getattr(cli, attr), "cli.render")
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._patch(module, attr, wrappers[id(value)])

        report = modules["permstats"].SimReport
        from_counts = report.__dict__["from_counts"].__func__
        self._patch(report, "from_counts", classmethod(self.wrap(from_counts, "permstats.report")))

        tracer = self

        class PropagatingPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                stack = tracer._stack()
                return super().submit(tracer._run_under, stack[-1] if stack else None, fn, *args, **kwargs)

        self._patch(modules["permstats"], "ThreadPoolExecutor", PropagatingPool)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def dump(self, path) -> None:
        """Write every span as [name, start, end, parent index, command, cpu]."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        t0 = min((s.start for s in self.spans), default=0.0)
        rows = [[s.name, s.start - t0, s.end - t0,
                 index[id(s.parent)] if s.parent is not None else None, s.cmd, s.cpu]
                for s in self.spans]
        path.write_text(json.dumps({"fields": ["name", "start_s", "end_s", "parent", "command", "cpu_s"],
                                    "spans": rows}))

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-layer times and counts per traced pass, and ratios.

        Self time is a span's duration minus the union of the intervals
        its children cover.  `trace.overlap_s` is the time children of
        one span ran at once (pool threads), so that the self times of
        all spans sum to the traced wall plus the overlap.
        """
        children = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[id(s.parent)].append(s)
        total, own = Counter(), Counter()
        overlap = kernel_in_wrapper = busy = wait = 0.0
        for s in self.spans:
            duration = s.end - s.start
            total[s.name] += duration
            covered = summed = 0.0
            lo = hi = None
            for a, b in sorted((max(k.start, s.start), min(k.end, s.end)) for k in children[id(s)]):
                summed += b - a
                if hi is None or a > hi:
                    covered += 0.0 if hi is None else hi - lo
                    lo, hi = a, b
                else:
                    hi = max(hi, b)
            covered += 0.0 if hi is None else hi - lo
            own[s.name] += duration - covered
            overlap += summed - covered
            if s.name == "kernels.count_inversions" and s.parent and s.parent.name == "permstats.count_inversions":
                kernel_in_wrapper += duration
            if s.name.startswith("kernels.simulate"):
                busy += s.cpu
                wait += duration - s.cpu

        def layer_self(layer):
            return sum(t for name, t in own.items() if name.split(".")[0] == layer)

        c = self.counts
        per_pass = {
            "kernels.count_inversions_s": total["kernels.count_inversions"],
            "kernels.multiplier_orbit_s": total["kernels.multiplier_orbit"],
            "kernels.primitive_root_scan_s": total["kernels.primitive_root_scan"],
            "kernels.legendre_symbols_s": total["kernels.legendre_symbols"],
            "kernels.simulate_busy_s": busy,
            "kernels.simulate_wait_s": wait,
            "kernels.draws": c["kernels.draws"],
            "kernels.self_s": layer_self("kernels"),
            "genseq.self_s": layer_self("genseq"),
            "genseq.states": c["genseq.states"],
            "permstats.count_inversions_s": total["permstats.count_inversions"],
            "permstats.report_s": total["permstats.report"],
            "permstats.self_s": layer_self("permstats"),
            "permstats.elements": c["permstats.elements"],
            "modarith.discrete_log_s": total["modarith.discrete_log"],
            "modarith.self_s": layer_self("modarith"),
            "modarith.is_prime_calls": c["modarith.is_prime_calls"],
            "primroots.factorize_s": total["primroots.factorize"],
            "primroots.self_s": layer_self("primroots"),
            "primroots.candidates": c["primroots.candidates"],
            "primroots.roots": c["primroots.roots"],
            "runstats.count_runs_s": total["runstats.count_runs"],
            "runstats.pair_counts_s": total["runstats.pair_counts"],
            "runstats.self_s": layer_self("runstats"),
            "runstats.symbols": c["runstats.symbols"],
            "rng.self_s": layer_self("rng"),
            "rng.swaps": c["rng.swaps"],
            "cli.build_parser_s": total["cli.build_parser"],
            "cli.render_s": total["cli.render"],
            "cli.self_s": own["cli.main"],
            "cli.bytes_out": c["cli.bytes_out"],
            "cli.commands": sum(1 for s in self.spans if s.parent is None),
            "trace.self_sum_s": sum(own.values()),
            "trace.overlap_s": overlap,
        }
        metrics = {name: value / passes for name, value in per_pass.items()}
        metrics["permstats.kernel_share"] = _ratio(kernel_in_wrapper, total["permstats.count_inversions"])
        metrics["primroots.root_yield"] = _ratio(c["primroots.roots"], c["primroots.candidates"])
        return metrics


def _ratio(num, den):
    return num / den if den else 0.0
