"""Command-line front end: every analysis as a subcommand.

Output is CSV by default (header row, `#`-prefixed footer comments for
summary statistics), JSON via --format json, and a self-contained SVG
for the histogram/scatter commands.  Simulations take --seed (default a
fixed constant, so casual runs are reproducible) and --workers, which
also fixes the stream partition; identical argv always produces
byte-identical output.

Exit codes: 0 success, 1 invalid arguments, 2 domain error (for example
a composite modulus), 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import enum
import io
import json
import sys
from csv import writer as csv_writer
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

from . import __version__
from .genseq import lcg_orbit, generator_cycle, square_cycle
from .modarith import discrete_log, legendre_euler, sqrt_mod
from .permstats import (
    SimConfig,
    SimReport,
    inversion_null_moments,
    inversion_summary,
    simulate_inversions,
)
from .primroots import euler_phi, primitive_roots, smallest_primitive_root
from .rng import RNG_ALGORITHM
from .runstats import (
    aladov_predicted,
    count_runs,
    legendre_pair_counts,
    legendre_sequence,
    runs_null_moments,
    scan_runs,
    simulate_runs,
)

__all__ = ["ExitStatus", "emit_csv", "emit_svg_histogram", "main"]

#: The config-file keys, each with its built-in value.  The seed is fixed so
#: bare invocations are already reproducible; `scan` is the prime count of
#: `scan` given neither --count nor --p-max.
DEFAULTS = {"iterations": 10_000, "seed": 0x5EED, "workers": 1, "scan": 200, "precision": 6}


class ExitStatus(enum.IntEnum):
    OK = 0
    USAGE = 1
    DOMAIN = 2
    INTERNAL = 3


class UsageError(Exception):
    """Bad flags or flag combinations; maps to exit code 1."""


@dataclass
class CommandResult:
    """Uniform hand-off from a subcommand to the emitters."""

    inputs: dict
    header: list[str]
    rows: Sequence[tuple]  # cells are int or str; --precision formats footers
    footers: dict = field(default_factory=dict)
    chart: Callable[[], bytes] | None = None  # draws the SVG; None: no SVG


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as exit code 1, not 2."""

    def error(self, message):
        raise UsageError(message)


def _fmt(x, precision: int) -> str:
    """Render a number: integers exactly, everything else as a decimal
    with `precision` digits, trailing zeros after the point stripped."""
    if isinstance(x, int):
        return str(x)
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return str(x.numerator)
        x = float(x)
    if isinstance(x, float):
        # A double's exact decimal expansion ends within 1074 places after
        # the point, so more digits are zeros that the strip below removes.
        s = f"{x:.{min(precision, 1074)}f}"
        if "." in s:  # at precision 0 every digit counts
            s = s.rstrip("0").rstrip(".")
        return "0" if s == "-0" else s  # a value that rounds to zero has no sign
    return str(x)


def emit_csv(rows, header, footers=None, precision: int = DEFAULTS["precision"]) -> bytes:
    """RFC-4180-style CSV: header first, `\\n` endings, `#` footer comments.

    Row cells are ints or strings and go through csv.writer as they are;
    only the footers are numbers that `precision` formats.
    """
    arity = len(header)
    for row in rows:
        if len(row) != arity:
            raise RuntimeError(
                f"row arity {len(row)} does not match header arity {arity}: {row!r}"
            )
    buf = io.StringIO()
    w = csv_writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    for key, value in (footers or {}).items():
        buf.write(f"# {key}={_fmt(value, precision)}\n")
    return buf.getvalue().encode("utf-8")


def _json_default(v):
    """The json.dumps hook for what JSON has no type for: Fractions."""
    if isinstance(v, Fraction):
        return v.numerator if v.denominator == 1 else float(v)
    raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")


def emit_json(result: CommandResult) -> bytes:
    payload = {
        "inputs": result.inputs,
        "outputs": {
            "columns": result.header,
            "rows": result.rows,
            "summary": result.footers,
        },
        "provenance": {
            "seed": result.inputs.get("seed"),
            "rng_algorithm": RNG_ALGORITHM,
            "version": __version__,
        },
    }
    return (json.dumps(payload, indent=2, default=_json_default) + "\n").encode("utf-8")


#: The plot box of every chart: left, top, right and bottom edges.
_PLOT = (64, 40, 780, 370)


def _svg_doc(body: list[str], title: str, xlabel: str, ylabel: str) -> bytes:
    width, height = 800, 420
    x0, y0, x1, y1 = _PLOT
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="monospace" font-size="12">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<text x="{(x0 + x1) / 2:.1f}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<line x1="{x0}" y1="{y1}" x2="{x1}" y2="{y1}" stroke="black"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>',
        f'<text x="{(x0 + x1) / 2:.1f}" y="{height - 8}" text-anchor="middle">{xlabel}</text>',
        f'<text x="16" y="{(y0 + y1) / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {(y0 + y1) / 2:.1f})">{ylabel}</text>',
    ]
    parts.extend(body)
    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode("utf-8")


def _axis_ticks(parts, x0, y0, x1, y1, vmin, vmax, cmax, to_x):
    for v in sorted({vmin, (vmin + vmax) // 2, vmax}):
        x = to_x(v)
        parts.append(f'<line x1="{x:.2f}" y1="{y1}" x2="{x:.2f}" y2="{y1 + 4}" stroke="black"/>')
        parts.append(f'<text x="{x:.2f}" y="{y1 + 18}" text-anchor="middle">{v}</text>')
    for c in sorted({0, cmax}):
        y = y1 - (y1 - y0) * (c / cmax if cmax else 0)
        parts.append(f'<text x="{x0 - 6}" y="{y + 4:.2f}" text-anchor="end">{c}</text>')


def emit_svg_histogram(report: SimReport, title: str, xlabel: str) -> bytes:
    """Self-contained SVG bar chart of an exact-value histogram."""
    hist = report.histogram
    if not hist:
        raise ValueError("cannot render an empty histogram")
    x0, y0, x1, y1 = _PLOT
    vmin, vmax = min(hist), max(hist)
    span = vmax - vmin + 1
    cmax = max(hist.values())
    bar_w = (x1 - x0) / span
    body = []
    for v in range(vmin, vmax + 1):
        c = hist.get(v, 0)
        if c == 0:
            continue
        h = (y1 - y0) * c / cmax
        left = x0 + (v - vmin) * bar_w
        body.append(
            f'<rect x="{left:.2f}" y="{y1 - h:.2f}" width="{bar_w:.2f}" '
            f'height="{h:.2f}" fill="steelblue"/>'
        )
    _axis_ticks(body, x0, y0, x1, y1, vmin, vmax, cmax, lambda v: x0 + (v - vmin + 0.5) * bar_w)
    return _svg_doc(body, title, xlabel, "count")


def emit_svg_scatter(rows, title: str, xlabel: str, ylabel: str) -> bytes:
    """Self-contained SVG scatter plot of (x, y) integer pairs."""
    if not rows:
        raise ValueError("cannot render an empty scatter")
    x0, y0, x1, y1 = _PLOT
    xs = [r[0] for r in rows]
    ys = [r[1] for r in rows]
    vmin, vmax = min(xs), max(xs)
    cmax = max(ys)
    xspan = max(vmax - vmin, 1)

    def to_x(v):
        return x0 + (x1 - x0) * (v - vmin) / xspan

    body = []
    for x, y in rows:
        py = y1 - (y1 - y0) * y / cmax
        body.append(f'<circle cx="{to_x(x):.2f}" cy="{py:.2f}" r="2.5" fill="steelblue"/>')
    _axis_ticks(body, x0, y0, x1, y1, vmin, vmax, cmax, to_x)
    return _svg_doc(body, title, xlabel, ylabel)


def _write(data: bytes, destination: str | None) -> None:
    if destination is None:
        buffer = getattr(sys.stdout, "buffer", None)
        if buffer is not None:
            buffer.write(data)
            buffer.flush()
        else:
            sys.stdout.write(data.decode("utf-8"))
    else:
        Path(destination).write_bytes(data)


# ---------------------------------------------------------------------------
# subcommand bodies (plain parameters so `repro` can reuse them)


def _res_legendre(p: int) -> CommandResult:
    seq = legendre_sequence(p)
    return CommandResult(
        inputs={"command": "legendre", "p": p},
        header=["a", "symbol"],
        rows=list(enumerate(seq, start=1)),
        footers={"n_plus": seq.count(1), "n_minus": seq.count(-1)},
    )


def _res_primroots(p: int) -> CommandResult:
    roots = primitive_roots(p)
    return CommandResult(
        inputs={"command": "primroots", "p": p},
        header=["g"],
        rows=[(g,) for g in roots],
        footers={"count": len(roots), "euler_phi_p_minus_1": euler_phi(p - 1)},
    )


def _orbit_result(inputs: dict, states, footer_key: str) -> CommandResult:
    return CommandResult(
        inputs=inputs,
        header=["index", "value"],
        rows=list(enumerate(states)),
        footers={footer_key: len(states)},
    )


def _res_cycle(p: int, g: int) -> CommandResult:
    return _orbit_result({"command": "cycle", "p": p, "g": g}, generator_cycle(g, p).states, "period")


def _res_squares(p: int, g: int | None) -> CommandResult:
    if g is None:
        values = [a for a, s in enumerate(legendre_sequence(p), start=1) if s == 1]
        return CommandResult(
            inputs={"command": "squares", "p": p, "g": None},
            header=["value"],
            rows=[(v,) for v in values],
            footers={"count": len(values)},
        )
    return _orbit_result({"command": "squares", "p": p, "g": g}, square_cycle(g, p).states, "count")


def _res_period(m: int, a: int) -> CommandResult:
    return _orbit_result({"command": "period", "m": m, "a": a}, lcg_orbit(a, m).states, "period")


def _res_inversions(p: int) -> CommandResult:
    summary = inversion_summary(p)
    return CommandResult(
        inputs={"command": "inversions", "p": p},
        header=["g", "inversions"],
        rows=summary.per_root,
        footers={
            "sample_mean": summary.sample_mean,
            "sample_sd": summary.sample_sd,
            "theory_mean": summary.theory_mean,
            "theory_sd": summary.theory_sd,
        },
    )


def _sim_result(command: str, p: int, seed: int, iterations: int, workers: int) -> CommandResult:
    """The histogram of `sim-inversions` or `sim-runs` and its null moments."""
    config = SimConfig(seed=seed, iterations=iterations, streams=workers)
    if command == "sim-inversions":
        report = simulate_inversions(p, config, workers=workers)
        mean, var = inversion_null_moments(p)
        label, null, title = "inversions", "theory", "random fixed-cycle inversions"
    else:
        report = simulate_runs(p, config, workers=workers)
        mean, var = runs_null_moments((p - 1) // 2, (p - 1) // 2)
        label, null, title = "runs", "null", "runs of shuffled balanced sequences"
    title += f": p={p}, iterations={iterations}, seed={seed}"
    return CommandResult(
        inputs={"command": command, "p": p, "iterations": iterations, "seed": seed, "workers": workers},
        header=[label, "count"],
        rows=list(report.histogram.items()),
        footers={
            "sample_mean": report.sample_mean,
            "sample_sd": report.sample_sd,
            "iterations": iterations,
            "seed": seed,
            "streams": workers,
            "rng_algorithm": config.rng_algorithm,
            f"{null}_mean": mean,
            f"{null}_sd": float(var) ** 0.5,
        },
        chart=lambda: emit_svg_histogram(report, title, label),
    )


def _res_runs(p: int) -> CommandResult:
    runs = legendre_pair_counts(p).runs
    return CommandResult(
        inputs={"command": "runs", "p": p},
        header=["p", "n_plus", "n_minus", "runs", "expected_runs"],
        rows=[(p, (p - 1) // 2, (p - 1) // 2, runs, (p + 1) // 2)],
    )


def _res_pairs(p: int) -> CommandResult:
    observed = legendre_pair_counts(p)
    predicted = aladov_predicted(p)
    return CommandResult(
        inputs={"command": "pairs", "p": p},
        header=["kind", "npp", "npm", "nmp", "nmm"],
        rows=[("observed",) + observed.as_tuple(),
              ("predicted",) + predicted.as_tuple()],
        footers={"total": observed.total},
    )


def _res_scan(count: int | None, p_max: int | None) -> CommandResult:
    scan = scan_runs(count=count, p_max=p_max)
    title = f"Legendre-sequence runs for {len(scan)} odd primes"
    return CommandResult(
        inputs={"command": "scan", "count": count, "p_max": p_max},
        header=["p", "runs"],
        rows=scan,
        footers={"primes": len(scan)},
        chart=lambda: emit_svg_scatter(scan, title, "p", "runs"),
    )


def _res_dlog(p: int, g: int, a: int) -> CommandResult:
    return CommandResult(
        inputs={"command": "dlog", "p": p, "g": g, "a": a},
        header=["p", "g", "a", "discrete_log"],
        rows=[(p, g, a, discrete_log(g, a, p))],
    )


def _res_sqrt(p: int, a: int, g: int | None) -> CommandResult:
    if g is None:
        g = smallest_primitive_root(p)
    root = sqrt_mod(a, p, g)
    return CommandResult(
        inputs={"command": "sqrt", "p": p, "a": a, "g": g},
        header=["p", "a", "g", "root", "symbol"],
        rows=[(p, a, g, "" if root is None else root, int(legendre_euler(a, p)))],
    )


# ---------------------------------------------------------------------------
# repro: regenerate the full set of canonical artifacts as named CSV/SVG files


def _res_repro(out_dir: str, iterations: int, seed: int, precision: int) -> CommandResult:
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    inversion_hist = _sim_result("sim-inversions", 29, seed, iterations, workers=1)
    runs_hist = _sim_result("sim-runs", 97, seed, iterations, workers=1)
    artifacts: list[tuple[str, CommandResult]] = [
        ("orbit_m8191_a1904.csv", _res_period(8191, 1904)),
        ("primitive_roots_p29.csv", _res_primroots(29)),
        ("inversion_counts_p29.csv", _res_inversions(29)),
        ("inversion_hist_p29.csv", inversion_hist),
        ("inversion_hist_p29.svg", inversion_hist),
        ("runs_hist_p97.csv", runs_hist),
        ("runs_hist_p97.svg", runs_hist),
        ("legendre_small_primes.csv", _res_small_prime_table()),
        ("runs_scan_200.csv", _res_scan(DEFAULTS["scan"], None)),
    ]
    manifest = []
    for name, result in artifacts:
        path = directory / name
        fmt = path.suffix[1:]
        _write(_render(result, fmt, precision), str(path))
        label = result.inputs["command"] + ("-svg" if fmt == "svg" else "")
        manifest.append((label, str(path), len(result.rows)))
    return CommandResult(
        inputs={"command": "repro", "out_dir": out_dir, "iterations": iterations, "seed": seed},
        header=["artifact", "path", "rows"],
        rows=manifest,
    )


def _res_small_prime_table() -> CommandResult:
    rows = []
    for p in (3, 5, 7, 11, 13, 17, 19):
        seq = legendre_sequence(p)
        rows.append((p, count_runs(seq), " ".join(str(s) for s in seq)))
    return CommandResult(
        inputs={"command": "legendre-table"},
        header=["p", "runs", "symbols"],
        rows=rows,
    )


# ---------------------------------------------------------------------------
# the command table: build_parser and main read every subcommand from here


class Command(NamedTuple):
    """One subcommand: its help line, its flags, the handler that turns the
    parsed args into a CommandResult, and whether those args draw an SVG."""

    help: str
    flags: list
    handler: Callable[[argparse.Namespace], CommandResult]
    chart: Callable[[argparse.Namespace], bool] = lambda a: False


# A flag is an (option, add_argument kwargs) pair; a ([flags], kwargs) pair
# is a mutually exclusive group.  Every command also takes _OUTPUT_FLAGS.
_OUTPUT_FLAGS = [
    ("--format", {"choices": ["csv", "json", "svg"], "default": "csv"}),
    ("--out", {"help": "write to this file instead of stdout"}),
    ("--precision", {"type": int,
                     "help": f"decimal digits for non-integer numbers (default {DEFAULTS['precision']})"}),
    ("--config", {"help": "key=value file with defaults for iterations/seed/workers/scan/precision"}),
]
_DRAW_FLAGS = [
    ("--iterations", {"type": int, "help": f"Monte Carlo draws (default {DEFAULTS['iterations']})"}),
    ("--seed", {"type": int, "help": f"64-bit seed (default {DEFAULTS['seed']})"}),
]
_SIM_FLAGS = _DRAW_FLAGS + [
    ("--workers", {"type": int,
                   "help": f"stream count and thread pool size (default {DEFAULTS['workers']})"}),
]
_P = ("--p", {"type": int, "required": True})
_G = ("--g", {"type": int, "required": True})
_A = ("--a", {"type": int, "required": True})


# Handlers call the result builders from inside lambdas, so the name is
# looked up when the command runs and a patched or wrapped function is used.
COMMANDS: dict[str, Command] = {
    "legendre": Command("Legendre symbols (a/p) for a = 1..p-1", [_P],
                        lambda a: _res_legendre(a.p)),
    "primroots": Command("primitive roots of p, ascending", [_P],
                         lambda a: _res_primroots(a.p)),
    "cycle": Command("the full cycle (1, g, g^2, ...) mod p", [_P, _G],
                     lambda a: _res_cycle(a.p, a.g)),
    "squares": Command("nonzero squares mod p (sorted, or in g^2-walk order)", [_P, ("--g", {"type": int})],
                       lambda a: _res_squares(a.p, a.g)),
    "period": Command("orbit of 1 under x -> a*x mod m, with its period",
                      [("--m", {"type": int, "required": True}), _A],
                      lambda a: _res_period(a.m, a.a)),
    "inversions": Command("inversion counts of every primitive-root cycle of p", [_P],
                          lambda a: _res_inversions(a.p)),
    "sim-inversions": Command("Monte Carlo inversion counts of random fixed cycles", [_P, *_SIM_FLAGS],
                              lambda a: _sim_result("sim-inversions", a.p, a.seed, a.iterations, a.workers),
                              chart=lambda a: True),
    # `runs --scan N` is an alias of `scan --count N`, scatter plot included
    "runs": Command("runs of the Legendre sequence of p (or --scan N primes)",
                    [([("--p", {"type": int}), ("--scan", {"type": int, "metavar": "COUNT"})],
                      {"required": True})],
                    lambda a: _res_runs(a.p) if a.scan is None else _res_scan(a.scan, None),
                    chart=lambda a: a.scan is not None),
    "pairs": Command("observed vs predicted overlapping-pair counts for p", [_P],
                     lambda a: _res_pairs(a.p)),
    "sim-runs": Command("Monte Carlo run counts of shuffled balanced sequences", [_P, *_SIM_FLAGS],
                        lambda a: _sim_result("sim-runs", a.p, a.seed, a.iterations, a.workers),
                        chart=lambda a: True),
    "scan": Command("runs of the Legendre sequence over many primes",
                    [([("--count", {"type": int, "help": "first COUNT odd primes"}),
                       ("--p-max", {"type": int, "help": "all odd primes <= P_MAX"})],
                      {})],
                    lambda a: _res_scan(a.count, a.p_max),
                    chart=lambda a: True),
    "dlog": Command("discrete logarithm: the l with g^l = a (mod p)", [_P, _G, _A],
                    lambda a: _res_dlog(a.p, a.g, a.a)),
    "sqrt": Command("modular square root of a (mod p), via discrete log",
                    [_P, _A, ("--g", {"type": int, "help": "primitive root to use (default: smallest)"})],
                    lambda a: _res_sqrt(a.p, a.a, a.g)),
    "repro": Command("write every canonical analysis to named CSV/SVG files",
                     [("--out-dir", {"default": "repro-out"}), *_DRAW_FLAGS],
                     lambda a: _res_repro(a.out_dir, a.iterations, a.seed, a.precision)),
}


def _add_flags(parser: _Parser, name: str) -> None:
    """Declare subcommand `name`'s flags on `parser`, and its name and handler
    as defaults."""
    command = COMMANDS[name]
    for option, kwargs in _OUTPUT_FLAGS + command.flags:
        if isinstance(option, str):
            parser.add_argument(option, **kwargs)
        else:
            group = parser.add_mutually_exclusive_group(**kwargs)
            for member, member_kwargs in option:
                group.add_argument(member, **member_kwargs)
    parser.set_defaults(command=name, handler=command.handler)


def build_parser(name: str | None = None) -> _Parser:
    """The parser of subcommand `name`, for the arguments after the name.

    It is the parser the full table holds for that name (same prog, help
    and defaults), without the top-level parser around it.  For any other
    `name` (None, a flag, an unknown word) it is the full table: the
    top-level parser with `--version` and a subparser per command, so
    top-level help and errors list every command.
    """
    if name in COMMANDS:
        parser = _Parser(prog=f"modsquares {name}")
        _add_flags(parser, name)
        return parser
    parser = _Parser(prog="modsquares", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    for command_name, command in COMMANDS.items():
        _add_flags(subs.add_parser(command_name, help=command.help), command_name)
    return parser


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    values = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep or key not in DEFAULTS:
            raise UsageError(f"{path}:{lineno}: expected 'key=value' with key in {sorted(DEFAULTS)}")
        try:
            values[key] = int(value.strip())
        except ValueError:
            raise UsageError(f"{path}:{lineno}: value for {key} must be an integer") from None
    return values


#: The least and the greatest value each flag accepts (None: no bound),
#: whether set on the command line or filled in from the config file or
#: DEFAULTS.  `count` is scan's --count (config key `scan`), `scan` is
#: runs's --scan.
_BOUNDS = {
    "precision": (0, None),
    "iterations": (1, None),
    "seed": (0, (1 << 64) - 1),
    "workers": (1, None),
    "count": (1, None),
    "scan": (1, None),
}


def _resolve(args) -> None:
    """Fill unset flags from the config file, then from DEFAULTS, and check
    them all before any work is done."""
    values = {**DEFAULTS, **_load_config(args.config)}
    for name in ("precision", "iterations", "seed", "workers"):
        if hasattr(args, name) and getattr(args, name) is None:
            setattr(args, name, values[name])
    if hasattr(args, "p_max") and args.count is None and args.p_max is None:
        args.count = values["scan"]
    for name, (least, greatest) in _BOUNDS.items():
        value = getattr(args, name, None)  # None: not a flag of this command, or unset
        if value is not None and value < least:
            raise UsageError(f"--{name} must be >= {least}")
        if value is not None and greatest is not None and value > greatest:
            raise UsageError(f"--{name} must be <= {greatest}")


def _render(result: CommandResult, fmt: str, precision: int) -> bytes:
    if fmt == "csv":
        return emit_csv(result.rows, result.header, result.footers, precision)
    if fmt == "json":
        return emit_json(result)
    return result.chart()


def main(argv: list[str] | None = None) -> int:
    """Parse argv, run one subcommand, write its output; returns the exit code."""
    if argv is None:
        argv = sys.argv[1:]
    # A named subcommand needs only its own parser, which reads the rest of
    # argv; anything else (no argv, a flag, an unknown name) gets the full
    # table for help and errors.
    name = argv[0] if argv and argv[0] in COMMANDS else None
    parser = build_parser(name)
    try:
        args = parser.parse_args(argv[1:] if name else argv)
        _resolve(args)
        if args.format == "svg" and not COMMANDS[args.command].chart(args):
            # refused before any work is done
            raise UsageError("--format svg is only valid for histogram or scatter commands, "
                             f"not {args.command!r}")
        result = args.handler(args)
        _write(_render(result, args.format, args.precision), args.out)
    except (UsageError, OSError) as exc:  # OSError: an unwritable --out/--out-dir
        print(f"error: {exc}", file=sys.stderr)
        return int(ExitStatus.USAGE)
    except SystemExit as exc:  # --help / --version
        code = exc.code
        return int(code) if isinstance(code, int) else 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return int(ExitStatus.DOMAIN)
    except MemoryError:
        print("error: out of memory; try a smaller input", file=sys.stderr)
        return int(ExitStatus.DOMAIN)
    except (RuntimeError, AssertionError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return int(ExitStatus.INTERNAL)
    return int(ExitStatus.OK)


if __name__ == "__main__":
    sys.exit(main())
