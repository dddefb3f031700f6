"""Independent correctness checks on each command's output bytes.

`check(op, data)` returns None when the output is right and a one-line
reason otherwise.  Every check recomputes its facts with `arith` or a
closed form, never with the package under test.
"""

from __future__ import annotations

import math
import random
import xml.etree.ElementTree as ET
from fractions import Fraction

from arith import count_inversions, is_generator, prime_factors, primes_between, totient


def _csv(data: bytes):
    """(rows, footers) of the CLI's CSV: header, rows, `# key=value` lines."""
    lines = data.decode().splitlines()
    rows = [line.split(",") for line in lines[1:] if not line.startswith("#")]
    footers = dict(line[2:].split("=", 1) for line in lines[1:] if line.startswith("# "))
    return rows, footers


def _inversions(op, data):
    p = op.int_flag("--p")
    rows, _ = _csv(data)
    factors = prime_factors(p - 1)
    roots = [g for g in range(2, p) if is_generator(g, p, factors)]
    if [int(g) for g, _ in rows] != roots:
        return f"g column is not the {len(roots)} primitive roots of {p} in order"
    counts = [int(c) for _, c in rows]
    if Fraction(sum(counts), len(counts)) != Fraction((p - 2) * (p - 3), 4):
        return "sample mean differs from (p-2)(p-3)/4"
    for i in random.Random(p).sample(range(len(roots)), min(3, len(roots))):
        g, cycle = roots[i], [1]
        while len(cycle) < p - 1:
            cycle.append(cycle[-1] * g % p)
        if counts[i] != count_inversions(cycle):
            return f"root {g}: {counts[i]} inversions, a merge count gives {count_inversions(cycle)}"
    return None


def _primroots(op, data):
    p = op.int_flag("--p")
    roots = [int(r[0]) for r in _csv(data)[0]]
    if len(roots) != totient(p - 1):
        return f"{len(roots)} roots, expected phi(p-1) = {totient(p - 1)}"
    factors = prime_factors(p - 1)
    if roots != sorted(set(roots)) or not all(is_generator(g, p, factors) for g in roots):
        return "a listed root fails the order test or the list is not ascending"
    return None


def _sqrt(op, data):
    p, a = op.int_flag("--p"), op.int_flag("--a")
    (row,), _ = _csv(data)
    root, euler = row[3], pow(a, (p - 1) // 2, p)
    if root == "":
        return None if euler == p - 1 else "no root reported for a square"
    return None if euler == 1 and int(root) ** 2 % p == a % p else f"root {root} squares wrong"


def _runs(op, data):
    p = op.int_flag("--p")
    (row,), _ = _csv(data)
    return None if [int(v) for v in row] == [p, (p - 1) // 2, (p - 1) // 2, (p + 1) // 2, (p + 1) // 2] \
        else f"runs row {row} breaks runs = (p+1)/2"


def _aladov(p):
    if p % 4 == 1:
        q = (p - 1) // 4
        return [(p - 5) // 4, q, q, q]
    q = (p - 3) // 4
    return [q, (p + 1) // 4, q, q]


def _pairs(op, data):
    p = op.int_flag("--p")
    rows, _ = _csv(data)
    want = [["observed"] + _aladov(p), ["predicted"] + _aladov(p)]
    got = [[r[0]] + [int(v) for v in r[1:]] for r in rows]
    return None if got == want else f"pair counts {got} differ from Aladov's {_aladov(p)}"


def _scan(op, data):
    count = op.int_flag("--count")
    rows, footers = _csv(data)
    primes = primes_between(3, 10_000)[:count]
    if [int(p) for p, _ in rows] != primes or int(footers["primes"]) != count:
        return f"scan rows are not the first {count} odd primes"
    return None if all(int(r) == (int(p) + 1) // 2 for p, r in rows) else "runs != (p+1)/2"


def _svg_histogram(data: bytes) -> dict[int, int]:
    """Exact histogram read back from the bar chart.

    Uses the renderer's plot box (x from 64 to 780, bars up to 330 px
    tall, tick labels 18 px below the axis); bar heights carry two
    decimals, enough to recover every count below 33000 exactly.
    """
    svg = ET.fromstring(data)
    ns = "{http://www.w3.org/2000/svg}"
    texts = list(svg.iter(ns + "text"))
    ticks = [int(t.text) for t in texts if t.get("y") == "388"]
    cmax = max(int(t.text) for t in texts if t.get("x") == "58")
    vmin, vmax = min(ticks), max(ticks)
    bar_w = (780 - 64) / (vmax - vmin + 1)
    hist = {}
    for rect in svg.iter(ns + "rect"):
        if rect.get("fill") == "steelblue":
            v = vmin + round((float(rect.get("x")) - 64) / bar_w)
            hist[v] = round(float(rect.get("height")) * cmax / 330)
    return hist


def _simulation(op, data):
    p, n = op.int_flag("--p"), op.int_flag("--iterations")
    if op.ext == "svg":
        hist = _svg_histogram(data)
    else:
        hist = {int(v): int(c) for v, c in _csv(data)[0]}
    if op.kind == "sim-inversions":
        mean = Fraction((p - 2) * (p - 3), 4)
        var = Fraction((p - 2) * (p - 3) * (2 * p + 1), 72)
    else:
        a = (p - 1) // 2
        mean = Fraction(a + 1)
        var = Fraction(2 * a * a * (2 * a * a - 2 * a), (2 * a) ** 2 * (2 * a - 1))
    if sum(hist.values()) != n:
        return f"histogram sums to {sum(hist.values())}, not {n}"
    sample = Fraction(sum(v * c for v, c in hist.items()), n)
    if abs(sample - mean) > 6 * math.sqrt(var / n):
        return f"sample mean {float(sample):.3f} is beyond 6 sigma/sqrt(n) of {float(mean)}"
    return None


def _sd_pvalue(op, data):
    value, n = float(data), op.int_flag("--iterations")
    return None if 0 <= value <= 1 and round(value * n) / n == value else f"p-value {value} is not k/iterations"


_CHECKS = {
    "inversions": _inversions,
    "primroots": _primroots,
    "sqrt": _sqrt,
    "runs": _runs,
    "pairs": _pairs,
    "scan": _scan,
    "sim-inversions": _simulation,
    "sim-runs": _simulation,
    "sd_pvalue": _sd_pvalue,
}


def check(op, data: bytes) -> str | None:
    try:
        return _CHECKS[op.kind](op, data)
    except (ValueError, KeyError, IndexError, ET.ParseError) as exc:
        return f"unreadable output: {exc!r}"
