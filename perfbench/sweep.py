#!/usr/bin/env python3
"""Run the benchmark over several seeds and report how much each metric spreads.

    python3 perfbench/sweep.py --workloads root-cycles monte-carlo --seeds 1-10
    python3 perfbench/sweep.py --seeds 1 --trace 1 --out perfbench/baseline/python-trace.json

Runs `run.py` once per workload and seed, one run at a time, and prints
for every metric the median and the quartiles of its values.  For an
end-to-end metric it also prints the spread, (q3 - q1) / median, beside
its bound in BENCHMARK.json.  Each run's per-command sha256 digests are
compared with the record the previous run of that workload and seed
left in .perfbench/runs/; identical code must reproduce them, and the
sweep exits with code 1 if any differ or a run fails.  --out saves the
summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent
RUNS = ROOT / ".perfbench" / "runs"


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def digests(path: Path) -> dict[str, str]:
    if not path.exists():
        return {}
    return {argv: digest for argv, _, digest, *_ in json.loads(path.read_text())["ops"]}


def summarize(values: list[float]) -> dict:
    q1, _, q3 = quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    mid = median(values)
    return {"median": mid, "q1": q1, "q3": q3, "spread": (q3 - q1) / mid if mid else 0.0,
            "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"), help="e.g. 1-10 or 7")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()

    declared = spec["per_layer" if args.trace else "end_to_end"]
    summary = {"run_seconds": spec["run_seconds"], "trace": args.trace, "seeds": args.seeds, "workloads": {}}
    failures = differing_total = 0
    for workload in args.workloads:
        values = {m["name"]: [] for m in declared}
        compared = differing = 0
        for seed in args.seeds:
            record = RUNS / f"{workload}-seed{seed}-trace{args.trace}.json"
            before = digests(record)
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True)
            result = json.loads(proc.stdout.splitlines()[-1]) if proc.stdout else {}
            if proc.returncode != 0 or not result.get("correct"):
                failures += 1
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
                continue
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            after = digests(record)
            common = before.keys() & after.keys()
            compared += len(common)
            differs = [k for k in common if before[k] != after[k]]
            differing += len(differs)
            for argv in differs[:5]:
                print(f"{workload} seed {seed}: output of `{argv}` differs from the previous run", file=sys.stderr)
            summary.setdefault("provenance", json.loads(record.read_text())["provenance"])
        if not values[declared[0]["name"]]:
            continue
        rows = {}
        print(f"{workload}: {len(args.seeds)} seeds; digests vs previous records: "
              f"{compared} compared, {differing} differ")
        for m in declared:
            row = rows[m["name"]] = summarize(values[m["name"]])
            line = f"  {m['name']:<30} median {row['median']:>12.6g} {m['unit']:<6} " \
                   f"q1 {row['q1']:>12.6g}  q3 {row['q3']:>12.6g}"
            if "bound" in m:
                row["bound"] = m["bound"]
                flag = "ok" if row["spread"] < m["bound"] / 3 else "WIDE" if row["spread"] < m["bound"] else "OVER"
                line += f"  spread {row['spread']:.4f} (bound {m['bound']}) {flag}"
            print(line)
        summary["workloads"][workload] = {"metrics": rows, "digests_compared": compared,
                                          "digests_differing": differing}
        differing_total += differing
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 1 if failures or differing_total else 0


if __name__ == "__main__":
    sys.exit(main())
