#!/usr/bin/env python3
"""Steadiness check: repeat each workload and report the spread of every metric.

    python3 bench/steady.py                  # seeds 1..10
    python3 bench/steady.py --first-seed 101 # seeds 101..110, a second set

For each workload in BENCHMARK.json it runs bench/run.py untraced for
run_seconds once per seed (one process at a time) and prints, per
end-to-end metric, the median, the quartiles and the spread
(q3 - q1) / median, next to the metric's bound.  Quartiles are
statistics.quantiles(values, n=4).  It then runs the traced mode twice at
the first seed, checks that every per-layer count (solver nodes and levels,
invariant calls, ...) is identical in both, and prints the two values of
cli.overhead_s and unattributed_s.

Exits 1 if a run fails its checks, if a spread exceeds its bound, or if a
count differs between the two traced runs.  The target for a steady
benchmark is a spread below a third of the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEEDS = 10


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread_table(workload: str, results: list[dict], bounds: dict) -> tuple[list[str], bool]:
    lines, ok = [], True
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        spread = (q3 - q1) / median
        if spread <= bound / 3:
            verdict = "steady"
        elif spread <= bound:
            verdict = "within bound, above a third of it"
        else:
            verdict = "OVER BOUND"
            ok = False
        lines.append(
            f"  {workload:<8} {name:<12} median {median:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g}"
            f" spread {spread:7.2%}  bound {bound:.0%}  {verdict}"
        )
    return lines, ok


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]

    ok = True
    report = {}
    for workload in (w["name"] for w in spec["workloads"]):
        results = []
        for seed in range(args.first_seed, args.first_seed + SEEDS):
            result = run_once(workload, seed, seconds, 0)
            results.append(result)
            values = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}"
                  f"/{result['attempted']} {values}", flush=True)
            ok &= result["correct"]
        lines, steady = spread_table(workload, results, bounds)
        ok &= steady
        print("\n".join(lines), flush=True)

        traced = [run_once(workload, args.first_seed, seconds, 1) for _ in range(2)]
        differing = [n for n in counts if traced[0]["metrics"][n]["value"] != traced[1]["metrics"][n]["value"]]
        ok &= all(t["correct"] for t in traced) and not differing
        shown = {n: traced[0]["metrics"][n]["value"] for n in counts if n.startswith(("solver.", "invariants."))}
        print(f"  {workload:<8} per-layer counts at seed {args.first_seed}, two traced runs: "
              + ("identical" if not differing else f"DIFFER in {differing}") + f"  {shown}", flush=True)
        for name in ("cli.overhead_s", "unattributed_s"):
            print(f"  {workload:<8} {name} in the two traced runs: "
                  + ", ".join(f"{t['metrics'][name]['value']:.6g}" for t in traced), flush=True)
        report[workload] = {"runs": results, "traced": traced, "counts_differ": differing}

    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps(report, indent=1))
    print("steady" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
