#!/usr/bin/env python3
"""Fast self-test of the benchmark at tiny sizes (a few seconds).

    python3 bench/smoke.py

Checks that every workload, untraced and traced, passes its own checks and
emits a number for every metric BENCHMARK.json names; that a
deliberately wrong pinned value makes jobs fail (failed > 0, so fail_frac
rises); and that the benchmark refuses to run, printing no result, in a
directory that holds only BENCHMARK.json and bench/.  The multi-second
searches are never run here.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from contextlib import contextmanager

import pinned
import run
import workloads


@contextmanager
def patched(name: str, value):
    """Replace pinned.<name> for the duration of the block."""
    original = getattr(pinned, name)
    setattr(pinned, name, value)
    try:
        yield
    finally:
        setattr(pinned, name, original)


def wrong_pins():
    """One deliberately wrong expectation per workload."""
    paper_chi_dt = pinned.paper_chi_dt
    return {
        "exact": patched("NONSTANDARD_EXACT", {**pinned.NONSTANDARD_EXACT, (10, (1, 4)): (5, 3)}),
        "certify": patched("paper_chi_dt", lambda n: paper_chi_dt(n) + (n == 7)),
        "cli-mix": patched("SET_ORACLES", {**pinned.SET_ORACLES, (12, "1,4"): (5, 2, 4)}),
    }


def bare_directory_refuses() -> str | None:
    """Run the command from a copy holding only BENCHMARK.json and bench/."""
    bare = run.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    argv = [sys.executable, "bench/run.py", "--workload", "exact", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=bare, capture_output=True, text=True, timeout=60)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        return f"bare directory: exit {proc.returncode}, stdout {proc.stdout.strip()[:200]!r}"
    return None


def main() -> int:
    problems = []
    for workload in workloads.WORKLOADS:
        for trace in (False, True):
            result, record = run.measure(workload, seed=1, seconds=0, trace=trace, tiny=True)
            where = f"{workload} trace={int(trace)}"
            if not all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()):
                problems.append(f"{where}: a metric value is not a number")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: {result['failed']}/{result['attempted']} failed: {record['failures'][:3]}")
            json.loads(json.dumps(result))
    for workload, wrong in wrong_pins().items():
        with wrong:
            result, _ = run.measure(workload, seed=1, seconds=0, trace=False, tiny=True)
        if result["correct"] or not result["failed"]:
            problems.append(f"{workload}: a wrong pinned value was not caught")
    bare = bare_directory_refuses()
    if bare:
        problems.append(bare)
    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
