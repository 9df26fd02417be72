#!/usr/bin/env python3
"""Benchmark of the circulant_tdc package, one workload per run.

    python3 bench/run.py --workload exact --seed 1 --seconds 40 --trace 0

Run it from the root of a source checkout: it imports the package from
src/, never from an installed copy, and stops with an error if src/ is
missing.  The workloads (exact, certify, cli-mix) are described in
bench/README.md.

--trace 0 sets up, then repeats the workload's job list until --seconds
would be exceeded by one more pass.  It reports the end-to-end metrics named
in BENCHMARK.json: wall_s (median over passes of the summed job times),
setup_s (median of several set-ups), peak_rss_mb, and job_p50_ms /
job_p90_ms over every job run.  The timed metrics are in reference seconds:
each time is scaled by the machine's speed, sampled on another core while
the jobs run (see speed.py).  The raw times are kept in the record.

--trace 1 runs each job untraced and then, right after it, as a traced
replay of its layer calls, and repeats the job list the same way until
--seconds would be exceeded.  It reports the per-layer metrics named in
BENCHMARK.json, each the median over the repetitions.  Every answer is
checked against pinned values, and the replay's answer must equal the
untraced one.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Lines before it are for people.  A record
with the run's stamp (seed, commit, Python, cores, CPU) is written to
.bench_out/, and a traced run also writes its spans there.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import speed
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SETUP_REPEATS = 21
# no job starts later than this into a run, so a run always ends in time
RUN_TIME_LIMIT_S = 120.0


def forget_package() -> None:
    """Drop circulant_tdc from sys.modules, so that the next import is a fresh one."""
    for name in [m for m in sys.modules if m == "circulant_tdc" or m.startswith("circulant_tdc.")]:
        del sys.modules[name]


def import_package():
    """Import circulant_tdc and its CLI from this checkout's src/."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    api = importlib.import_module("circulant_tdc")
    cli = importlib.import_module("circulant_tdc.cli")
    if Path(api.__file__).resolve().parent != (SRC / "circulant_tdc").resolve():
        raise ImportError(f"circulant_tdc imported from {api.__file__}, not from {SRC}")
    return api, cli


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the "end_to_end" or "per_layer" metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def set_up(workload: str, seed: int, tiny: bool):
    """Import, build the CLI parser and make the job list, SETUP_REPEATS times.

    Returns the last job list and the (start, end) of every set-up.
    """
    intervals, jobs = [], None
    for _ in range(SETUP_REPEATS):
        # every set-up starts fresh, with the previous one's garbage collected
        jobs = None
        forget_package()
        gc.collect()
        started = perf_counter()
        api, cli = import_package()
        cli.build_parser()
        jobs = workloads.build(workload, api, cli, seed, OUT_DIR / "work" / f"{workload}-{seed}", tiny)
        intervals.append((started, perf_counter()))
    return jobs, intervals


@dataclass
class Pass:
    # job id -> (start, end) of its end-to-end call
    intervals: dict[int, tuple[float, float]] = field(default_factory=dict)
    answers: dict[int, object] = field(default_factory=dict)
    cli: dict[int, tuple[int, int]] = field(default_factory=dict)
    failures: list[tuple[str, str]] = field(default_factory=list)

    @property
    def seconds(self) -> dict[int, float]:
        return {job_id: end - start for job_id, (start, end) in self.intervals.items()}

    @property
    def wall(self) -> float:
        return sum(self.seconds.values())


def run_job(job, p: Pass, run_started: float) -> None:
    """The job's end-to-end call, timed, into `p`; its check runs outside the timing."""
    if perf_counter() - run_started > RUN_TIME_LIMIT_S:
        p.failures.append((job.label, "not started: run time limit reached"))
        return
    started = perf_counter()
    try:
        result, error = job.run(), None
    except Exception as exc:  # a job that raises fails; the run goes on
        result, error = None, f"{type(exc).__name__}: {exc}"
    p.intervals[job.id] = (started, perf_counter())
    elapsed = p.intervals[job.id][1] - started
    if error is None:
        try:
            error = job.check(result)
            p.answers[job.id] = job.answer(result)
        except Exception as exc:  # malformed output fails the check
            error = f"check raised {type(exc).__name__}: {exc}"
        if job.cli:
            code, text = result
            p.cli[job.id] = (code, len(text.encode()))
    if error is None and job.cap_s is not None and elapsed > job.cap_s:
        error = f"took {elapsed:.2f} s, over its {job.cap_s:.1f} s bound"
    if error is not None:
        p.failures.append((job.label, error))


def replay_job(job, tr: tracing.Tracer, untraced: Pass, failures: list) -> None:
    """Replay the job's layer calls under spans; compare with its untraced answer."""
    with tr.job(job.id, job.label):
        try:
            composed = job.replay(tr)
        except Exception as exc:  # a replay that raises fails its job
            failures.append((job.label, f"traced replay raised {type(exc).__name__}: {exc}"))
            return
    if job.id in untraced.answers and composed != untraced.answers[job.id]:
        failures.append((job.label, f"traced answer {composed} differs from untraced {untraced.answers[job.id]}"))


def repeat(one_pass, seconds: float) -> list:
    """one_pass(run_started) until one more would overrun `seconds`; at least once."""
    run_started = perf_counter()
    results = []
    while True:
        started = perf_counter()
        results.append(one_pass(run_started))
        elapsed = perf_counter() - run_started
        if elapsed + (perf_counter() - started) > seconds or elapsed > RUN_TIME_LIMIT_S:
            return results


def timed_pass(jobs, run_started: float) -> Pass:
    p = Pass()
    for job in jobs:
        run_job(job, p, run_started)
    return p


@dataclass
class TracedPass:
    untraced: Pass
    tracer: tracing.Tracer
    failures: list[tuple[str, str]]


def traced_pass(jobs, run_started: float) -> TracedPass:
    """Each job untraced and then, right after it, its traced replay.

    Back to back, so that the untraced time and the replay's spans of one job
    see the same machine speed and can be subtracted.
    """
    t = TracedPass(Pass(), tracing.Tracer(), [])
    for job in jobs:
        run_job(job, t.untraced, run_started)
        if job.id in t.untraced.intervals:
            replay_job(job, t.tracer, t.untraced, t.failures)
    t.failures[:0] = t.untraced.failures
    return t


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def stamp(workload: str, seed: int, layer: str) -> dict:
    return {
        "seed": seed,
        "commit": git_commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "workload": workload,
        "layer": layer,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """One run; returns (result line, full record)."""
    with speed.SpeedSampler() as sampler:
        jobs, setup_intervals = set_up(workload, seed, tiny)
        passes = [] if trace else repeat(lambda run_started: timed_pass(jobs, run_started), seconds)
    setup_scaled = [sampler.scaled(*interval) for interval in setup_intervals]
    record = {
        "stamp": stamp(workload, seed, "per_layer" if trace else "end_to_end"),
        "jobs_per_pass": len(jobs),
        "raw_setup_samples_s": [end - start for start, end in setup_intervals],
        "setup_samples_s": setup_scaled,
        "probe_median_s": sampler.median_probe_s(),
    }
    if trace:
        # the traced passes are not sampled, so that their spans are plain times
        reps = repeat(lambda run_started: traced_pass(jobs, run_started), seconds)
        failures = [f for t in reps for f in t.failures]
        attempted = 2 * len(jobs) * len(reps)
        units = metric_units("per_layer")
        per_rep = []
        for t in reps:
            traced_wall = sum(s["end"] - s["start"] for s in t.tracer.spans if s["name"] == "job")
            per_rep.append(
                tracing.layer_metrics(
                    units, t.tracer.spans, t.untraced.seconds, t.untraced.cli, traced_wall, t.untraced.wall
                )
            )
        # counts repeat exactly; times are the (lower) median over repetitions
        values = {name: statistics.median_low(v[name] for v in per_rep) for name in units}
        labels = {job.id: job.label for job in jobs}
        common = {k: record["stamp"][k] for k in ("workload", "python", "nproc")}
        record["solver_levels"] = [
            {**common, "layer": "solver", **level} for level in tracing.solver_levels(reps[0].tracer.spans, labels)
        ]
        record["untraced_walls_s"] = [t.untraced.wall for t in reps]
        record["per_repetition"] = per_rep
        OUT_DIR.mkdir(exist_ok=True)
        with open(OUT_DIR / f"{workload}-seed{seed}-spans.jsonl", "w", encoding="utf-8") as handle:
            for i, t in enumerate(reps):
                for span in t.tracer.spans:
                    handle.write(json.dumps({"repetition": i, **span}) + "\n")
    else:
        units = metric_units("end_to_end")
        failures = [f for p in passes for f in p.failures]
        attempted = len(jobs) * len(passes)
        scaled = [[sampler.scaled(*interval) for interval in p.intervals.values()] for p in passes]
        latencies = [s for pass_times in scaled for s in pass_times]
        walls = [sum(pass_times) for pass_times in scaled]
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup_scaled),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "job_p50_ms": statistics.median(latencies) * 1000,
            "job_p90_ms": statistics.quantiles(latencies, n=10, method="inclusive")[8] * 1000,
        }
        record["pass_walls_s"] = walls
        record["raw_pass_walls_s"] = [p.wall for p in passes]
        record["latency_samples"] = len(latencies)
    record["failures"] = failures
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    record["result"] = result
    return result, record


def report_lines(record: dict) -> list[str]:
    """The human-readable summary printed above the result line."""
    s, result = record["stamp"], record["result"]
    lines = [
        f"workload {s['workload']}  seed {s['seed']}  commit {s['commit']}  python {s['python']}"
        f"  nproc {s['nproc']}  cpu {s['cpu']}",
        f"jobs per pass {record['jobs_per_pass']}",
    ]
    if "pass_walls_s" in record:
        walls = record["pass_walls_s"]
        lines.append(f"passes {len(walls)}: " + " ".join(f"{w:.4f}" for w in walls) + " reference s")
        lines.append("  raw: " + " ".join(f"{w:.4f}" for w in record["raw_pass_walls_s"]) + " s")
        lines.append(f"latency samples {record['latency_samples']} (p90 has {record['latency_samples'] // 10} beyond it)")
    else:
        walls = record["untraced_walls_s"]
        lines.append(f"repetitions {len(walls)}, untraced: " + " ".join(f"{w:.4f}" for w in walls) + " s")
        lines.append("which end-to-end metric each per-layer metric should move: bench/README.md")
        for level in record["solver_levels"]:
            lines.append(
                f"  solver level (first repetition) {level['job']} k={level['k']}: {level['status']}, "
                f"{level['nodes']} nodes, {level['seconds']:.4f} s"
            )
    for name, metric in result["metrics"].items():
        lines.append(f"  {name:<32} {metric['value']:>16.6g} {metric['unit']}")
    attempted, failed = result["attempted"], result["failed"]
    lines.append(f"  {'fail_frac':<32} {failed / attempted:>16.6g} ratio  ({failed} failed / {attempted} attempted)")
    for label, error in record["failures"][:20]:
        lines.append(f"FAILED {label}: {error}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "circulant_tdc" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'circulant_tdc'}; run from a source checkout", file=sys.stderr)
        return 2
    result, record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str))
    for line in report_lines(record):
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
