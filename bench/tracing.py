"""Spans around the benchmark's calls into the package, and the per-layer
metrics computed from them.

A span is recorded by the benchmark's own code around one call into a public
function of one layer; nothing inside the package is instrumented.  Spans
stay in memory; the runner writes them out when the run ends.  Each layer span's
parent is the span of the job it belongs to.  The replay calls layer
functions one after another, never nested, so a layer span's duration is its
self time.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter

class Tracer:
    """Records spans in memory; `call` times one call into the package."""

    def __init__(self):
        self.origin = perf_counter()
        self.spans: list[dict] = []
        self._job_span: dict | None = None

    def _span(self, name: str, parent: int | None, job: int, start: float) -> dict:
        span = {
            "id": len(self.spans),
            "parent": parent,
            "job": job,
            "name": name,
            "start": start - self.origin,
            "end": None,
        }
        self.spans.append(span)
        return span

    @contextmanager
    def job(self, job_id: int, label: str):
        """Span of one job; the layer spans recorded inside it are its children."""
        span = self._span("job", None, job_id, perf_counter())
        span["label"] = label
        self._job_span = span
        try:
            yield self
        finally:
            span["end"] = perf_counter() - self.origin
            self._job_span = None

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) under a span named `name`; return its result."""
        parent = self._job_span
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            span = self._span(name, parent["id"], parent["job"], start)
            span["end"] = end - self.origin

    def annotate(self, **counts) -> None:
        """Attach counts to the span recorded last."""
        self.spans[-1].update(counts)


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def layer_metrics(
    names,
    spans: list[dict],
    job_seconds: dict[int, float],
    cli_jobs: dict[int, tuple[int, int]],
    traced_wall: float,
    untraced_wall: float,
) -> dict[str, float]:
    """The per-layer metrics `names` from the spans of one traced pass.

    job_seconds maps a job id to its untraced end-to-end time, taken right
    before the job's replay; cli_jobs maps the id of each command-line job to
    (exit code, output bytes) from the untraced calls.
    """
    m = dict.fromkeys(names, 0)
    layer_s_by_job: dict[int, float] = {}
    job_span_s: dict[int, float] = {}
    solver_by_job: dict[int, list[dict]] = {}
    for span in spans:
        name, dur = span["name"], _duration(span)
        if name == "job":
            job_span_s[span["job"]] = dur
            continue
        layer_s_by_job[span["job"]] = layer_s_by_job.get(span["job"], 0.0) + dur
        if name == "solver.feasible":
            solver_by_job.setdefault(span["job"], []).append(span)
            m["solver.nodes"] += span["nodes"]
            m["solver.levels"] += 1
            m["solver.budget_hits"] += span["status"] == "budget_exceeded"
            m["solver.search_s"] += dur
        elif name.startswith("invariants."):
            m["invariants.calls"] += 1
            key = f"{name}_s"
            if key in m:
                m[key] += dur
        elif name == "graphs.build":
            m["graphs.build_calls"] += 1
            m["graphs.build_s"] += dur
            m["graphs.mask_bytes"] += span["n"] * span["n"] / 8
        elif name == "graphs.iso":
            m["graphs.iso_s"] += dur
            m["graphs.iso_pairs"] += span.get("pairs", 0)
        elif name == "coloring.is_tdc":
            m["coloring.is_tdc_calls"] += 1
            m["coloring.is_tdc_s"] += dur
            m["coloring.vertices_checked"] += span["n"]
        elif name == "constructions.construct":
            m["constructions.calls"] += 1
            m["constructions.construct_s"] += dur
        elif name == "formulas.eval":
            m["formulas.evals"] += span.get("evals", 1)
            m["formulas.eval_s"] += dur
        else:
            raise ValueError(f"span {name!r} belongs to no layer")

    for levels in solver_by_job.values():
        infeasible = [s for s in levels if s["status"] == "infeasible"]
        if infeasible:
            last = max(infeasible, key=lambda s: s["k"])
            m["solver.last_infeasible_nodes"] += last["nodes"]
            m["solver.last_infeasible_s"] += _duration(last)
        for s in levels:
            if s["status"] == "feasible":
                m["solver.feasible_level_nodes"] += s["nodes"]
                m["solver.feasible_s"] += _duration(s)
    if m["solver.search_s"]:
        m["solver.node_rate"] = m["solver.nodes"] / m["solver.search_s"]

    for job_id, (code, nbytes) in cli_jobs.items():
        m["cli.main_s"] += job_seconds[job_id]
        m["cli.overhead_s"] += job_seconds[job_id] - layer_s_by_job.get(job_id, 0.0)
        m["cli.output_bytes"] += nbytes
        m["cli.nonzero_exits"] += code != 0
    m["unattributed_s"] = sum(
        secs - layer_s_by_job.get(job_id, 0.0) for job_id, secs in job_seconds.items()
    )
    m["trace.overhead_s"] = sum(
        secs - layer_s_by_job.get(job_id, 0.0) for job_id, secs in job_span_s.items()
    )
    m["trace.gap_s"] = traced_wall - untraced_wall
    if m.keys() != set(names):
        raise KeyError(f"computed metrics not in BENCHMARK.json: {sorted(m.keys() - set(names))}")
    return m


def solver_levels(spans: list[dict], labels: dict[int, str]) -> list[dict]:
    """One record per solver level searched: job, n, k, status, nodes, seconds."""
    return [
        {
            "job": labels[s["job"]],
            "n": s["n"],
            "k": s["k"],
            "status": s["status"],
            "nodes": s["nodes"],
            "seconds": _duration(s),
        }
        for s in spans
        if s["name"] == "solver.feasible"
    ]
