"""The benchmark's three workloads.

Each workload is a fixed list of jobs made from the seed.  A job has an
untraced end-to-end call (the path a user takes), a check of that call's
output against the pinned answers, and a replay that makes the same call's
layer calls one by one under spans and composes the same answer from them.

exact    tdc_number_exact on standard graphs, isomorphs and other circulants;
         the solver does ~99% of the work.
certify  the construction checked for every n in a range, large-n spot
         checks, reductions with isomorphism certificates, and the offset
         case split; no search at all.
cli-mix  a shuffled stream of command-line invocations; the oracles do most
         of the work in the tail, and short commands put the CLI's own
         parsing and JSON output into the median.

The seed changes only inputs whose cost varies little (multipliers of the
small isomorphs, the large n within a window of 8, command parameters, the
order of commands), so runs with different seeds measure the same amount of
work.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from pathlib import Path
from typing import Any, Callable

import pinned

# Explicit vertex limits, above the package's default of 24 so that n = 25
# to 33 are searched, and above 40 for the oracle commands.
SOLVER_LIMIT = 40
ORACLE_LIMIT = 48
MAX_NODES = 10**8
# Per-level time budget of the exact-search commands in cli-mix.
CLI_BUDGET_SECONDS = 5.0

WORKLOADS = ("exact", "certify", "cli-mix")


@dataclass
class Job:
    id: int
    label: str
    # end-to-end call, timed untraced
    run: Callable[[], Any]
    # compares run's result with the pinned answer; returns an error or None
    check: Callable[[Any], str | None]
    # reduces run's result to the answer the replay composes
    answer: Callable[[Any], Any]
    # makes the same layer calls under a tracer and composes the answer
    replay: Callable[[Any], Any]
    # whole-job time bound; a job that takes longer counts as failed
    cap_s: float | None = None
    cli: bool = False


def build(workload: str, api, cli, seed: int, workdir: Path, tiny: bool = False) -> list[Job]:
    """The job list of one workload; `tiny` shrinks every size for the smoke test."""
    rng = random.Random(seed)
    if workload == "exact":
        specs = _exact_specs(rng, tiny)
    elif workload == "certify":
        specs = _certify_specs(rng, tiny)
    elif workload == "cli-mix":
        specs = _cli_specs(api, cli, rng, workdir, tiny)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    # a spec is (label, bind, extra Job fields); bind(api, cli) gives the
    # job's run, check, answer and replay, closed over this import of the package
    return [Job(i, label, *bind(api, cli), **extra) for i, (label, bind, extra) in enumerate(specs)]


# ---------------------------------------------------------------------------
# shared pieces


def _is_standard_isomorph(n: int, gens) -> bool:
    if gens is None:
        return True
    a, b = gens
    return gcd(a, n) == 1 and pinned.standard_c(n, a, b) == 3


def _random_reduction(rng: random.Random, n: int) -> tuple[int, int]:
    """(a, b) with gcd(a, n) = 1 and b not +-a, so C_n(a,b) reduces to C_n(1,c), c > 1."""
    a = rng.choice([x for x in range(2, n - 1) if gcd(x, n) == 1])
    b = rng.choice([x for x in range(1, n) if x not in (a, n - a)])
    return a, b


def _build_graph(api, n: int, gens):
    if gens is None:
        return api.standard_circulant(n)
    return api.build_circulant(n, list(gens))


def _traced_build(api, tr, n: int, gens):
    g = tr.call("graphs.build", _build_graph, api, n, gens)
    tr.annotate(n=n)
    return g


def _witness_error(api, g, witness, chi: int) -> str | None:
    if len(witness) != chi:
        return f"witness has {len(witness)} classes, expected {chi}"
    if not api.is_tdc(g, witness).tdc:
        return "witness is not a total dominator coloring"
    return None


def _expected_levels(lower: int, chi: int) -> tuple:
    return tuple((k, "infeasible") for k in range(lower, chi)) + ((chi, "feasible"),)


def _replay_exact(api, tr, g, budget):
    """tdc_number_exact, one public call at a time; returns (chi, levels, nodes)."""
    chromatic = tr.call("invariants.chromatic", api.chromatic_number_oracle, g, limit=SOLVER_LIMIT)
    gamma_t = tr.call(
        "invariants.gamma_t", api.total_domination_number_oracle, g, limit=SOLVER_LIMIT
    )
    lower = max(chromatic.oracle, gamma_t.oracle)
    upper = None
    if api.is_standard_13(g) and g.n >= 6:
        plan = tr.call("constructions.construct", api.construct_tdc, g.n)
        report = tr.call("coloring.is_tdc", api.is_tdc, g, plan.coloring)
        tr.annotate(n=g.n)
        if not report.tdc:
            raise RuntimeError(f"construction for n={g.n} is not a TDC")
        upper = len(plan.coloring)
    levels, nodes = [], 0
    for k in range(lower, g.n + 1):
        if k == upper:
            levels.append((k, "feasible"))
            return k, tuple(levels), nodes
        outcome = tr.call("solver.feasible", api.tdc_feasible, g, k, budget)
        tr.annotate(n=g.n, k=k, status=outcome.status, nodes=outcome.nodes_explored)
        levels.append((k, outcome.status))
        nodes += outcome.nodes_explored
        if outcome.status == "budget_exceeded":
            return None, tuple(levels), nodes
        if outcome.status == "feasible":
            tr.call("coloring.is_tdc", api.is_tdc, g, outcome.coloring)
            tr.annotate(n=g.n)
            return k, tuple(levels), nodes
    raise RuntimeError("no feasible level up to n")


# ---------------------------------------------------------------------------
# exact

# (n, generators or None for C_n(1,3), estimated seconds on a 2-core Xeon).
# n = 27 (5.5 s in one call) is left out, so that a pass stays near 7 s and
# a 40 s run holds five or more passes; n = 28 and 33 stand in for it.
EXACT_FIXED = [
    (18, None, 0.01),
    (19, None, 0.2),
    (20, None, 0.1),
    (25, None, 0.2),
    (28, None, 1.3),
    (33, None, 1.5),
    (25, (4, 12), 1.1),
    (19, (2, 6), 0.35),
    (20, (1, 4), 0.4),
    (22, (1, 4), 0.8),
    (23, (1, 4), 0.3),
]
EXACT_FIXED_TINY = [(12, None, 0.01), (13, None, 0.01), (10, (1, 4), 0.01), (11, (1, 4), 0.01)]
# C_n(a,3a) with the multiplier a drawn from the seed.  The multipliers
# listed give searches of about the same cost (0.16 to 0.2 s), so the seed
# changes the graphs but not the amount of work.  Both jobs sort below the
# median of the 13 jobs.  An odd job count puts job_p50_ms in the middle of
# one fixed job's samples, C_23(1,4), not at the edge between two jobs, where
# it would be an extreme sample; job_p90_ms lies among the samples of the
# three largest jobs.
EXACT_SEEDED = {21: (4, 10), 23: (4, 9, 10)}
EXACT_SEEDED_TINY = {11: (2, 3, 4, 5), 13: (2, 4, 5, 6)}


def _exact_specs(rng: random.Random, tiny: bool):
    graphs = list(EXACT_FIXED_TINY if tiny else EXACT_FIXED)
    for n, multipliers in (EXACT_SEEDED_TINY if tiny else EXACT_SEEDED).items():
        a = rng.choice(multipliers)
        graphs.append((n, (a, 3 * a), 0.2))
    return [_exact_job(n, gens, est) for n, gens, est in graphs]


def _exact_job(n: int, gens, est_s: float):
    if _is_standard_isomorph(n, gens):
        chi, lower = pinned.chi_dt(n), pinned.standard_lower_bound(n)
    else:
        chi, lower = pinned.NONSTANDARD_EXACT[(n, gens)]
    cap_s = max(2.0, 8 * est_s)
    label = f"C_{n}(1,3)" if gens is None else f"C_{n}{gens}".replace(" ", "")

    def bind(api, cli):
        # the whole-job cap split over the levels the search visits, because
        # the package's budget applies per level
        budget = api.SearchBudget(max_nodes=MAX_NODES, max_seconds=cap_s / (chi - lower + 1))

        def run():
            g = _build_graph(api, n, gens)
            return g, api.tdc_number_exact(g, budget=budget, limit=SOLVER_LIMIT)

        def check(result):
            g, outcome = result
            if outcome.chi_dt != chi:
                return f"chi_dt {outcome.chi_dt}, expected {chi}"
            if tuple(outcome.levels) != _expected_levels(lower, chi):
                return f"levels {outcome.levels}, expected from {lower} to {chi}"
            return _witness_error(api, g, outcome.witness, chi)

        def answer(result):
            _, outcome = result
            return outcome.chi_dt, tuple(outcome.levels), outcome.nodes_explored

        def replay(tr):
            return _replay_exact(api, tr, _traced_build(api, tr, n, gens), budget)

        return run, check, answer, replay

    return label, bind, {"cap_s": cap_s}


# ---------------------------------------------------------------------------
# certify


def _offset_scan(api, lo: int, hi: int):
    """The offset case split over lo..hi-1: (inconsistent n, sum of the rest)."""
    inconsistent, total = [], 0
    for n in range(lo, hi):
        try:
            total += api.tdc_total_domination_offset(n)
        except api.FormulaConsistencyError:
            inconsistent.append(n)
    return tuple(inconsistent), total


def _certify_specs(rng: random.Random, tiny: bool):
    top = 60 if tiny else 1500
    large = (500, 700) if tiny else (30000, 40000)
    red_lo, red_hi = (30, 60) if tiny else (380, 400)
    offset_to, chunk = (10**4, 10**3) if tiny else (10**6, 10**4)

    specs = [_verify_job(n) for n in range(6, top + 1)]
    # 8 consecutive n cover every residue branch of the construction
    specs += [_verify_job(base + rng.randrange(8)) for base in large]
    for _ in range(8):
        n = rng.randint(red_lo, red_hi)
        specs.append(_reduction_job(n, *_random_reduction(rng, n)))
    specs += [_offset_job(lo, min(lo + chunk, offset_to + 1)) for lo in range(6, offset_to + 1, chunk)]
    return specs


def _verify_job(n: int):
    expected = pinned.paper_chi_dt(n)

    def bind(api, cli):
        def run():
            return api.verify_construction(n)

        def check(verdict):
            if verdict.num_classes != expected or verdict.expected_classes != expected:
                return f"{verdict.num_classes} classes (formula {verdict.expected_classes}), expected {expected}"
            if not (verdict.report.tdc and verdict.ok):
                return "construction is not a total dominator coloring"
            return None

        def answer(verdict):
            return verdict.ok, verdict.num_classes

        def replay(tr):
            plan = tr.call("constructions.construct", api.construct_tdc, n)
            g = _traced_build(api, tr, n, None)
            report = tr.call("coloring.is_tdc", api.is_tdc, g, plan.coloring)
            tr.annotate(n=n)
            formula = tr.call("formulas.eval", api.formula_tdc, n)
            return report.tdc and len(plan.coloring) == formula, len(plan.coloring)

        return run, check, answer, replay

    return f"verify {n}", bind, {}


def _reduce_and_certify(api, tr, n: int, a: int, b: int):
    reduction = tr.call("graphs.iso", api.reduce_to_standard, n, a, b)
    g1 = _traced_build(api, tr, n, (a, b))
    g2 = _traced_build(api, tr, n, (1, reduction.standard_c))
    certified = tr.call("graphs.iso", api.verify_isomorphism, g1, g2, reduction.vertex_map)
    tr.annotate(pairs=n * (n - 1) // 2)
    return reduction.standard_c, certified


class _Untraced:
    """Stands in for the tracer on the untraced path: calls straight through."""

    @staticmethod
    def call(name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    @staticmethod
    def annotate(**counts):
        pass


def _reduction_job(n: int, a: int, b: int):
    expected = (pinned.standard_c(n, a, b), True)

    def bind(api, cli):
        def run():
            return _reduce_and_certify(api, _Untraced, n, a, b)

        def check(result):
            return None if result == expected else f"(c, certified) = {result}, expected {expected}"

        def replay(tr):
            return _reduce_and_certify(api, tr, n, a, b)

        return run, check, (lambda result: result), replay

    return f"reduce {n} {a} {b}", bind, {}


@lru_cache(maxsize=None)
def _expected_offsets(lo: int, hi: int):
    """Pinned (inconsistent n, sum of the case split over the rest) for lo..hi-1.

    Computed on first use, not during set-up, so set-up time measures the
    package and not the benchmark's own expectations.
    """
    bad = tuple(sorted(n for n in pinned.OFFSET_INCONSISTENT if lo <= n < hi))
    return bad, sum(pinned.paper_offset(n) for n in range(lo, hi) if n not in bad)


def _offset_job(lo: int, hi: int):
    def bind(api, cli):
        def check(result):
            expected = _expected_offsets(lo, hi)
            return None if result == expected else f"(inconsistent, sum) = {result}, expected {expected}"

        def replay(tr):
            result = tr.call("formulas.eval", _offset_scan, api, lo, hi)
            tr.annotate(evals=hi - lo)
            return result

        return (lambda: _offset_scan(api, lo, hi)), check, (lambda result: result), replay

    return f"offset {lo}..{hi - 1}", bind, {}


# ---------------------------------------------------------------------------
# cli-mix

INVARIANT_NAMES = ("independence", "open_packing", "total_domination")
# oracle runs on C_n(1,3) and on other connection sets: the slow tail
CLI_STANDARD_N = range(28, 41)
CLI_STANDARD_N_TINY = range(10, 13)
CLI_SETS = [
    (32, "1,2"), (32, "2,3"), (36, "1,4"), (36, "1,5"),
    (36, "2,5"), (40, "1,4"), (40, "1,5"), (40, "1,4,6"),
]
CLI_SETS_TINY = [(12, "1,4"), (13, "1,5")]
# how many short commands of each kind one pass sends
CLI_COUNTS = {"construct": 20, "chidt": 20, "exact": 10, "reduce": 20, "bad": 2, "file": 8}
CLI_COUNTS_TINY = {"construct": 2, "chidt": 2, "exact": 2, "reduce": 2, "bad": 1, "file": 1}


def _run_cli(cli, argv: list[str]):
    out = io.StringIO()
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv, out=out)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def _claims(text: str) -> dict:
    payload = json.loads(text)
    return {(c["quantity"], c["source"]): c for c in payload["results"][0]["claims"]}


def _cli_job(argv, expected_code: int, want: dict | None, answer, replay, extra_check=None):
    """A command with its pinned exit code and pinned claims {(quantity, source): value}.

    answer(claims) and replay(api, tr) are given for commands that print
    JSON; a command expected to fail prints nothing and answers "error".
    """
    argv = [str(x) for x in argv]

    def bind(api, cli):
        def run():
            return _run_cli(cli, argv)

        def check(result):
            code, text = result
            if code != expected_code:
                return f"exit code {code}, expected {expected_code}"
            if want is None:
                return None if not text else "unexpected output"
            claims = _claims(text)
            for key, value in want.items():
                got = claims.get(key, {}).get("value")
                if got != value:
                    return f"{key[0]} [{key[1]}] = {got}, expected {value}"
            return extra_check(api, claims) if extra_check else None

        def answer_of(result):
            code, text = result
            return "error" if want is None else answer(_claims(text))

        return run, check, answer_of, (lambda tr: replay(api, tr))

    return " ".join(argv), bind, {"cli": True}


def _invariants_cmd(n: int, conn: str | None):
    truth = pinned.SET_ORACLES[(n, conn)] if conn else pinned.standard_oracles(n)
    want = {(name, "oracle"): v for name, v in zip(INVARIANT_NAMES, truth)}
    code = pinned.EXIT_OK
    if conn is None:
        paper = (pinned.paper_alpha(n), pinned.paper_rho(n), pinned.paper_gamma_t(n))
        want.update({(name, "formula"): v for name, v in zip(INVARIANT_NAMES, paper)})
        if paper != truth:
            code = pinned.EXIT_DISAGREE
    gens = None if conn is None else tuple(int(x) for x in conn.split(","))
    argv = ["invariants", n, "--oracle", "--json", "--limit", ORACLE_LIMIT]
    if conn:
        argv += ["--set", conn]

    def replay(api, tr):
        g = _traced_build(api, tr, n, gens)
        if conn is None:
            for fn in (
                api.independence_number_formula,
                api.open_packing_number_formula,
                api.total_domination_number_formula,
            ):
                tr.call("invariants.closed_form", fn, n)
        return tuple(
            tr.call(name, fn, g, limit=ORACLE_LIMIT).oracle
            for name, fn in (
                ("invariants.alpha", api.independence_number_oracle),
                ("invariants.rho", api.open_packing_number_oracle),
                ("invariants.gamma_t", api.total_domination_number_oracle),
            )
        )

    def answer(claims):
        return tuple(claims[(name, "oracle")]["value"] for name in INVARIANT_NAMES)

    return _cli_job(argv, code, want, answer, replay)


def _chidt_construct_cmd(n: int):
    value = pinned.paper_chi_dt(n)
    want = {("chi_dt", "formula"): value, ("chi_dt", "construction"): value}

    def replay(api, tr):
        formula = tr.call("formulas.eval", api.formula_tdc, n)
        plan = tr.call("constructions.construct", api.construct_tdc, n)
        g = _traced_build(api, tr, n, None)
        report = tr.call("coloring.is_tdc", api.is_tdc, g, plan.coloring)
        tr.annotate(n=n)
        return formula, len(plan.coloring), report.tdc

    def answer(claims):
        built = claims[("chi_dt", "construction")]
        return claims[("chi_dt", "formula")]["value"], built["value"], built["tdc"]

    def tdc_claimed(api, claims):
        return None if claims[("chi_dt", "construction")]["tdc"] else "construction not a TDC"

    return _cli_job(["chidt", n, "--construct", "--json"], pinned.EXIT_OK, want, answer, replay, tdc_claimed)


def _chidt_exact_cmd(n: int, gens):
    chi, formula = pinned.chi_dt(n), pinned.paper_chi_dt(n)
    want = {("chi_dt", "formula"): formula, ("chi_dt", "exact-search"): chi}
    code = pinned.EXIT_OK if chi == formula else pinned.EXIT_DISAGREE
    argv = ["chidt", n, *(gens or ()), "--exact", "--json", "--limit", SOLVER_LIMIT]
    argv += ["--budget-nodes", MAX_NODES, "--budget-seconds", CLI_BUDGET_SECONDS]

    def replay(api, tr):
        if gens is None:
            value = tr.call("formulas.eval", api.formula_tdc, n)
        else:
            tr.call("graphs.iso", api.reduce_to_standard, n, *gens)
            value = tr.call("formulas.eval", api.formula_tdc_general, n, *gens)
        g = _traced_build(api, tr, n, gens)
        budget = api.SearchBudget(max_nodes=MAX_NODES, max_seconds=CLI_BUDGET_SECONDS)
        found, _, nodes = _replay_exact(api, tr, g, budget)
        return value, found, nodes

    def answer(claims):
        search = claims[("chi_dt", "exact-search")]
        return claims[("chi_dt", "formula")]["value"], search["value"], search["nodes"]

    def witness_ok(api, claims):
        witness = api.Coloring.from_classes(n, claims[("chi_dt", "exact-search")]["witness"])
        return _witness_error(api, _build_graph(api, n, gens), witness, chi)

    return _cli_job(argv, code, want, answer, replay, witness_ok)


def _reduce_cmd(n: int, a: int, b: int):
    want = {("standard_c", "formula"): pinned.standard_c(n, a, b), ("isomorphism_certified", "oracle"): True}

    def answer(claims):
        return claims[("standard_c", "formula")]["value"], claims[("isomorphism_certified", "oracle")]["value"]

    def replay(api, tr):
        return _reduce_and_certify(api, tr, n, a, b)

    return _cli_job(["reduce", n, a, b, "--json"], pinned.EXIT_OK, want, answer, replay)


def _reduce_rejected_cmd(n: int, a: int, b: int):
    def replay(api, tr):
        try:
            tr.call("graphs.iso", api.reduce_to_standard, n, a, b)
        except api.GraphConstructionError:
            return "error"
        return "accepted"

    return _cli_job(["reduce", n, a, b, "--json"], pinned.EXIT_INPUT, None, None, replay)


def _construct_cmd(n: int):
    value = pinned.paper_chi_dt(n)
    want = {("num_classes", "construction"): value, ("chi_dt", "formula"): value, ("tdc", "construction"): True}

    def replay(api, tr):
        plan = tr.call("constructions.construct", api.construct_tdc, n)
        g = _traced_build(api, tr, n, None)
        report = tr.call("coloring.is_tdc", api.is_tdc, g, plan.coloring)
        tr.annotate(n=n)
        tr.call("formulas.eval", api.formula_tdc, n)
        return len(plan.coloring), report.tdc

    def answer(claims):
        return claims[("num_classes", "construction")]["value"], claims[("tdc", "construction")]["value"]

    return _cli_job(["construct", n, "--json"], pinned.EXIT_OK, want, answer, replay)


def _verify_file_cmd(n: int, path: Path, coloring, tdc: bool):
    """verify-coloring on a file written during set-up; `coloring` is its parsed form."""
    if coloring is None:
        def replay(api, tr):
            _traced_build(api, tr, n, None)
            return "error"

        return _cli_job(["verify-coloring", n, path, "--json"], pinned.EXIT_INPUT, None, None, replay)

    want = {("proper", "oracle"): True, ("tdc", "oracle"): tdc, ("num_classes", "oracle"): len(coloring)}

    def replay(api, tr):
        g = _traced_build(api, tr, n, None)
        report = tr.call("coloring.is_tdc", api.is_tdc, g, coloring)
        tr.annotate(n=n)
        return report.proper, report.tdc, len(coloring)

    def answer(claims):
        return tuple(claims[(q, "oracle")]["value"] for q in ("proper", "tdc", "num_classes"))

    return _cli_job(["verify-coloring", n, path, "--json"], pinned.EXIT_OK, want, answer, replay)


def _write_coloring_files(api, rng: random.Random, workdir: Path, count: int):
    """Coloring files in both accepted formats, plus non-TDC and malformed ones."""
    workdir.mkdir(parents=True, exist_ok=True)
    specs = []
    for i in range(2 * count):
        n = rng.randint(290, 310)
        classes = api.construct_tdc(n).coloring.as_lists()
        if i % 2:
            path = workdir / f"construction-{i}.txt"
            path.write_text("\n".join(" ".join(map(str, c)) for c in classes) + "\n")
        else:
            path = workdir / f"construction-{i}.json"
            path.write_text(json.dumps(classes))
        specs.append((n, path, api.Coloring.from_classes(n, classes), True))
    for i in range(max(1, count // 4)):
        # odd/even bipartition: proper on C_n(1,3) for even n, but classes
        # this large have empty common neighborhoods
        n = 2 * rng.randint(145, 155)
        classes = [list(range(1, n + 1, 2)), list(range(2, n + 1, 2))]
        path = workdir / f"bipartition-{i}.json"
        path.write_text(json.dumps(classes))
        specs.append((n, path, api.Coloring.from_classes(n, classes), False))
        path = workdir / f"malformed-{i}.json"
        path.write_text("[[1, 3, 5], [2, 4")
        specs.append((n, path, None, False))
    return specs


def _cli_specs(api, cli, rng: random.Random, workdir: Path, tiny: bool):
    counts = CLI_COUNTS_TINY if tiny else CLI_COUNTS
    # narrow windows keep the cost of the short commands, and so job_p50_ms,
    # nearly the same for every seed
    lo, hi = (20, 40) if tiny else (290, 310)
    red_lo, red_hi = (12, 30) if tiny else (110, 130)
    specs = [_invariants_cmd(n, None) for n in (CLI_STANDARD_N_TINY if tiny else CLI_STANDARD_N)]
    specs += [_invariants_cmd(n, conn) for n, conn in (CLI_SETS_TINY if tiny else CLI_SETS)]
    # the known discrepancies at n = 4 (open packing) and n = 18 (chi_dt),
    # and the largest C_n(2,6) search
    specs += [_invariants_cmd(4, None), _chidt_exact_cmd(18, None), _chidt_exact_cmd(21, (2, 6))]
    specs += [_construct_cmd(rng.randint(lo, hi)) for _ in range(counts["construct"])]
    specs += [_chidt_construct_cmd(rng.randint(lo, hi)) for _ in range(counts["chidt"])]
    specs += [_chidt_exact_cmd((7, 9, 11, 13, 15, 17)[i % 6], (2, 6)) for i in range(counts["exact"])]
    for _ in range(counts["reduce"]):
        n = rng.randint(red_lo, red_hi)
        specs.append(_reduce_cmd(n, *_random_reduction(rng, n)))
    for _ in range(counts["bad"]):
        n = 2 * rng.randint(red_lo // 2, red_hi // 2)
        specs.append(_reduce_rejected_cmd(n, 2, 2 * rng.randint(2, n // 2 - 1) + 1))
    specs += [_verify_file_cmd(*spec) for spec in _write_coloring_files(api, rng, workdir, counts["file"])]
    rng.shuffle(specs)
    return specs
