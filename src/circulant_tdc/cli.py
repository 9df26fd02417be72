"""Command-line front door.

Commands: chidt, sweep, invariants, verify-coloring, construct, reduce,
table.  A command hands a RunReport its results, claims and rows, and prints
nothing; RunReport.render alone lays them out and main writes them: human
text by default, --csv rows (sweep, table), or with --json the one envelope
{version, command, inputs, results, summary} of every command, with results
in increasing n (table's rows are its results, and its summary adds rows and
offset_inconsistencies).  The envelope is one compact line, which
`python -m json.tool` indents for reading.
Every numeric claim carries a source tag: "formula", "construction",
"oracle" or "exact-search".  An input error prints one "error:" line on
stderr and nothing on stdout.

Exit codes: 0 when everything agrees, 1 for usage or input errors (including
exhausted budgets and oracle refusals on commands that need them), 2 when a
mathematical disagreement between sources was detected.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import time
from dataclasses import dataclass, field

from .coloring import Coloring, ColoringError, _common_neighbors, is_tdc
from .constructions import verify_construction
from .formulas import (
    TABLE_COLUMNS,
    formula_rows,
    formula_tdc,
    independence_number_formula,
    open_packing_number_formula,
    total_domination_number_formula,
)
from .graphs import (
    CirculantGraph,
    GraphConstructionError,
    build_circulant,
    is_standard_13,
    reduce_either_order,
    reduce_to_standard,
    standard_circulant,
    verify_isomorphism,
)
from .solver import (
    BudgetExceededError,
    OracleLimitError,
    SearchBudget,
    independence_number_oracle,
    open_packing_number_oracle,
    tdc_number_exact,
    total_domination_number_oracle,
)

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_DISAGREE = 2


@dataclass
class RunReport:
    """What one command found; render turns it into text, CSV or JSON lines.

    `add` starts a result; `claim` and `stop` write to the newest one.  Each
    tuple in `rows` has a value per name in `columns`, None for an empty
    cell: --csv prints them, and so do text (tab-separated) and JSON (one
    object per row) when there are no results.  `text` replaces the claim
    listing for a command with its own layout, `summary` adds keys to the
    JSON summary, and `bracket` records a search stopped by its budget.
    """

    command: str
    inputs: dict
    results: list[dict] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    disagreements: int = 0
    agreements: int = 0
    bracket: list[int] | None = None
    text: list[str] = field(default_factory=list)
    columns: tuple[str, ...] = ()
    rows: list[tuple] = field(default_factory=list)
    summary: dict = field(default_factory=dict)

    def add(self, n: int, header: str | None = None, **fields) -> dict:
        result = {"n": n, "header": f"n={n}" if header is None else header, **fields}
        self.results.append(result)
        return result

    def claim(self, quantity: str, value, source: str, **extra) -> None:
        entry = {"quantity": quantity, "value": value, "source": source, **extra}
        self.results[-1].setdefault("claims", []).append(entry)

    def mark(self, agree: bool) -> None:
        if agree:
            self.agreements += 1
        else:
            self.disagreements += 1

    def stop(self, exc: BudgetExceededError, where: str = "") -> None:
        """Record a search stopped by its budget: the bracket, and a note naming it."""
        self.bracket = self.results[-1]["bracket"] = [exc.lower, exc.upper]
        self.notes.append(f"{where}budget exceeded: exact value bracketed in {self.bracket}")

    @property
    def exit_code(self) -> int:
        if self.bracket is not None:
            return EXIT_INPUT
        return EXIT_DISAGREE if self.disagreements else EXIT_OK

    def _table(self, sep: str) -> list[str]:
        cells = (sep.join("" if v is None else str(v) for v in row) for row in self.rows)
        return [sep.join(self.columns), *cells]

    def render(self, fmt: str, started: float) -> list[str]:
        """The output lines in "text", "csv" or "json"; `started` is when the run began.

        Results are listed in the order they were added, which is
        increasing n: every command adds its results in that order.
        """
        if fmt == "csv":
            return self._table(",")
        if fmt == "json":
            summary = {
                "agreements": self.agreements,
                "disagreements": self.disagreements,
                "notes": self.notes,
                "elapsed_seconds": round(time.monotonic() - started, 6),
                **self.summary,
            }
            results = self.results or [dict(zip(self.columns, row)) for row in self.rows]
            envelope = {"version": SCHEMA_VERSION, "command": self.command, "inputs": self.inputs}
            # one line: json.dumps without indent runs in the C encoder
            return [json.dumps({**envelope, "results": results, "summary": summary})]
        if self.text:
            return self.text
        if not self.results:
            return self._table("\t")
        lines = []
        for result in self.results:
            lines.append(result["header"])
            for claim in result.get("claims", []):
                extras = {
                    k: v for k, v in claim.items() if k not in ("quantity", "value", "source")
                }
                suffix = f"  {extras}" if extras else ""
                lines.append(
                    f"  {claim['quantity']:<24} {claim['value']!s:<12} [{claim['source']}]{suffix}"
                )
        lines += [f"note: {note}" for note in self.notes]
        lines.append(
            f"summary: {self.agreements} agreement(s), {self.disagreements} disagreement(s)"
        )
        return lines


def integer(token: str) -> int:
    """The integer that `token` spells as -?[0-9]+, else a ValueError naming it.

    int() would also read "+3", "0_3" and non-ASCII digits.  As an argparse
    type, a bad value reads "invalid integer value: '+3'".
    """
    if not re.fullmatch(r"-?[0-9]+", token):
        raise ValueError(f"{token!r} is not an integer")
    return int(token)


def decimal(token: str) -> float:
    """The finite number that `token` spells as -?[0-9]+(.[0-9]+)?, else a ValueError naming it.

    float() would also read "inf", "1e-3", "+3", "0_3", " 5" and non-ASCII
    digits, and it turns a token of 309 or more digits into inf.
    """
    if not re.fullmatch(r"-?[0-9]+(\.[0-9]+)?", token):
        raise ValueError(f"{token!r} is not a decimal number")
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"{token!r} is too large to be a finite number")
    return value


def _pair(args) -> tuple[int, int] | None:
    """The optional generators a b of the graph arguments: both or neither."""
    if (args.a is None) != (args.b is None):
        raise ValueError("give both a and b, or neither")
    return None if args.a is None else (args.a, args.b)


def _build_graph(n: int, pair: tuple[int, int] | None, conn: str | None = None) -> CirculantGraph:
    """n alone -> standard graph; n a b -> C_n(a,b); --set -> arbitrary circulant."""
    if conn is not None:
        if pair is not None:
            raise ValueError("give either a b or --set, not both")
        return build_circulant(n, [integer(tok) for tok in conn.replace(",", " ").split()])
    return standard_circulant(n) if pair is None else build_circulant(n, list(pair))


def _check_exact(report, graph, formula_value, where="", **search):
    """tdc_number_exact(graph, **search), marked against the formula.

    Returns the SearchOutcome, or None after a budget stop, which the report
    records on its newest result with `where` as the prefix of its note.
    """
    try:
        outcome = tdc_number_exact(graph, **search)
    except BudgetExceededError as exc:
        report.stop(exc, where)
        return None
    report.mark(outcome.chi_dt == formula_value)
    return outcome


# ---------------------------------------------------------------------------
# commands


def _cmd_chidt(args) -> RunReport:
    n, pair = args.n, _pair(args)
    # built before any work, so that a bad budget is an error with or without --exact
    budget = SearchBudget(max_nodes=args.budget_nodes, max_seconds=decimal(args.budget_seconds))
    report = RunReport(
        "chidt",
        {"n": n, "a": args.a, "b": args.b, "exact": args.exact, "construct": args.construct},
    )
    result = report.add(n)

    reduction = None
    if pair is not None:
        reduction = reduce_either_order(n, *pair)
        result["reduction"] = {
            "standard_c": reduction.standard_c,
            "congruence": reduction.congruence,
            "a_inverse": reduction.a_inverse,
        }
        report.notes.append(
            f"C_{n}({args.a},{args.b}) reduces to C_{n}(1,{reduction.standard_c}) "
            f"via x -> {reduction.a_inverse}x mod {n} ({reduction.congruence} congruence)"
        )
    formula_value = formula_tdc(n)
    if n == 6:
        report.notes.append("n=6 is covered by the standard-graph statement only")
    report.claim("chi_dt", formula_value, "formula")

    if args.construct:
        verdict = verify_construction(n, reduction)
        report.mark(verdict.ok)
        tdc, classes = verdict.report.tdc, verdict.coloring.as_lists()
        report.claim("chi_dt", len(classes), "construction", tdc=tdc, classes=classes)

    if args.exact:
        graph = _build_graph(n, pair)
        outcome = _check_exact(report, graph, formula_value, budget=budget, limit=args.limit)
        if outcome is not None:
            report.claim(
                "chi_dt",
                outcome.chi_dt,
                "exact-search",
                lower_bound=outcome.lower_bound_used,
                lower_bound_source=outcome.lower_bound_source,
                upper_bound=outcome.upper_bound_used,
                upper_bound_source=outcome.upper_bound_source,
                nodes=outcome.nodes_explored,
                witness=outcome.witness.as_lists(),
            )
    return report


def _cmd_sweep(args) -> RunReport:
    if args.n_to < args.n_from:
        raise ValueError(f"empty range {args.n_from}..{args.n_to}")
    inputs = {"n_from": args.n_from, "n_to": args.n_to, "exact_up_to": args.exact_up_to}
    columns = ("n", "chi_dt_formula", "construction_classes", "construction_tdc", "exact", "agree")
    report = RunReport("sweep", inputs, columns=columns)
    for n in range(args.n_from, args.n_to + 1):
        formula_value = formula_tdc(n)
        report.add(n)
        report.claim("chi_dt", formula_value, "formula")
        verdict = verify_construction(n)
        ok, tdc, classes = verdict.ok, verdict.report.tdc, verdict.num_classes
        # release the plan, coloring and report before the next n is built
        del verdict
        report.mark(ok)
        report.claim("chi_dt", classes, "construction", tdc=tdc)
        agree, exact = ok, None
        if args.exact_up_to is not None and n <= args.exact_up_to:
            graph = standard_circulant(n)
            outcome = _check_exact(report, graph, formula_value, f"n={n}: ", limit=args.exact_up_to)
            if outcome is None:
                break
            exact = outcome.chi_dt
            report.claim("chi_dt", exact, "exact-search")
            agree = agree and exact == formula_value
        report.rows.append((n, formula_value, classes, tdc, exact, agree))
    return report


_INVARIANTS = (
    ("independence", independence_number_formula, independence_number_oracle),
    ("open_packing", open_packing_number_formula, open_packing_number_oracle),
    ("total_domination", total_domination_number_formula, total_domination_number_oracle),
)


def _cmd_invariants(args) -> RunReport:
    """Oracle values, and the paper's closed forms where they apply.

    A closed form is claimed, and an oracle value marked against it, only
    for the standard distance-{1,3} graph and only where the form gives a
    value: below its least n it raises ValueError.
    """
    n = args.n
    report = RunReport("invariants", {"n": n, "oracle": args.oracle, "set": args.set})
    report.add(n)
    graph = _build_graph(n, None, args.set)

    claimed = {}
    if is_standard_13(graph):
        for name, formula, _ in _INVARIANTS:
            try:
                claimed[name] = formula(n)
            except ValueError:
                continue
            report.claim(name, claimed[name], "formula")

    if args.oracle:
        for name, _, oracle in _INVARIANTS:
            try:
                inv = oracle(graph, limit=args.limit)
            except OracleLimitError as exc:
                report.notes.append(f"{name}: {exc}")
                continue
            report.claim(name, inv.oracle, "oracle", witness=list(inv.witness))
            if name in claimed:
                report.mark(inv.oracle == claimed[name])
    return report


def _reject_repeats(labels: list[int], where: str) -> None:
    seen: set[int] = set()
    for v in labels:
        if v in seen:
            raise ColoringError(f"{where}: label {v} repeats within the class")
        seen.add(v)


def parse_coloring_file(text: str, n: int) -> Coloring:
    """Parse a coloring file: JSON array of arrays, or one class per line.

    A label repeated within one class is an error here, since a class is a
    set and would silently drop the repeat.  A JSON class is walked for a
    label that is not an int, then for a repeat.  A text line of ASCII
    digits is read with builtins, any other token by token to name its fault.
    """
    stripped = text.lstrip()
    if stripped.startswith("["):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ColoringError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
        if not isinstance(data, list) or not all(isinstance(c, list) for c in data):
            raise ColoringError("expected a JSON array of arrays of vertex labels")
        for idx, cls in enumerate(data, start=1):
            # bool is an int subclass, but true is not a vertex label
            bad = [v for v in cls if type(v) is not int]
            if bad:
                raise ColoringError(f"class {idx}: label {json.dumps(bad[0])} is not an integer")
            _reject_repeats(cls, f"class {idx}")
        return Coloring.from_classes(n, data)
    classes = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        try:
            # ASCII digits alone spell -?[0-9]+ without the sign
            if line.isascii() and all(map(str.isdigit, tokens)):
                labels = list(map(int, tokens))
            else:
                labels = [integer(tok) for tok in tokens]
        except ValueError as exc:
            raise ColoringError(f"line {lineno}: label {exc}") from None
        _reject_repeats(labels, f"line {lineno}")
        classes.append(labels)
    return Coloring.from_classes(n, classes)


def _cmd_verify_coloring(args) -> RunReport:
    graph = _build_graph(args.n, _pair(args), args.set)
    with open(args.coloring_file, encoding="utf-8") as handle:
        text = handle.read()
    try:
        coloring = parse_coloring_file(text, graph.n)
    except ColoringError as exc:
        raise ColoringError(f"{args.coloring_file}: {exc}") from exc
    tdc_report = is_tdc(graph, coloring)
    report = RunReport("verify-coloring", {"n": graph.n, "coloring_file": args.coloring_file})
    report.add(graph.n)
    report.claim("proper", tdc_report.proper, "oracle")
    report.claim("tdc", tdc_report.tdc, "oracle")
    report.claim("num_classes", len(coloring), "oracle")
    if tdc_report.uncovered:
        report.claim("uncovered", list(tdc_report.uncovered), "oracle")
    # each class is listed once, as its CN claim; the classes of as_lists()
    # are ascending and in 1..n, so none is checked again
    n, offsets = graph.n, graph.offsets
    offset_set = frozenset(offsets)
    for members in coloring.as_lists():
        cn = sorted(_common_neighbors(n, offsets, offset_set, members))
        report.claim(f"CN{members}", cn, "oracle", size=len(members))
    return report


def _cmd_construct(args) -> RunReport:
    n = args.n
    report = RunReport("construct", {"n": n})
    verdict = verify_construction(n)
    report.mark(verdict.ok)
    plan, classes = verdict.plan, verdict.coloring.as_lists()
    listing = {"n": n, "k": plan.k, "residue": plan.residue, "packing": sorted(plan.packing)}
    report.add(n, plan={**listing, "num_classes": verdict.num_classes, "classes": classes})
    report.claim("num_classes", verdict.num_classes, "construction")
    report.claim("chi_dt", verdict.expected_classes, "formula")
    report.claim("tdc", verdict.report.tdc, "construction")
    report.text = [
        f"n={n}  classes ({verdict.num_classes}):",
        *("  {" + ", ".join(map(str, cls)) + "}" for cls in classes),
        f"tdc={verdict.report.tdc}  expected_classes={verdict.expected_classes}  ok={verdict.ok}",
    ]
    return report


def _cmd_reduce(args) -> RunReport:
    n, a, b = args.n, args.a, args.b
    reduction = reduce_to_standard(n, a, b)
    report = RunReport("reduce", {"n": n, "a": a, "b": b})
    report.add(
        n,
        f"C_{n}({a},{b})",
        reduction={
            "a_inverse": reduction.a_inverse,
            "raw_c": reduction.raw_c,
            "standard_c": reduction.standard_c,
            "congruence": reduction.congruence,
            "vertex_map": {str(k): v for k, v in sorted(reduction.vertex_map.items())},
        },
    )
    report.claim("standard_c", reduction.standard_c, "formula")
    try:
        g1 = build_circulant(n, [a, b])
        g2 = build_circulant(n, [1, reduction.standard_c])
        certified = verify_isomorphism(g1, g2, reduction.vertex_map)
        report.claim("isomorphism_certified", certified, "oracle")
        report.mark(certified)
    except GraphConstructionError as exc:
        report.notes.append(f"certificate skipped (degenerate connection set): {exc}")
    return report


def _cmd_table(args) -> RunReport:
    rows = formula_rows(args.n_from, args.n_to)
    report = RunReport(
        "table", {"n_from": args.n_from, "n_to": args.n_to}, columns=TABLE_COLUMNS, rows=rows
    )
    report.summary = {
        "rows": len(rows),
        "offset_inconsistencies": sum(1 for row in rows if not row[-1]),
    }
    return report


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    # usage errors exit 1; code 2 is reserved for mathematical disagreements
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="circulant-tdc",
        description="compute and verify total dominator colorings of circulant graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--json", action="store_true")
    graph = argparse.ArgumentParser(add_help=False)
    graph.add_argument("n", type=integer)
    graph.add_argument("a", type=integer, nargs="?", default=None)
    graph.add_argument("b", type=integer, nargs="?", default=None)
    span = argparse.ArgumentParser(add_help=False)
    span.add_argument("n_from", type=integer)
    span.add_argument("n_to", type=integer)
    span.add_argument("--csv", action="store_true")

    def command(name, func, help, *parents):
        p = sub.add_parser(name, help=help, parents=[output, *parents])
        p.set_defaults(func=func)
        return p

    p = command("chidt", _cmd_chidt, "total dominator chromatic number for one n", graph)
    p.add_argument("--exact", action="store_true", help="also run the exact solver")
    p.add_argument("--construct", action="store_true", help="also emit and verify the coloring")
    p.add_argument("--budget-nodes", type=integer, default=SearchBudget().max_nodes)
    # read by _cmd_chidt, so that a bad value is one "error:" line naming it
    p.add_argument("--budget-seconds", default=str(SearchBudget().max_seconds))
    p.add_argument("--limit", type=integer, default=None, help="override the solver vertex limit")

    p = command("sweep", _cmd_sweep, "formula and construction check over a range of n", span)
    p.add_argument("--exact-up-to", type=integer, default=None)

    p = command("invariants", _cmd_invariants, "independence, open packing, total domination")
    p.add_argument("n", type=integer)
    p.add_argument("--oracle", action="store_true", help="also run brute-force searches")
    p.add_argument("--set", type=str, default=None, help="arbitrary connection set, e.g. 1,4,5")
    p.add_argument("--limit", type=integer, default=None, help="override the oracle vertex limit")

    p = command(
        "verify-coloring", _cmd_verify_coloring, "check a coloring file against a graph", graph
    )
    p.add_argument("coloring_file")
    p.add_argument("--set", type=str, default=None)

    p = command("construct", _cmd_construct, "print the explicit coloring for one n")
    p.add_argument("n", type=integer)

    p = command("reduce", _cmd_reduce, "standard-form reduction of C_n(a,b)")
    for name in ("n", "a", "b"):
        p.add_argument(name, type=integer)

    command("table", _cmd_table, "closed-form table over a range of n", span)

    return parser


def _format(args) -> str:
    """The output format the arguments ask for: --csv wins over --json."""
    return "csv" if getattr(args, "csv", False) else "json" if args.json else "text"


def main(argv: list[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        report = args.func(args)
    except (ValueError, OSError) as exc:
        # construction, coloring, limit and hypothesis errors, and unreadable files
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    out.write("\n".join(report.render(_format(args), started)) + "\n")
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
