"""Command-line front door.

Commands: chidt, sweep, invariants, verify-coloring, construct, reduce,
table.  Output is human text by default; --json emits a stable envelope
{version, command, results, summary} with results sorted by n, and --csv is
available for the tabular commands.  Every numeric claim carries a source
tag: "formula", "construction", "oracle" or "exact-search".

Exit codes: 0 when everything agrees, 1 for usage or input errors (including
exhausted budgets and oracle refusals on commands that need them), 2 when a
mathematical disagreement between sources was detected.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field

from .coloring import Coloring, ColoringError, is_tdc
from .constructions import construct_tdc, verify_construction
from .formulas import build_formula_table, formula_tdc, formula_tdc_general
from .graphs import (
    CirculantGraph,
    GraphConstructionError,
    build_circulant,
    reduce_to_standard,
    standard_circulant,
    verify_isomorphism,
)
from .invariants import (
    OracleLimitError,
    independence_number_formula,
    independence_number_oracle,
    open_packing_number_formula,
    open_packing_number_oracle,
    total_domination_number_formula,
    total_domination_number_oracle,
)
from .solver import BudgetExceededError, SearchBudget, tdc_number_exact

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_DISAGREE = 2


@dataclass
class RunReport:
    command: str
    inputs: dict
    results: list[dict] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    disagreements: int = 0
    agreements: int = 0
    started: float = field(default_factory=time.monotonic)

    def claim(self, result: dict, quantity: str, value, source: str, **extra) -> None:
        entry = {"quantity": quantity, "value": value, "source": source}
        entry.update(extra)
        result.setdefault("claims", []).append(entry)

    def mark(self, agree: bool) -> None:
        if agree:
            self.agreements += 1
        else:
            self.disagreements += 1

    def to_json(self) -> str:
        payload = {
            "version": SCHEMA_VERSION,
            "command": self.command,
            "inputs": self.inputs,
            "results": sorted(self.results, key=lambda r: r.get("n", 0)),
            "summary": {
                "agreements": self.agreements,
                "disagreements": self.disagreements,
                "notes": self.notes,
                "elapsed_seconds": round(time.monotonic() - self.started, 6),
            },
        }
        return json.dumps(payload, indent=2)

    @property
    def exit_code(self) -> int:
        return EXIT_DISAGREE if self.disagreements else EXIT_OK


def _print_text_claims(result: dict, out) -> None:
    for claim in result.get("claims", []):
        extras = {
            k: v
            for k, v in claim.items()
            if k not in ("quantity", "value", "source")
        }
        suffix = f"  {extras}" if extras else ""
        print(f"  {claim['quantity']:<24} {claim['value']!s:<12} [{claim['source']}]{suffix}", file=out)


def _emit(report: RunReport, args, out) -> int:
    if getattr(args, "json", False):
        print(report.to_json(), file=out)
    else:
        for result in sorted(report.results, key=lambda r: r.get("n", 0)):
            header = result.get("header")
            if header:
                print(header, file=out)
            _print_text_claims(result, out)
        for note in report.notes:
            print(f"note: {note}", file=out)
        print(
            f"summary: {report.agreements} agreement(s), {report.disagreements} disagreement(s)",
            file=out,
        )
    return report.exit_code


def _build_graph(n: int, a: int | None, b: int | None, conn: str | None) -> CirculantGraph:
    """n alone -> standard graph; n a b -> C_n(a,b); --set -> arbitrary circulant."""
    if conn is not None:
        gens = [int(tok) for tok in conn.replace(",", " ").split()]
        return build_circulant(n, gens)
    if a is not None and b is not None:
        return build_circulant(n, [a, b])
    return standard_circulant(n)


# ---------------------------------------------------------------------------
# chidt


def _cmd_chidt(args, out) -> int:
    n = args.n
    if (args.a is None) != (args.b is None):
        print("error: give both a and b, or neither", file=sys.stderr)
        return EXIT_INPUT
    report = RunReport(
        command="chidt",
        inputs={"n": n, "a": args.a, "b": args.b, "exact": args.exact, "construct": args.construct},
    )
    result: dict = {"n": n, "header": f"n={n}"}
    report.results.append(result)

    reduction = None
    if args.a is not None and args.b is not None:
        reduction = reduce_to_standard(n, args.a, args.b)
        formula_value = formula_tdc_general(n, args.a, args.b)
        result["reduction"] = {
            "standard_c": reduction.standard_c,
            "congruence": reduction.congruence,
            "a_inverse": reduction.a_inverse,
        }
        report.notes.append(
            f"C_{n}({args.a},{args.b}) reduces to C_{n}(1,{reduction.standard_c}) "
            f"via x -> {reduction.a_inverse}x mod {n} ({reduction.congruence} congruence)"
        )
        graph = build_circulant(n, [args.a, args.b])
    else:
        formula_value = formula_tdc(n)
        graph = standard_circulant(n)
    if n == 6:
        report.notes.append("n=6 is covered by the standard-graph statement only")
    report.claim(result, "chi_dt", formula_value, "formula")

    if args.construct:
        coloring = construct_tdc(n).coloring
        if reduction is not None:
            # class S of C_n(1,3) becomes {x : a^{-1}x in S} of C_n(a,b)
            image = reduction.vertex_map
            coloring = Coloring.from_classes(
                n, [{x for x in image if image[x] in cls} for cls in coloring.classes]
            )
        tdc = is_tdc(graph, coloring).tdc
        report.claim(
            result, "chi_dt", len(coloring), "construction", tdc=tdc, classes=coloring.as_lists()
        )
        report.mark(tdc and len(coloring) == formula_value)

    if args.exact:
        budget = SearchBudget(max_nodes=args.budget_nodes, max_seconds=args.budget_seconds)
        try:
            outcome = tdc_number_exact(graph, budget=budget, limit=args.limit)
        except BudgetExceededError as exc:
            report.notes.append(
                f"budget exceeded: exact value bracketed in [{exc.lower}, {exc.upper}]"
            )
            result["bracket"] = [exc.lower, exc.upper]
            _emit(report, args, out)
            return EXIT_INPUT
        report.claim(
            result,
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
        report.mark(outcome.chi_dt == formula_value)

    return _emit(report, args, out)


# ---------------------------------------------------------------------------
# sweep


def _cmd_sweep(args, out) -> int:
    if args.n_from < 6 or args.n_to < args.n_from:
        print(f"error: need 6 <= n_from <= n_to, got {args.n_from}..{args.n_to}", file=sys.stderr)
        return EXIT_INPUT
    report = RunReport(
        command="sweep",
        inputs={"n_from": args.n_from, "n_to": args.n_to, "exact_up_to": args.exact_up_to},
    )
    rows = []
    for n in range(args.n_from, args.n_to + 1):
        formula_value = formula_tdc(n)
        verdict = verify_construction(n)
        result = {"n": n, "header": f"n={n}"}
        report.claim(result, "chi_dt", formula_value, "formula")
        report.claim(
            result, "chi_dt", verdict.num_classes, "construction", tdc=verdict.report.tdc
        )
        agree = verdict.ok and verdict.num_classes == formula_value
        report.mark(agree)
        exact_value: int | None = None
        if args.exact_up_to is not None and n <= args.exact_up_to:
            try:
                outcome = tdc_number_exact(standard_circulant(n), limit=args.exact_up_to)
            except BudgetExceededError as exc:
                report.notes.append(f"n={n}: budget exceeded, bracket [{exc.lower}, {exc.upper}]")
                report.results.append(result)
                _emit(report, args, out)
                return EXIT_INPUT
            exact_value = outcome.chi_dt
            report.claim(result, "chi_dt", exact_value, "exact-search")
            report.mark(exact_value == formula_value)
            agree = agree and exact_value == formula_value
        rows.append((n, formula_value, verdict, exact_value, agree))
        report.results.append(result)

    if args.csv:
        print("n,chi_dt_formula,construction_classes,construction_tdc,exact,agree", file=out)
        for n, fv, verdict, exact_value, agree in rows:
            ex = "" if exact_value is None else str(exact_value)
            print(
                f"{n},{fv},{verdict.num_classes},{verdict.report.tdc},{ex},{agree}",
                file=out,
            )
        return report.exit_code
    return _emit(report, args, out)


# ---------------------------------------------------------------------------
# invariants


def _cmd_invariants(args, out) -> int:
    n = args.n
    report = RunReport(command="invariants", inputs={"n": n, "oracle": args.oracle, "set": args.set})
    result: dict = {"n": n, "header": f"n={n}"}
    report.results.append(result)

    arbitrary = args.set is not None
    graph = _build_graph(n, None, None, args.set)

    closed_forms = []
    if not arbitrary:
        for name, fn, min_n in (
            ("independence", independence_number_formula, 4),
            ("open_packing", open_packing_number_formula, 3),
            ("total_domination", total_domination_number_formula, 4),
        ):
            if n >= min_n:
                value = fn(n)
                report.claim(result, name, value, "formula")
                closed_forms.append((name, value))

    if args.oracle:
        oracle_fns = {
            "independence": independence_number_oracle,
            "open_packing": open_packing_number_oracle,
            "total_domination": total_domination_number_oracle,
        }
        for name, fn in oracle_fns.items():
            try:
                inv = fn(graph, limit=args.limit)
            except OracleLimitError as exc:
                report.notes.append(f"{name}: {exc}")
                continue
            report.claim(
                result,
                name,
                inv.oracle,
                "oracle",
                witness=list(inv.witness) if inv.witness else None,
            )
            if inv.agree is not None:
                report.mark(inv.agree)

    return _emit(report, args, out)


# ---------------------------------------------------------------------------
# verify-coloring


def parse_coloring_file(text: str, n: int) -> Coloring:
    """Parse a coloring file: JSON array of arrays, or one class per line."""
    stripped = text.lstrip()
    if stripped.startswith("["):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ColoringError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
        if not isinstance(data, list) or not all(isinstance(c, list) for c in data):
            raise ColoringError("expected a JSON array of arrays of vertex labels")
        return Coloring.from_classes(n, data)
    classes = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            classes.append([int(tok) for tok in line.split()])
        except ValueError as exc:
            raise ColoringError(f"line {lineno}: {exc}") from exc
    return Coloring.from_classes(n, classes)


def _cmd_verify_coloring(args, out) -> int:
    if (args.a is None) != (args.b is None):
        print("error: give both a and b, or neither", file=sys.stderr)
        return EXIT_INPUT
    try:
        graph = _build_graph(args.n, args.a, args.b, args.set)
    except GraphConstructionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        with open(args.coloring_file, encoding="utf-8") as handle:
            coloring = parse_coloring_file(handle.read(), graph.n)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ColoringError as exc:
        print(f"error: {args.coloring_file}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    tdc_report = is_tdc(graph, coloring)
    report = RunReport(
        command="verify-coloring",
        inputs={"n": graph.n, "coloring_file": args.coloring_file},
    )
    result = {"n": graph.n, "header": f"n={graph.n}", "report": tdc_report.to_dict()}
    report.claim(result, "proper", tdc_report.proper, "oracle")
    report.claim(result, "tdc", tdc_report.tdc, "oracle")
    report.claim(result, "num_classes", len(coloring), "oracle")
    if tdc_report.uncovered:
        report.claim(result, "uncovered", list(tdc_report.uncovered), "oracle")
    for rec in tdc_report.classes:
        report.claim(
            result,
            f"CN{list(rec.vertices)}",
            list(rec.common_neighborhood),
            "oracle",
            size=rec.size,
        )
    report.results.append(result)
    return _emit(report, args, out)


# ---------------------------------------------------------------------------
# construct / reduce / table


def _cmd_construct(args, out) -> int:
    plan = construct_tdc(args.n)
    verdict = verify_construction(args.n)
    report = RunReport(command="construct", inputs={"n": args.n})
    result = {"n": args.n, "header": f"n={args.n}", "plan": plan.to_dict()}
    report.claim(result, "num_classes", verdict.num_classes, "construction")
    report.claim(result, "chi_dt", verdict.expected_classes, "formula")
    report.claim(result, "tdc", verdict.report.tdc, "construction")
    report.mark(verdict.ok)
    report.results.append(result)
    if not getattr(args, "json", False):
        print(f"n={args.n}  classes ({verdict.num_classes}):", file=out)
        for cls in plan.coloring.as_lists():
            print("  {" + ", ".join(map(str, cls)) + "}", file=out)
        print(
            f"tdc={verdict.report.tdc}  expected_classes={verdict.expected_classes}  ok={verdict.ok}",
            file=out,
        )
        return report.exit_code
    return _emit(report, args, out)


def _cmd_reduce(args, out) -> int:
    reduction = reduce_to_standard(args.n, args.a, args.b)
    report = RunReport(command="reduce", inputs={"n": args.n, "a": args.a, "b": args.b})
    result = {
        "n": args.n,
        "header": f"C_{args.n}({args.a},{args.b})",
        "reduction": {
            "a_inverse": reduction.a_inverse,
            "raw_c": reduction.raw_c,
            "standard_c": reduction.standard_c,
            "congruence": reduction.congruence,
            "vertex_map": {str(k): v for k, v in sorted(reduction.vertex_map.items())},
        },
    }
    report.claim(result, "standard_c", reduction.standard_c, "formula")
    try:
        g1 = build_circulant(args.n, [args.a, args.b])
        g2 = build_circulant(args.n, [1, reduction.standard_c])
        certified = verify_isomorphism(g1, g2, reduction.vertex_map)
        report.claim(result, "isomorphism_certified", certified, "oracle")
        report.mark(certified)
    except GraphConstructionError as exc:
        report.notes.append(f"certificate skipped (degenerate connection set): {exc}")
    report.results.append(result)
    return _emit(report, args, out)


def _cmd_table(args, out) -> int:
    table = build_formula_table(args.n_from, args.n_to)
    if args.csv:
        for line in table.to_csv_lines():
            print(line, file=out)
        return EXIT_OK
    if getattr(args, "json", False):
        payload = {
            "version": SCHEMA_VERSION,
            "command": "table",
            "inputs": {"n_from": args.n_from, "n_to": args.n_to},
            "results": table.to_dicts(),
            "summary": {
                "rows": len(table.rows),
                "offset_inconsistencies": sum(1 for r in table.rows if not r.offset_consistent),
            },
        }
        print(json.dumps(payload, indent=2), file=out)
        return EXIT_OK
    for line in table.to_csv_lines():
        print(line.replace(",", "\t"), file=out)
    return EXIT_OK


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

    p = sub.add_parser("chidt", help="total dominator chromatic number for one n")
    p.add_argument("n", type=int)
    p.add_argument("a", type=int, nargs="?", default=None)
    p.add_argument("b", type=int, nargs="?", default=None)
    p.add_argument("--exact", action="store_true", help="also run the exact solver")
    p.add_argument("--construct", action="store_true", help="also emit and verify the coloring")
    p.add_argument("--budget-nodes", type=int, default=SearchBudget().max_nodes)
    p.add_argument("--budget-seconds", type=float, default=SearchBudget().max_seconds)
    p.add_argument("--limit", type=int, default=None, help="override the solver vertex limit")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_chidt)

    p = sub.add_parser("sweep", help="formula and construction check over a range of n")
    p.add_argument("n_from", type=int)
    p.add_argument("n_to", type=int)
    p.add_argument("--exact-up-to", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("invariants", help="independence, open packing, total domination")
    p.add_argument("n", type=int)
    p.add_argument("--oracle", action="store_true", help="also run brute-force searches")
    p.add_argument("--set", type=str, default=None, help="arbitrary connection set, e.g. 1,4,5")
    p.add_argument("--limit", type=int, default=None, help="override the oracle vertex limit")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("verify-coloring", help="check a coloring file against a graph")
    p.add_argument("n", type=int)
    p.add_argument("a", type=int, nargs="?", default=None)
    p.add_argument("b", type=int, nargs="?", default=None)
    p.add_argument("coloring_file")
    p.add_argument("--set", type=str, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify_coloring)

    p = sub.add_parser("construct", help="print the explicit coloring for one n")
    p.add_argument("n", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("reduce", help="standard-form reduction of C_n(a,b)")
    p.add_argument("n", type=int)
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("table", help="closed-form table over a range of n")
    p.add_argument("n_from", type=int)
    p.add_argument("n_to", type=int)
    p.add_argument("--json", action="store_true")
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=_cmd_table)

    return parser


def main(argv: list[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, out)
    except ValueError as exc:
        # covers construction, coloring, limit and hypothesis errors alike
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
