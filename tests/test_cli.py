import io
import json
import time
import weakref

import pytest

from circulant_tdc import BudgetExceededError, Coloring, build_circulant, is_tdc, verify_construction
from circulant_tdc import cli
from circulant_tdc.cli import main


def run_cli(*argv):
    buf = io.StringIO()
    code = main(list(argv), out=buf)
    return code, buf.getvalue()


class TestChidt:
    def test_formula_construct_exact_agree(self):
        code, out = run_cli("chidt", "9", "--exact", "--construct")
        assert code == 0
        assert "[formula]" in out and "[construction]" in out and "[exact-search]" in out

    def test_reduction_path(self):
        code, out = run_cli("chidt", "7", "2", "6")
        assert code == 0
        assert "reduces to C_7(1,3)" in out

    # (26, 5, 11) is a mirrored case: 5^-1 * 11 = 23 = -3 (mod 26)
    @pytest.mark.parametrize("n,a,b", [(7, 2, 6), (13, 2, 6), (20, 3, 9), (26, 5, 11)])
    def test_construct_classes_color_the_requested_graph(self, n, a, b):
        code, out = run_cli("chidt", str(n), str(a), str(b), "--construct", "--json")
        assert code == 0
        claims = json.loads(out)["results"][0]["claims"]
        (built,) = [c for c in claims if c["source"] == "construction"]
        coloring = Coloring.from_classes(n, built["classes"])
        assert built["tdc"] is True
        assert is_tdc(build_circulant(n, [a, b]), coloring).tdc

    def test_either_generator_order(self):
        outputs = [run_cli("chidt", "11", *pair, "--json") for pair in (("3", "1"), ("1", "3"))]
        assert [code for code, _ in outputs] == [0, 0]
        claims = [json.loads(out)["results"][0]["claims"] for _, out in outputs]
        assert claims[0] == claims[1]

    def test_swapped_construction_verifies(self, tmp_path):
        # C_14(9,3) reduces as (3, 9): x -> 3^-1 x = 5x mod 14
        code, out = run_cli("chidt", "14", "9", "3", "--construct", "--json")
        assert code == 0
        claims = json.loads(out)["results"][0]["claims"]
        (built,) = [c for c in claims if c["source"] == "construction"]
        f = tmp_path / "c.json"
        f.write_text(json.dumps(built["classes"]))
        code, out = run_cli("verify-coloring", "14", "9", "3", str(f), "--json")
        assert code == 0
        claims = json.loads(out)["results"][0]["claims"]
        assert {c["quantity"]: c["value"] for c in claims}["tdc"] is True

    def test_outside_the_family_names_both_orders(self, capsys):
        code, out = run_cli("chidt", "11", "1", "2")
        assert (code, out) == (1, "")
        err = capsys.readouterr().err
        assert "both generator orders" in err
        assert "(a, b) = (1, 2)" in err and "(a, b) = (2, 1)" in err

    def test_json_envelope(self):
        code, out = run_cli("chidt", "12", "--exact", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["version"] == "1"
        assert payload["command"] == "chidt"
        assert payload["summary"]["disagreements"] == 0
        claims = payload["results"][0]["claims"]
        assert {c["source"] for c in claims} == {"formula", "exact-search"}

    def test_invalid_n(self):
        code, _ = run_cli("chidt", "5")
        assert code == 1

    def test_n6_is_noted(self):
        code, out = run_cli("chidt", "6")
        assert code == 0
        assert "note: n=6 is covered by the standard-graph statement only" in out.splitlines()

    def test_budget_exceeded_reports_bracket(self):
        code, out = run_cli("chidt", "17", "--exact", "--budget-nodes", "20")
        assert code == 1
        assert "bracket" in out

    @pytest.mark.parametrize(
        "option,value",
        [("--budget-nodes", "0"), ("--budget-nodes", "-5"), ("--budget-seconds", "nan"),
         ("--budget-seconds", "0"), ("--budget-seconds", "-1")],
    )
    def test_rejects_bad_budget(self, capsys, option, value):
        # the budget is checked before any work, whether or not it is used
        for exact in (["--exact"], []):
            code, out = run_cli("chidt", "12", *exact, option, value)
            err = capsys.readouterr().err
            assert (code, out) == (1, "")
            assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("value", ["١_0", "+3", "0_3", "inf"])
    def test_budget_seconds_is_ascii_decimal(self, capsys, value):
        # float() reads each of these; the option takes -?[0-9]+(.[0-9]+)? only
        code, out = run_cli("chidt", "9", "--exact", "--budget-seconds", value)
        err = capsys.readouterr().err
        assert (code, out) == (1, "")
        assert err == f"error: {value!r} is not a decimal number\n"

    def test_budget_seconds_is_finite(self, capsys):
        # the token matches the decimal pattern, but float() reads it as inf
        value = "9" * 309
        code, out = run_cli("chidt", "13", "--exact", "--budget-seconds", value)
        err = capsys.readouterr().err
        assert (code, out) == (1, "")
        assert err == f"error: {value!r} is too large to be a finite number\n"

    def test_exact_disagreement_found_at_18(self):
        # exact search proves 7 while the closed form says 8
        code, out = run_cli("chidt", "18", "--exact")
        assert code == 2


class TestSweep:
    def test_releases_each_verdict_before_the_next(self, monkeypatch):
        verdicts = []

        def verify(n, reduction=None):
            alive = [ref().plan.n for ref in verdicts if ref() is not None]
            assert not alive, f"verdicts for n = {alive} alive while building n = {n}"
            verdict = verify_construction(n, reduction)
            verdicts.append(weakref.ref(verdict))
            return verdict

        monkeypatch.setattr(cli, "verify_construction", verify)
        code, out = run_cli("sweep", "6", "20", "--exact-up-to", "8", "--csv")
        assert code == 0 and len(verdicts) == 15
        assert out.splitlines()[1:3] == ["6,2,2,True,2,True", "7,4,4,True,4,True"]

    def test_range_all_agree(self):
        code, out = run_cli("sweep", "6", "12")
        assert code == 0
        assert "0 disagreement(s)" in out

    def test_csv(self):
        code, out = run_cli("sweep", "6", "8", "--csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("n,chi_dt_formula")
        assert len(lines) == 4

    def test_exact_up_to(self):
        code, out = run_cli("sweep", "6", "10", "--exact-up-to", "8", "--csv")
        assert code == 0
        rows = {line.split(",")[0]: line for line in out.strip().splitlines()[1:]}
        assert rows["7"].split(",")[4] == "4"
        assert rows["10"].split(",")[4] == ""

    def test_exact_table_disagrees_only_at_18(self):
        # the paper's table against exact search: n=18 is the one discrepancy
        code, out = run_cli("sweep", "6", "40", "--exact-up-to", "18", "--csv")
        assert code == 2
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 35
        assert [row.split(",")[0] for row in rows if row.endswith(",False")] == ["18"]

    def test_single_n(self):
        code, out = run_cli("sweep", "6", "6", "--csv")
        assert code == 0
        assert out.strip().splitlines()[1].startswith("6,2,2,True")

    def test_bad_range(self, capsys):
        # the range is sweep's to check, and n >= 6 is formula_tdc's
        for n_from, n_to, error in [
            ("10", "6", "empty range 10..6"),
            ("5", "8", "closed form needs n >= 6, got 5"),
        ]:
            assert run_cli("sweep", n_from, n_to) == (1, "")
            assert capsys.readouterr().err == f"error: {error}\n"

    def test_csv_survives_budget_stop(self, monkeypatch):
        search = cli.tdc_number_exact

        def stop_at_10(graph, **kwargs):
            if graph.n == 10:
                raise BudgetExceededError(lower=3, upper=4, nodes_explored=0, elapsed_seconds=0.0)
            return search(graph, **kwargs)

        monkeypatch.setattr(cli, "tdc_number_exact", stop_at_10)
        code, out = run_cli("sweep", "6", "10", "--exact-up-to", "10", "--csv")
        assert code == 1
        lines = out.splitlines()
        assert lines[0].startswith("n,chi_dt_formula")
        assert all(len(line.split(",")) == 6 for line in lines)
        assert [line.split(",")[0] for line in lines[1:]] == ["6", "7", "8", "9"]


class TestInvariants:
    def test_oracle_agreement(self):
        code, out = run_cli("invariants", "12", "--oracle")
        assert code == 0
        assert "independence" in out and "open_packing" in out and "total_domination" in out

    def test_small_case_disagreement_exit_code(self):
        code, _ = run_cli("invariants", "4", "--oracle")
        assert code == 2

    def test_closed_form_below_its_range_is_not_claimed(self):
        # at n = 3 only the open packing form gives a value; the other two
        # oracle values are claimed without a formula to mark them against
        code, out = run_cli("invariants", "3", "--oracle", "--json")
        assert code == 0
        payload = json.loads(out)
        claims = payload["results"][0]["claims"]
        assert [c["quantity"] for c in claims if c["source"] == "formula"] == ["open_packing"]
        assert len([c for c in claims if c["source"] == "oracle"]) == 3
        assert (payload["summary"]["agreements"], payload["summary"]["disagreements"]) == (1, 0)

    def test_limit_refusal_is_not_fatal(self):
        code, out = run_cli("invariants", "30", "--oracle")
        assert code == 0
        assert "refusing exhaustive search" in out
        assert "[formula]" in out

    def test_arbitrary_set_has_no_formulas(self):
        code, out = run_cli("invariants", "10", "--set", "2,5", "--oracle")
        assert code == 0
        assert "[formula]" not in out
        assert "[oracle]" in out

    def test_standard_set_is_judged_against_printed_formulas(self):
        # --set 1 names the standard graph at n=4; the open packing oracle
        # finds 2 where the closed form says 1
        code, out = run_cli("invariants", "4", "--set", "1", "--oracle")
        assert code == 2
        assert out.count("[formula]") == 3
        assert "1 disagreement(s)" in out

    def test_standard_set_gets_formulas(self):
        code, out = run_cli("invariants", "12", "--set", "1,3", "--oracle")
        assert code == 0
        assert out.count("[formula]") == 3
        assert "3 agreement(s)" in out


class TestVerifyColoring:
    def test_json_file(self, tmp_path):
        f = tmp_path / "c.json"
        f.write_text("[[1,3,5,7],[2,4,6,8]]")
        code, out = run_cli("verify-coloring", "8", str(f))
        assert code == 0
        assert "tdc" in out and "True" in out

    def test_text_file(self, tmp_path):
        f = tmp_path / "c.txt"
        f.write_text("1 8\n2 9\n3 5 7\n4 6\n")
        code, out = run_cli("verify-coloring", "9", str(f), "--json")
        assert code == 0
        claims = json.loads(out)["results"][0]["claims"]
        assert {c["quantity"]: c["value"] for c in claims}["tdc"] is True

    def test_proper_but_not_tdc(self, tmp_path):
        f = tmp_path / "c.json"
        f.write_text("[[1,3,5],[4,6,8],[7,9,2]]")
        code, out = run_cli("verify-coloring", "9", str(f), "--json")
        assert code == 0
        claims = json.loads(out)["results"][0]["claims"]
        found = {c["quantity"]: c["value"] for c in claims}
        assert found["proper"] is True and found["tdc"] is False

    def test_parse_error_names_line(self, tmp_path):
        f = tmp_path / "c.json"
        f.write_text("[[1,3,5,7],[2,4,6,8]")
        code, _ = run_cli("verify-coloring", "8", str(f))
        assert code == 1

    def test_rejects_json_that_is_not_array_of_arrays(self, tmp_path, capsys):
        f = tmp_path / "c.json"
        f.write_text("[1, 2]")
        code, out = run_cli("verify-coloring", "8", str(f))
        assert (code, out) == (1, "")
        expected = f"error: {f}: expected a JSON array of arrays of vertex labels\n"
        assert capsys.readouterr().err == expected

    def test_partition_error_names_vertex(self, tmp_path, capsys):
        f = tmp_path / "c.txt"
        f.write_text("1 2 3\n3 4 5 6 7 8\n")
        code, _ = run_cli("verify-coloring", "8", str(f))
        assert code == 1
        assert "vertex 3" in capsys.readouterr().err

    def test_missing_file(self):
        code, _ = run_cli("verify-coloring", "8", "/nonexistent/coloring.json")
        assert code == 1

    def test_rejects_pair_with_set(self, tmp_path, capsys):
        # before, the --set graph was checked and a b dropped without a word
        f = tmp_path / "c6.txt"
        f.write_text("1 3 5\n2 4 6\n")
        code, out = run_cli("verify-coloring", "6", "1", "3", str(f), "--set", "1,2")
        err = capsys.readouterr().err
        assert code == 1 and out == ""
        assert err.splitlines() == ["error: give either a b or --set, not both"]

    # Each class is walked for a label that is not an int before it is
    # checked for repeats, so a later class, a label that equals a member
    # and a class that also repeats a label get the same message.
    @pytest.mark.parametrize(
        "text,where",
        [
            ('[["a"],[2]]', 'class 1: label "a"'),
            ("[[1.0,3,5,7],[2,4,6,8]]", "class 1: label 1.0"),
            ("[[true,3,5,7],[2,4,6,8]]", "class 1: label true"),
            ('[[1,3,5,7],[2,4,"6",8]]', 'class 2: label "6"'),
            ("[[1,3,5,7],[2,4,true,8]]", "class 2: label true"),
            ("[[1,3,5,7],[2,4,6,8,8.0]]", "class 2: label 8.0"),
            ('[[1,3,"x",3],[2]]', 'class 1: label "x"'),
        ],
        ids=[
            "string",
            "float",
            "bool",
            "digit-string-later",
            "bool-later",
            "float-equal-to-member",
            "string-before-repeat",
        ],
    )
    def test_rejects_non_integer_labels(self, tmp_path, capsys, text, where):
        f = tmp_path / "c.json"
        f.write_text(text)
        code, out = run_cli("verify-coloring", "8", str(f))
        assert (code, out) == (1, "")
        assert capsys.readouterr().err == f"error: {f}: {where} is not an integer\n"

    @pytest.mark.parametrize(
        "label",
        ["+8", "0_8", "٨", "²", "-", "--8", "8-", "8.0"],
        ids=[
            "plus-sign",
            "underscore",
            "arabic-indic-digit",
            "superscript-digit",
            "minus-alone",
            "double-minus",
            "trailing-minus",
            "decimal-point",
        ],
    )
    def test_text_labels_are_ascii_digits(self, tmp_path, capsys, label):
        # int() reads each of these labels as 8
        f = tmp_path / "c.txt"
        f.write_text(f"1 3 5 7\n2 4 6 {label}\n", encoding="utf-8")
        code, out = run_cli("verify-coloring", "8", str(f))
        assert (code, out) == (1, "")
        assert capsys.readouterr().err == f"error: {f}: line 2: label {label!r} is not an integer\n"

    @pytest.mark.parametrize(
        "name,text,where",
        [
            ("c.txt", "1 1 3 5\n2 4 6\n", "line 1: label 1"),
            ("c.json", "[[1,3,5,5],[2,4,6]]", "class 1: label 5"),
            ("c.txt", "1 3 5\n2 4 6 4\n", "line 2: label 4"),
            ("c.json", "[[1,3,5],[2,4,6,4]]", "class 2: label 4"),
            # a repeat is named before a vertex outside 1..n, or a bad label on a later line
            ("c.json", "[[1,3,99],[2,2]]", "class 2: label 2"),
            ("c.txt", "1 3\n2 4 4\n5 x\n", "line 2: label 4"),
        ],
        ids=["text", "json", "text-later", "json-later", "json-before-range", "text-before-token"],
    )
    def test_rejects_label_repeated_within_a_class(self, tmp_path, capsys, name, text, where):
        # a class is a set, so the repeat would otherwise vanish unreported
        f = tmp_path / name
        f.write_text(text)
        code, out = run_cli("verify-coloring", "6", str(f))
        assert (code, out) == (1, "")
        assert capsys.readouterr().err == f"error: {f}: {where} repeats within the class\n"


class TestConstructReduceTable:
    def test_construct_prints_classes(self):
        code, out = run_cli("construct", "12")
        assert code == 0
        assert "{6, 8, 10}" in out
        assert "ok=True" in out

    def test_construct_json(self):
        code, out = run_cli("construct", "16", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["results"][0]["plan"]["num_classes"] == 6

    def test_reduce(self):
        code, out = run_cli("reduce", "11", "4", "1", "--json")
        assert code == 0
        payload = json.loads(out)
        red = payload["results"][0]["reduction"]
        assert red["standard_c"] == 3 and red["a_inverse"] == 3
        claims = {c["quantity"]: c["value"] for c in payload["results"][0]["claims"]}
        assert claims["isomorphism_certified"] is True

    def test_reduce_degenerate_target_skips_certificate(self):
        # C_7(1,6) is the 7-cycle: 6 is distance 1, so C_7(1,1) cannot be built
        code, out = run_cli("reduce", "7", "1", "6", "--json")
        assert code == 0
        payload = json.loads(out)
        quantities = [c["quantity"] for c in payload["results"][0]["claims"]]
        assert quantities == ["standard_c"]
        (note,) = payload["summary"]["notes"]
        assert note.startswith("certificate skipped (degenerate connection set): ")

    def test_reduce_rejects_non_coprime(self):
        code, _ = run_cli("reduce", "9", "3", "1")
        assert code == 1

    def test_table_csv(self):
        code, out = run_cli("table", "6", "11", "--csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 7
        assert lines[1].startswith("6,2,2,3,2,,False")  # offset blank at 6

    def test_table_json(self):
        code, out = run_cli("table", "7", "9", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"]["offset_inconsistencies"] == 0


class TestContract:
    """What every command promises, whatever it computes."""

    @pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["chidt", "7", "2"],
            ["chidt", "8", "2", "6"],
            ["chidt", "0", "1", "3"],
            ["sweep", "10", "6"],
            ["reduce", "9", "3", "1"],
            ["construct", "5"],
            ["table", "5", "9"],
            ["verify-coloring", "8", "/nonexistent/coloring.json"],
            ["verify-coloring", "8", "MALFORMED"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_input_error_writes_only_stderr(self, tmp_path, capsys, argv, fmt):
        malformed = tmp_path / "c.json"
        malformed.write_text("[[1,3,5,7],[2,4,6,8]")
        argv = [str(malformed) if arg == "MALFORMED" else arg for arg in argv]
        code, out = run_cli(*argv, *fmt)
        captured = capsys.readouterr()
        assert (code, out, captured.out) == (1, "", "")
        assert captured.err.startswith("error: ")

    # each rule is checked in one place, so every path to it gives its text
    @pytest.mark.parametrize(
        "argv,error",
        [
            (["table", "5", "9"], "closed form needs n >= 6, got 5"),
            (["reduce", "13", "0", "3"], "generator 0 is 0 mod 13 (self-loop)"),
            (["chidt", "13", "0", "3"], "generator 0 is 0 mod 13 (self-loop)"),
            (["chidt", "13", "3", "0"], "generator 0 is 0 mod 13 (self-loop)"),
        ],
        ids=["table", "reduce", "chidt", "chidt-swapped"],
    )
    def test_input_error_text(self, capsys, argv, error):
        assert run_cli(*argv) == (1, "")
        assert capsys.readouterr() == ("", f"error: {error}\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["invariants", "12", "--set", "1,3", "--oracle", "--limit", "-1"],
            ["chidt", "12", "--exact", "--limit", "0"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_bad_limit_is_named(self, capsys, argv):
        # an invariants oracle refused at -1 used to be a note, with exit 0
        assert run_cli(*argv) == (1, "")
        captured = capsys.readouterr()
        error = f"error: vertex limit must be an integer of at least 1, got {argv[-1]}\n"
        assert (captured.out, captured.err) == ("", error)

    @pytest.mark.parametrize(
        "argv,token",
        [
            (["construct", "١٢"], "١٢"),
            (["chidt", "1_3"], "1_3"),
            (["invariants", "10", "--set", "1,+3"], "+3"),
            (["invariants", "10", "--set", "1,a"], "a"),
        ],
        ids=["arabic-indic-digits", "underscore", "plus-sign", "letter"],
    )
    def test_integers_are_ascii_digits(self, capsys, argv, token):
        # int() reads the first three tokens as 12, 13 and 3; argparse's
        # own errors exit through SystemExit, the others through main
        try:
            code, out = run_cli(*argv)
        except SystemExit as exc:
            code, out = exc.code, ""
        captured = capsys.readouterr()
        assert (code, out, captured.out) == (1, "", "")
        errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1
        assert repr(token) in errors[0] and "integer" in errors[0]

    def test_elapsed_seconds_covers_the_command(self, tmp_path, monkeypatch):
        f = tmp_path / "c.json"
        f.write_text("[[1,3,5,7],[2,4,6,8]]")

        def slow_is_tdc(graph, coloring):
            time.sleep(0.2)
            return is_tdc(graph, coloring)

        monkeypatch.setattr(cli, "is_tdc", slow_is_tdc)
        code, out = run_cli("verify-coloring", "8", str(f), "--json")
        assert code == 0
        assert json.loads(out)["summary"]["elapsed_seconds"] >= 0.2

    def test_budget_stop_json(self):
        code, out = run_cli("chidt", "17", "--exact", "--budget-nodes", "20", "--json")
        assert code == 1
        payload = json.loads(out)
        bracket = payload["results"][0]["bracket"]
        assert bracket
        assert any(str(bracket) in note for note in payload["summary"]["notes"])

    @pytest.mark.parametrize(
        "argv",
        [["chidt", "9"], ["sweep", "6", "8"], ["construct", "12"], ["reduce", "11", "4", "1"],
         ["table", "7", "9"]],
        ids=lambda argv: argv[0],
    )
    def test_json_summary_has_standard_keys(self, argv):
        code, out = run_cli(*argv, "--json")
        assert code == 0
        summary = json.loads(out)["summary"]
        assert {"agreements", "disagreements", "notes", "elapsed_seconds"} <= set(summary)
