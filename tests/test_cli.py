import io
import json

import pytest

from circulant_tdc import BudgetExceededError, Coloring, build_circulant, is_tdc
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

    def test_budget_exceeded_reports_bracket(self):
        code, out = run_cli("chidt", "17", "--exact", "--budget-nodes", "20")
        assert code == 1
        assert "bracket" in out

    def test_exact_disagreement_found_at_18(self):
        # exact search proves 7 while the closed form says 8
        code, out = run_cli("chidt", "18", "--exact")
        assert code == 2


class TestSweep:
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

    def test_single_n(self):
        code, out = run_cli("sweep", "6", "6", "--csv")
        assert code == 0
        assert out.strip().splitlines()[1].startswith("6,2,2,True")

    def test_bad_range(self):
        code, _ = run_cli("sweep", "10", "6")
        assert code == 1

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
        payload = json.loads(out)
        assert payload["results"][0]["report"]["tdc"] is True

    def test_proper_but_not_tdc(self, tmp_path):
        f = tmp_path / "c.json"
        f.write_text("[[1,3,5],[4,6,8],[7,9,2]]")
        code, out = run_cli("verify-coloring", "9", str(f), "--json")
        assert code == 0
        rep = json.loads(out)["results"][0]["report"]
        assert rep["proper"] is True and rep["tdc"] is False

    def test_parse_error_names_line(self, tmp_path):
        f = tmp_path / "c.json"
        f.write_text("[[1,3,5,7],[2,4,6,8]")
        code, _ = run_cli("verify-coloring", "8", str(f))
        assert code == 1

    def test_partition_error_names_vertex(self, tmp_path, capsys):
        f = tmp_path / "c.txt"
        f.write_text("1 2 3\n3 4 5 6 7 8\n")
        code, _ = run_cli("verify-coloring", "8", str(f))
        assert code == 1
        assert "vertex 3" in capsys.readouterr().err

    def test_missing_file(self):
        code, _ = run_cli("verify-coloring", "8", "/nonexistent/coloring.json")
        assert code == 1

    @pytest.mark.parametrize(
        "text,label",
        [
            ('[["a"],[2]]', '"a"'),
            ("[[1.0,3,5,7],[2,4,6,8]]", "1.0"),
            ("[[true,3,5,7],[2,4,6,8]]", "true"),
        ],
        ids=["string", "float", "bool"],
    )
    def test_rejects_non_integer_labels(self, tmp_path, capsys, text, label):
        f = tmp_path / "c.json"
        f.write_text(text)
        code, out = run_cli("verify-coloring", "8", str(f))
        assert (code, out) == (1, "")
        assert capsys.readouterr().err == f"error: {f}: class 1: label {label} is not an integer\n"

    @pytest.mark.parametrize(
        "label", ["+8", "0_8", "٨"], ids=["plus-sign", "underscore", "arabic-indic-digit"]
    )
    def test_text_labels_are_ascii_digits(self, tmp_path, capsys, label):
        # int() reads each of these labels as 8
        f = tmp_path / "c.txt"
        f.write_text(f"1 3 5 7\n2 4 6 {label}\n", encoding="utf-8")
        code, out = run_cli("verify-coloring", "8", str(f))
        assert (code, out) == (1, "")
        assert capsys.readouterr().err == f"error: {f}: line 2: label {label!r} is not an integer\n"


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
