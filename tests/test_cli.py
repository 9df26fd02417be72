import io
import json

import pytest

from circulant_tdc import Coloring, build_circulant, is_tdc
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
