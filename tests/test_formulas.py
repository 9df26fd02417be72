import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circulant_tdc import (
    FormulaConsistencyError,
    GraphConstructionError,
    formula_tdc,
    formula_tdc_general,
    tdc_total_domination_offset,
    total_domination_number_formula,
)
from circulant_tdc.cli import main
from circulant_tdc.formulas import TABLE_COLUMNS, formula_rows


class TestFormulaTdc:
    @pytest.mark.parametrize(
        "n,expected",
        [(6, 2), (7, 4), (8, 2), (9, 4), (10, 4), (11, 5), (12, 6), (17, 7), (19, 8)],
    )
    def test_values(self, n, expected):
        assert formula_tdc(n) == expected

    def test_case_precedence(self):
        # 9 and 10 satisfy both the 8..10 range case and a residue case; the
        # range case wins
        assert formula_tdc(9) == 4  # not 2*ceil(9/8)+1 = 5
        assert formula_tdc(10) == 4

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            formula_tdc(5)

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(min_value=6, max_value=10**6))
    def test_sanity_band(self, n):
        quarter = (n + 3) // 4
        assert max(2, quarter - 1) <= formula_tdc(n) <= quarter + 4


class TestFormulaTdcGeneral:
    def test_reduced_cases(self):
        assert formula_tdc_general(7, 2, 6) == 4
        assert formula_tdc_general(11, 4, 1) == 5

    @pytest.mark.parametrize("n", [6, 9, 14, 33])
    def test_identity_reduction(self, n):
        assert formula_tdc_general(n, 1, 3) == formula_tdc(n)

    def test_mirrored_congruence_accepted(self):
        # b = n - 3 gives a^-1 b = -3, the same graph after normalization
        assert formula_tdc_general(14, 1, 11) == formula_tdc(14)

    # C_9(3,1) is C_9(1,3) and C_11(1,4) is C_11(4,1): either order reduces
    @pytest.mark.parametrize("n,a,b", [(9, 3, 1), (11, 1, 4), (14, 9, 3)])
    def test_either_generator_order(self, n, a, b):
        assert formula_tdc_general(n, a, b) == formula_tdc_general(n, b, a) == formula_tdc(n)

    @pytest.mark.parametrize("n", [3, 5])
    def test_rejects_n_below_6(self, n):
        with pytest.raises(ValueError, match=f"closed form needs n >= 6, got {n}"):
            formula_tdc_general(n, 1, 3)

    def test_identifies_gcd_failure(self):
        # 3 and 6 are both non-units mod 9, so neither order reduces
        with pytest.raises(GraphConstructionError, match="gcd"):
            formula_tdc_general(9, 3, 6)

    def test_identifies_congruence_failure(self):
        # 1^-1 * 2 = 2 and 2^-1 * 1 = 6 = -5 (mod 11)
        with pytest.raises(ValueError, match="hypothesis a\\^-1 b"):
            formula_tdc_general(11, 1, 2)


class TestOffset:
    @pytest.mark.parametrize(
        "n,expected", [(8, 0), (10, 0), (9, 1), (19, 3), (27, 3), (16, 2), (11, 2), (7, 2)]
    )
    def test_values(self, n, expected):
        assert tdc_total_domination_offset(n) == expected

    def test_equals_formula_difference(self):
        for n in range(7, 4000):
            off = tdc_total_domination_offset(n)
            assert off == formula_tdc(n) - total_domination_number_formula(n)

    def test_case_split_fails_at_6(self):
        # the two closed forms coincide at n=6 (both equal 2), so the
        # otherwise-case value 2 is off by 2 there
        with pytest.raises(FormulaConsistencyError):
            tdc_total_domination_offset(6)

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(min_value=7, max_value=10**6))
    def test_consistency_at_scale(self, n):
        assert tdc_total_domination_offset(n) == formula_tdc(n) - total_domination_number_formula(n)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            tdc_total_domination_offset(5)


class TestFormulaTable:
    def test_rows_and_flags(self):
        rows = [dict(zip(TABLE_COLUMNS, row)) for row in formula_rows(6, 12)]
        assert [r["n"] for r in rows] == list(range(6, 13))
        by_n = {r["n"]: r for r in rows}
        assert by_n[6]["offset"] is None and not by_n[6]["offset_consistent"]
        assert by_n[8]["offset"] == 0 and by_n[8]["offset_consistent"]
        assert by_n[11]["offset"] == 2

    def test_csv_shape(self, capsys):
        assert main(["table", "6", "8", "--csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("n,chi_dt_formula")
        assert len(lines) == 4

    def test_range_guards(self):
        with pytest.raises(ValueError):
            formula_rows(5, 10)
        with pytest.raises(ValueError):
            formula_rows(10, 6)
