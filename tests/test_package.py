import circulant_tdc

# the public surface; bench/ calls these through the package root
PUBLIC_NAMES = {
    "BudgetExceededError",
    "CirculantGraph",
    "Coloring",
    "ColoringError",
    "ColoringReport",
    "ConstructionPlan",
    "ConstructionVerdict",
    "FeasibilityOutcome",
    "FormulaConsistencyError",
    "GraphConstructionError",
    "InvariantValue",
    "OracleLimitError",
    "ReductionResult",
    "SearchBudget",
    "SearchOutcome",
    "build_circulant",
    "chromatic_number_oracle",
    "circular_distance",
    "common_neighborhood",
    "construct_tdc",
    "formula_tdc",
    "formula_tdc_general",
    "independence_number_formula",
    "independence_number_oracle",
    "is_proper",
    "is_standard_13",
    "is_tdc",
    "open_packing_number_formula",
    "open_packing_number_oracle",
    "reduce_to_standard",
    "standard_circulant",
    "standard_connection_set",
    "tdc_feasible",
    "tdc_number_exact",
    "tdc_total_domination_offset",
    "total_domination_number_formula",
    "total_domination_number_oracle",
    "verify_construction",
    "verify_isomorphism",
}


def test_public_names_are_pinned_and_resolve():
    assert len(circulant_tdc.__all__) == len(set(circulant_tdc.__all__))
    assert set(circulant_tdc.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        obj = getattr(circulant_tdc, name)
        assert obj.__module__.startswith("circulant_tdc."), name
