"""Tier-1 report: which failures are the known paper discrepancies, which are new.

The four acceptance criteria below state the paper's claims verbatim and
fail at independently verified counterexamples (see README).  The hook only
prints one summary line; it marks, skips and xfails nothing, so pytest's
outcomes and exit status are unchanged.
"""

KNOWN_FAILURES = (
    "test_criterion_1_exact_values_6_to_18",
    "test_criterion_3_invariant_formulas_vs_oracles",
    "test_criterion_4_structural_property_suites",
    "test_criterion_6_offset_identity_to_1e6",
)


def _is_known(nodeid: str) -> bool:
    path, _, name = nodeid.partition("::")
    return path.endswith("test_acceptance.py") and name in KNOWN_FAILURES


def pytest_terminal_summary(terminalreporter):
    failed = sorted(
        {rep.nodeid for key in ("failed", "error") for rep in terminalreporter.stats.get(key, [])}
    )
    known = [nodeid for nodeid in failed if _is_known(nodeid)]
    new = [nodeid for nodeid in failed if not _is_known(nodeid)]
    listing = f" ({', '.join(new)})" if new else ""
    terminalreporter.write_line(
        f"known acceptance failures: {len(known)} of {len(KNOWN_FAILURES)}; "
        f"new failures: {len(new)}{listing}"
    )
