"""Tier-1 report: which failures are the known paper discrepancies, which are new.

The four acceptance criteria below state the paper's claims verbatim and
fail at independently verified counterexamples (see README).  A failure
counts as known only when it is one of these tests failing with an
AssertionError whose message names exactly its pinned points; any other
failure, of these tests or of any other, is new.  The hooks only record
each failure's exception and print one summary line; they mark, skip and
xfail nothing, so pytest's outcomes and exit status are unchanged.
"""

import re

import pytest

# test name -> (pattern of one point in its failure message, the pinned points)
KNOWN_FAILURES = {
    "test_criterion_1_exact_values_6_to_18": (r"n=(\d+): stated \d+ but", ("18",)),
    "test_criterion_3_invariant_formulas_vs_oracles": (
        r"(\w+ at n=\d+): formula gives",
        ("open_packing at n=4",),
    ),
    "test_criterion_4_structural_property_suites": (
        r"n=(\d+): e\.g\.",
        ("10", "12", "14", "15", "18", "20"),
    ),
    "test_criterion_6_offset_identity_to_1e6": (r"n=(\d+) \(case value", ("6",)),
}


def is_known(nodeid: str, exc: BaseException | None) -> bool:
    """True iff test `nodeid` failing with `exc` is a known discrepancy, exactly as pinned."""
    path, _, name = nodeid.partition("::")
    known_test = path.endswith("test_acceptance.py") and name in KNOWN_FAILURES
    if not known_test or type(exc) is not AssertionError:
        return False
    pattern, points = KNOWN_FAILURES[name]
    return tuple(re.findall(pattern, str(exc))) == points


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    outcome.get_result().failure = call.excinfo.value if call.excinfo else None


def pytest_terminal_summary(terminalreporter):
    reports = [rep for key in ("failed", "error") for rep in terminalreporter.stats.get(key, [])]
    failed = {rep.nodeid: getattr(rep, "failure", None) for rep in reports}
    known = [nodeid for nodeid in sorted(failed) if is_known(nodeid, failed[nodeid])]
    new = [nodeid for nodeid in sorted(failed) if nodeid not in known]
    listing = f" ({', '.join(new)})" if new else ""
    terminalreporter.write_line(
        f"known acceptance failures: {len(known)} of {len(KNOWN_FAILURES)}; "
        f"new failures: {len(new)}{listing}"
    )
