"""The tier-1 classifier: a known criterion fails only at its pinned points."""

import pytest

from conftest import KNOWN_FAILURES, is_known

ACCEPTANCE = "tests/test_acceptance.py::"

# the four criteria's failure messages as the suite raises them
MESSAGES = {
    "test_criterion_1_exact_values_6_to_18": (
        "exact search disagrees with the stated table: n=18: stated 8 but an exhaustively "
        "verified coloring with 7 classes exists: [[1, 3, 5, 7], [2, 4, 6, 11, 13, 15], [8], "
        "[9], [10, 12, 14, 16], [17], [18]]\n"
        "assert not [(18, 8, 7, [[1, 3, 5, 7], [2, 4, 6, 11, 13, 15], [8], [9], "
        "[10, 12, 14, 16], [17], ...])]"
    ),
    "test_criterion_3_invariant_formulas_vs_oracles": (
        "closed form vs exhaustive search: open_packing at n=4: formula gives 1 but search "
        "proves 2 (witness [1, 2])\n"
        "assert not [('open_packing', 4, 1, 2, (1, 2))]"
    ),
    "test_criterion_4_structural_property_suites": (
        "every maximum open packing should induce the expected shape, but spread packings "
        "exist: n=10: e.g. [1, 6] (5 of the maximum packings violate); n=12: e.g. [1, 6] "
        "(12 of the maximum packings violate); n=14: e.g. [1, 6] (21 of the maximum packings "
        "violate); n=15: e.g. [1, 6, 11] (5 of the maximum packings violate); n=18: e.g. "
        "[1, 4, 9, 14] (18 of the maximum packings violate); n=20: e.g. [1, 2, 9, 14] (85 of "
        "the maximum packings violate)\n"
        "assert not [(10, (1, 6), 5), (12, (1, 6), 12), (14, (1, 6), 21), (15, (1, 6, 11), 5), "
        "(18, (1, 4, 9, 14), 18), (20, (1, 2, 9, 14), 85)]"
    ),
    "test_criterion_6_offset_identity_to_1e6": (
        "offset case split disagrees with the closed forms at n=6 (case value 2, actual "
        "difference 0)\n"
        "assert not [(6, 0)]"
    ),
}


def _is_known_message(name: str, message: str) -> bool:
    return is_known(ACCEPTANCE + name, AssertionError(message))


def test_messages_cover_every_known_failure():
    assert set(MESSAGES) == set(KNOWN_FAILURES)


@pytest.mark.parametrize("name", sorted(MESSAGES))
def test_real_message_is_known(name):
    assert _is_known_message(name, MESSAGES[name])


@pytest.mark.parametrize("name", sorted(MESSAGES))
def test_other_exception_is_new(name):
    # e.g. a criterion's builder calling a method that no longer exists
    exc = AttributeError("'CirculantGraph' object has no attribute 'neighbor_mask'")
    assert not is_known(ACCEPTANCE + name, exc)
    assert not is_known(ACCEPTANCE + name, None)


def test_extra_point_is_new():
    name = "test_criterion_1_exact_values_6_to_18"
    extra = "n=17: stated 7 but an exhaustively verified coloring with 6 classes exists: []; "
    message = MESSAGES[name].replace("n=18: stated", extra + "n=18: stated", 1)
    assert not _is_known_message(name, message)


def test_missing_point_is_new():
    name = "test_criterion_4_structural_property_suites"
    assert not _is_known_message(name, MESSAGES[name].replace("n=20: e.g.", "n=22: e.g.", 1))


def test_other_assertion_of_a_known_test_is_new():
    message = "capacity violations: [(9, 3)]\nassert not [(9, 3)]"
    assert not _is_known_message("test_criterion_4_structural_property_suites", message)


def test_unlisted_test_is_new():
    message = MESSAGES["test_criterion_1_exact_values_6_to_18"]
    assert not _is_known_message("test_criterion_2_constructions_6_to_1000", message)
    nodeid = "tests/test_solver.py::test_criterion_1_exact_values_6_to_18"
    assert not is_known(nodeid, AssertionError(message))
