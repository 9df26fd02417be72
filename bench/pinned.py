"""Expected answers for every benchmark job, fixed independently of the code
under test.

The paper's closed forms are restated here, so a change to the package's own
formulas cannot move the expectations with it.  The four known discrepancies
between the paper and exhaustive computation are written out as expected
values, so a failure counted by the benchmark is always a new fault.  Values
that have no closed form (oracles on arbitrary connection sets, the exact
number of non-standard circulants) were computed once by exhaustive search
and are pinned literally.
"""

from __future__ import annotations

# chi_dt(C_18(1,3)) is 7; the paper's formula gives 8 (a 7-class coloring
# exists and exhaustive search rules out 6).
EXACT_DISCREPANCIES = {18: 7}

# The paper's open packing formula gives 1 on the degenerate 4-cycle C_4(1,3);
# the open packing {1, 2} has size 2.
OPEN_PACKING_DISCREPANCIES = {4: 2}

# The offset case split says 2 at n = 6, but both closed forms equal 2 there,
# so the difference is 0 and the package raises FormulaConsistencyError.
OFFSET_INCONSISTENT = frozenset({6})

# Exit codes of the command-line interface.
EXIT_OK = 0
EXIT_INPUT = 1
EXIT_DISAGREE = 2


def paper_chi_dt(n: int) -> int:
    """The paper's total dominator chromatic number of C_n(1,3), n >= 6."""
    blocks = (n + 7) // 8
    if n == 6 or 8 <= n <= 10:
        return 2 * blocks
    if n % 8 == 1 or n == 11:
        return 2 * blocks + 1
    return 2 * blocks + 2


def chi_dt(n: int) -> int:
    """The true value: the paper's formula except at the known discrepancy."""
    return EXACT_DISCREPANCIES.get(n, paper_chi_dt(n))


def paper_gamma_t(n: int) -> int:
    value = (n + 3) // 4
    return value + 1 if n % 8 in (2, 4) else value


def paper_alpha(n: int) -> int:
    return n // 2 if n % 2 == 0 else (n - 3) // 2


def paper_rho(n: int) -> int:
    if n <= 6:
        return n // 3
    if n % 8 in (4, 6):
        return n // 4 - 1
    return n // 4


def rho(n: int) -> int:
    return OPEN_PACKING_DISCREPANCIES.get(n, paper_rho(n))


def paper_offset(n: int) -> int:
    """The paper's case split for chi_dt - gamma_t."""
    if n in (8, 10):
        return 0
    if n == 9:
        return 1
    if n % 8 == 3 and n != 11:
        return 3
    return 2


def standard_chromatic(n: int) -> int:
    """C_n(1,3), n >= 7, is bipartite exactly when n is even."""
    return 2 if n % 2 == 0 else 3


def standard_lower_bound(n: int) -> int:
    """max(chromatic, total domination): where the exact search starts."""
    return max(standard_chromatic(n), paper_gamma_t(n))


def standard_c(n: int, a: int, b: int) -> int:
    """Distance c with C_n(a,b) = C_n(1,c), for gcd(a, n) = 1."""
    raw = pow(a, -1, n) * b % n
    return min(raw, n - raw)


# Exact search on circulants that are not isomorphic to C_n(1,3):
# (n, generators) -> (chi_dt, lower bound the search starts from).
NONSTANDARD_EXACT = {
    (10, (1, 4)): (4, 3),
    (11, (1, 4)): (5, 3),
    (20, (1, 4)): (8, 6),
    (22, (1, 4)): (9, 6),
    (23, (1, 4)): (9, 6),
}

# Oracles on arbitrary connection sets:
# (n, set) -> (independence, open packing, total domination).
SET_ORACLES = {
    (12, "1,2"): (4, 2, 4),
    (12, "1,4"): (4, 2, 4),
    (13, "1,5"): (4, 2, 4),
    (14, "2,5"): (6, 3, 4),
    (32, "1,2"): (10, 6, 10),
    (32, "2,3"): (12, 6, 9),
    (36, "1,4"): (14, 8, 10),
    (36, "1,5"): (18, 8, 10),
    (36, "2,5"): (14, 8, 10),
    (40, "1,4"): (16, 9, 11),
    (40, "1,5"): (20, 10, 10),
    (40, "1,4,6"): (16, 5, 8),
}


def standard_oracles(n: int) -> tuple[int, int, int]:
    """(independence, open packing, total domination) of C_n(1,3)."""
    return (paper_alpha(n), rho(n), paper_gamma_t(n))
