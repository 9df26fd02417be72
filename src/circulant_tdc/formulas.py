"""Every closed form of the paper: the total dominator chromatic number,
the independence, open packing and total domination numbers of the standard
distance-{1,3} graph, the consistency relation tying the first to the last,
and the plain-tuple rows of the `table` command, whose columns TABLE_COLUMNS
names.  The exhaustive oracles these are checked against live in
solver.py.

All arithmetic is exact integer arithmetic; ceil(n/8) is (n + 7) // 8.
"""

from __future__ import annotations

from .graphs import reduce_either_order


class FormulaConsistencyError(ValueError):
    """Raised when the offset case split disagrees with the formula difference."""


def formula_tdc(n: int) -> int:
    """Total dominator chromatic number of the standard distance-{1,3} graph.

    Case order matters: n = 9 and n = 10 fall in the 8..10 range case, not
    the residue cases, so the range case is tested first.
    """
    if n < 6:
        raise ValueError(f"closed form needs n >= 6, got {n}")
    blocks = (n + 7) // 8
    if n == 6 or 8 <= n <= 10:
        return 2 * blocks
    if n % 8 == 1 or n == 11:
        return 2 * blocks + 1
    return 2 * blocks + 2


def formula_tdc_general(n: int, a: int, b: int) -> int:
    """Closed form for C_n(a,b) when it reduces to the standard graph.

    Requires gcd(a, n) = 1 and a^{-1} b = +-3 (mod n), or the same with a and
    b swapped (reduce_either_order); both residues give the same graph and
    both are accepted.  Delegates to formula_tdc.
    """
    if n < 6:
        raise ValueError(f"closed form needs n >= 6, got {n}")
    reduce_either_order(n, a, b)
    return formula_tdc(n)


def independence_number_formula(n: int) -> int:
    """Independence number of the standard graph: n/2 for even n, (n-3)/2 for odd."""
    if n < 4:
        raise ValueError(f"independence closed form needs n >= 4, got {n}")
    return n // 2 if n % 2 == 0 else (n - 3) // 2


def open_packing_number_formula(n: int) -> int:
    """Open packing number of the standard graph.

    n//3 for 3 <= n <= 6, then n//4 - 1 when n = 4 or 6 mod 8 and n//4
    otherwise.
    """
    if n < 3:
        raise ValueError(f"open packing closed form needs n >= 3, got {n}")
    if n <= 6:
        return n // 3
    if n % 8 in (4, 6):
        return n // 4 - 1
    return n // 4


def total_domination_number_formula(n: int) -> int:
    """Total domination number of the standard graph: ceil(n/4), +1 when n = 2,4 mod 8."""
    if n < 4:
        raise ValueError(f"total domination closed form needs n >= 4, got {n}")
    value = (n + 3) // 4
    return value + 1 if n % 8 in (2, 4) else value


def _offset_case_split(n: int) -> int:
    """The case split of tdc_total_domination_offset, without its cross-check."""
    if n in (8, 10):
        return 0
    if n == 9:
        return 1
    if n % 8 == 3 and n != 11:
        return 3
    return 2


def tdc_total_domination_offset(n: int) -> int:
    """Case-split value of formula_tdc(n) - total_domination_number_formula(n).

    The split: 0 for n = 8 and 10, 1 for n = 9, 3 when n = 3 (mod 8) except
    n = 11, else 2.  The function cross-checks the split against the actual
    difference of the two closed forms and raises FormulaConsistencyError on
    disagreement (this happens at n = 6, where the true difference is 0).
    """
    if n < 6:
        raise ValueError(f"offset needs n >= 6, got {n}")
    value = _offset_case_split(n)
    difference = formula_tdc(n) - total_domination_number_formula(n)
    if value != difference:
        raise FormulaConsistencyError(
            f"offset case split gives {value} at n={n} but the closed forms "
            f"differ by {difference}"
        )
    return value


TABLE_COLUMNS = (
    "n",
    "chi_dt_formula",
    "gamma_t_formula",
    "alpha_formula",
    "rho_formula",
    "offset",
    "offset_consistent",
)


def formula_rows(n_from: int, n_to: int) -> list[tuple]:
    """Closed-form values for n_from..n_to, one tuple per n in TABLE_COLUMNS order.

    offset is the case split of tdc_total_domination_offset where it agrees
    with chi_dt - gamma_t, and None where it does not; offset_consistent
    says which.
    """
    if n_from < 6:
        raise ValueError(f"table starts at n >= 6, got {n_from}")
    if n_to < n_from:
        raise ValueError(f"empty range {n_from}..{n_to}")
    rows = []
    for n in range(n_from, n_to + 1):
        chi_dt = formula_tdc(n)
        gamma_t = total_domination_number_formula(n)
        offset = _offset_case_split(n)
        if offset != chi_dt - gamma_t:
            offset = None
        alpha, rho = independence_number_formula(n), open_packing_number_formula(n)
        rows.append((n, chi_dt, gamma_t, alpha, rho, offset, offset is not None))
    return rows
