#!/usr/bin/env python3
"""Reproduce the main value table: closed form, construction and exact search
side by side for a range of n.

Usage: python scripts/reproduce_table.py [n_to] [exact_up_to]
Defaults: n_to=40, exact_up_to=18.
"""

import sys

from circulant_tdc import (
    formula_tdc,
    standard_circulant,
    tdc_number_exact,
    total_domination_number_formula,
    verify_construction,
)


def main() -> int:
    n_to = int(sys.argv[1]) if len(sys.argv) > 1 else 40
    exact_up_to = int(sys.argv[2]) if len(sys.argv) > 2 else 18
    print(f"{'n':>4} {'formula':>8} {'construction':>13} {'gamma_t':>8} {'exact':>6}  status")
    disagreements = 0
    for n in range(6, n_to + 1):
        f = formula_tdc(n)
        verdict = verify_construction(n)
        cons = f"{verdict.num_classes}{'' if verdict.report.tdc else '!'}"
        gamma = total_domination_number_formula(n)
        if n <= exact_up_to:
            exact = tdc_number_exact(standard_circulant(n), limit=exact_up_to).chi_dt
            agree = exact == f == verdict.num_classes and verdict.report.tdc
            status = "agree" if agree else f"EXACT SEARCH GIVES {exact}"
            exact_str = str(exact)
        else:
            agree = verdict.ok
            status = "agree (construction only)" if agree else "CONSTRUCTION FAILED"
            exact_str = "-"
        if not agree:
            disagreements += 1
        print(f"{n:>4} {f:>8} {cons:>13} {gamma:>8} {exact_str:>6}  {status}")
    print(f"\n{disagreements} disagreement(s)")
    return 2 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
