"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Four criteria contain isolated points where a closed-form claim is
contradicted by exhaustive computation; those points carry explicit,
independently verified counterexamples (see each failure message).  The
assertions state the criteria verbatim, so those tests fail rather than
encode the discrepancy away.  Run with `pytest tests/test_acceptance.py -v -rA`
or directly with `python tests/test_acceptance.py`.
"""

import random
from itertools import combinations
from math import gcd

import oracles
from circulant_tdc import (
    Coloring,
    build_circulant,
    common_neighborhood,
    construct_tdc,
    formula_tdc,
    independence_number_formula,
    independence_number_oracle,
    is_proper,
    is_tdc,
    open_packing_number_formula,
    open_packing_number_oracle,
    reduce_to_standard,
    standard_circulant,
    tdc_number_exact,
    tdc_total_domination_offset,
    total_domination_number_formula,
    total_domination_number_oracle,
    verify_construction,
    verify_isomorphism,
)
from circulant_tdc.graphs import circular_distance
from oracles import class_size_capacity_check, random_greedy_coloring

EXACT_EXPECTED = {
    6: 2, 7: 4, 8: 2, 9: 4, 10: 4, 11: 5, 12: 6,
    13: 6, 14: 6, 15: 6, 16: 6, 17: 7, 18: 8,
}


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {name}"
    if detail:
        line += f" ({detail})"
    print(line)


def check_exact_agreement():
    mismatches = []
    for n, expected in EXACT_EXPECTED.items():
        outcome = tdc_number_exact(standard_circulant(n))
        if outcome.chi_dt != expected:
            mismatches.append((n, expected, outcome.chi_dt, outcome.witness.as_lists()))
    return mismatches


def test_criterion_1_exact_values_6_to_18():
    mismatches = check_exact_agreement()
    _report(
        1,
        "exact chi_dt equals the stated value for n=6..18",
        not mismatches,
        "; ".join(f"n={n}: stated {e}, exact search proves {g}" for n, e, g, _ in mismatches),
    )
    assert not mismatches, (
        "exact search disagrees with the stated table: "
        + "; ".join(
            f"n={n}: stated {e} but an exhaustively verified coloring with {g} "
            f"classes exists: {w}"
            for n, e, g, w in mismatches
        )
    )


def test_criterion_2_constructions_6_to_1000():
    failures = []
    for n in range(6, 1001):
        verdict = verify_construction(n)
        if not verdict.ok:
            failures.append((n, verdict))
    _report(2, "constructions verify with exact class counts for n=6..1000", not failures)
    assert not failures, failures[:5]


def check_invariant_agreement():
    disagreements = []
    for n in range(4, 25):
        inv = independence_number_oracle(standard_circulant(n))
        if inv.oracle != independence_number_formula(n):
            disagreements.append(("independence", n, independence_number_formula(n), inv.oracle))
    for n in range(3, 25):
        inv = open_packing_number_oracle(standard_circulant(n))
        if inv.oracle != open_packing_number_formula(n):
            disagreements.append(
                ("open_packing", n, open_packing_number_formula(n), inv.oracle, inv.witness)
            )
    for n in range(4, 25):
        inv = total_domination_number_oracle(standard_circulant(n))
        if inv.oracle != total_domination_number_formula(n):
            disagreements.append(
                ("total_domination", n, total_domination_number_formula(n), inv.oracle)
            )
    return disagreements


def test_criterion_3_invariant_formulas_vs_oracles():
    disagreements = check_invariant_agreement()
    _report(
        3,
        "independence (4..24), open packing (3..24), total domination (4..24) "
        "closed forms match exhaustive search",
        not disagreements,
        "; ".join(f"{d[0]} at n={d[1]}: formula {d[2]}, search {d[3]}" for d in disagreements),
    )
    assert not disagreements, (
        "closed form vs exhaustive search: "
        + "; ".join(
            f"{d[0]} at n={d[1]}: formula gives {d[2]} but search proves {d[3]}"
            + (f" (witness {list(d[4])})" if len(d) > 4 else "")
            for d in disagreements
        )
    )


def _capacity_violations():
    bad = []
    for n in range(9, 17):
        g = standard_circulant(n)
        for seed in range(500):
            if not class_size_capacity_check(g, random_greedy_coloring(g, seed)):
                bad.append((n, seed))
    return bad


def _cn_size_violations():
    bad = []
    for n in range(13, 21):
        g = standard_circulant(n)
        for u, v in combinations(g.vertices(), 2):
            d = circular_distance(u, v, n)
            expected = {2: 3, 4: 2, 6: 1}.get(d, 0)
            if len(common_neighborhood(g, {u, v})) != expected:
                bad.append((n, (u, v)))
        for t in combinations(g.vertices(), 3):
            ds = sorted(circular_distance(a, b, n) for a, b in combinations(t, 2))
            expected = 2 if ds == [2, 2, 4] else 1 if ds == [2, 4, 6] else 0
            if len(common_neighborhood(g, set(t))) != expected:
                bad.append((n, t))
    return bad


def _packing_structure_violations():
    bad = []
    for n in range(7, 21):
        rep = oracles.max_open_packing_structure(standard_circulant(n))
        if not rep.conforms:
            examples = [
                p.vertices
                for p in rep.packings
                if len(p.induced_edges) != rep.expected_edges
                or len(p.isolated) != rep.expected_isolated
            ]
            bad.append((n, examples[0], len(examples)))
    return bad


def _mixed_parity_independence_violations():
    bad = []
    for n in range(8, 17, 2):
        adj = oracles.neighbors(n, {1, 3})
        cap = n // 2 - 3
        for s in oracles.independent_sets(n, adj):
            if any(x % 2 for x in s) and any(x % 2 == 0 for x in s) and len(s) > cap:
                bad.append((n, s))
    return bad


def _large_class_colorings(n, seed_count=50):
    """Proper colorings with one parity class of size >= n/2 - 2, greedy rest."""
    g = standard_circulant(n)
    odd = list(range(1, n + 1, 2))
    for size in (n // 2 - 2, n // 2 - 1, n // 2):
        for seed in range(seed_count):
            rng = random.Random(seed)
            big = set(rng.sample(odd, size))
            rest = [v for v in g.vertices() if v not in big]
            rng.shuffle(rest)
            masks = [sum(1 << (v - 1) for v in big)]
            classes = [set(big)]
            for v in rest:
                nv = g.masks[v - 1]
                placed = False
                for i in range(1, len(masks)):
                    if not masks[i] & nv:
                        masks[i] |= 1 << (v - 1)
                        classes[i].add(v)
                        placed = True
                        break
                if not placed:
                    masks.append(1 << (v - 1))
                    classes.append({v})
            yield g, Coloring.from_classes(n, classes)


def _large_class_violations():
    bad = []
    for n in (18, 20):
        for g, coloring in _large_class_colorings(n):
            assert is_proper(g, coloring)
            if is_tdc(g, coloring).tdc:
                bad.append((n, coloring.as_lists()))
    return bad


def test_criterion_4_structural_property_suites():
    capacity = _capacity_violations()
    cn_sizes = _cn_size_violations()
    structure = _packing_structure_violations()
    mixed_parity = _mixed_parity_independence_violations()
    large_class = _large_class_violations()
    ok = not (capacity or cn_sizes or structure or mixed_parity or large_class)
    _report(
        4,
        "structural property suites (capacity, CN sizes, packing structure, mixed-parity "
        "independence, large-class colorings)",
        ok,
        f"packing structure violations at n={[n for n, _, _ in structure]}" if structure else "",
    )
    assert not capacity, f"capacity violations: {capacity[:3]}"
    assert not cn_sizes, f"CN size violations: {cn_sizes[:3]}"
    assert not mixed_parity, f"mixed-parity independence violations: {mixed_parity[:3]}"
    assert not large_class, f"large-class colorings that are TDCs: {large_class[:1]}"
    assert not structure, (
        "every maximum open packing should induce the expected shape, but "
        "spread packings exist: "
        + "; ".join(
            f"n={n}: e.g. {list(example)} ({count} of the maximum packings violate)"
            for n, example, count in structure
        )
    )


def test_criterion_5_reductions_6_to_16():
    failures = []
    for n in range(6, 17):
        for a in range(1, n):
            if gcd(a, n) != 1:
                continue
            for b in range(1, n):
                r = reduce_to_standard(n, a, b)
                g1 = build_circulant(n, sorted(oracles.normalized_distances(n, [a, b])))
                g2 = build_circulant(n, sorted(oracles.normalized_distances(n, [1, r.standard_c])))
                if not verify_isomorphism(g1, g2, r.vertex_map):
                    failures.append((n, a, b))
    _report(5, "reduction map certified for all coprime (a,b), n=6..16", not failures)
    assert not failures, failures[:5]


def check_offset_identity():
    failures = []
    for n in range(6, 10**6 + 1):
        try:
            tdc_total_domination_offset(n)
        except ValueError:
            failures.append(
                (n, formula_tdc(n) - total_domination_number_formula(n))
            )
    return failures


def test_criterion_6_offset_identity_to_1e6():
    failures = check_offset_identity()
    _report(
        6,
        "offset case split equals formula difference for n=6..10^6",
        not failures,
        "; ".join(f"n={n}: actual difference {d}" for n, d in failures),
    )
    assert not failures, (
        "offset case split disagrees with the closed forms at "
        + "; ".join(f"n={n} (case value 2, actual difference {d})" for n, d in failures)
    )


def test_discrepancy_ledger():
    """Pin the exact set of known discrepancies behind criteria 1, 3, 4 and 6.

    Those criteria fail on purpose; this test passes only while the points
    where they fail are exactly the known ones, so a new disagreement (or a
    fix of an old one) shows up here.
    """
    assert [n for n, *_ in check_exact_agreement()] == [18]
    assert [d[:2] for d in check_invariant_agreement()] == [("open_packing", 4)]
    assert [n for n, *_ in _packing_structure_violations()] == [10, 12, 14, 15, 18, 20]
    assert [n for n, _ in check_offset_identity()] == [6]


if __name__ == "__main__":
    for fn in (
        test_criterion_1_exact_values_6_to_18,
        test_criterion_2_constructions_6_to_1000,
        test_criterion_3_invariant_formulas_vs_oracles,
        test_criterion_4_structural_property_suites,
        test_criterion_5_reductions_6_to_16,
        test_criterion_6_offset_identity_to_1e6,
    ):
        try:
            fn()
        except AssertionError:
            pass
