"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute. Every comparison is exact equality; there are no
tolerances anywhere.
"""

import itertools
import time

import pytest
from conftest import hamming_distance_walks

from diagwalks import (
    DiagonalSystem,
    HammingView,
    build_field,
    complete_graph,
    hamming_walks,
    neps_complete_walks,
    neps_construct,
    verify_isomorphism,
)
from diagwalks.neps import NepsBasis, agreement_pattern
from diagwalks.verify import (
    DEFAULT_ROSTER,
    FormulaRows,
    check_example_closed_forms,
    check_neps_oracle,
    check_convolution_agreement,
    check_partition,
    check_triple_agreement,
    check_walk_bridge,
)

# (q, k) of each DEFAULT_ROSTER triple, in roster order
ROSTER_QK = [(9, 2), (25, 3), (49, 4), (64, 7), (81, 5)]


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" -- {detail}" if detail else ""
    print(f"[{status}] criterion {criterion}{suffix}")
    assert ok, f"criterion {criterion} failed: {detail}"


def first_failure(results):
    return next((result.detail for result in results if not result.ok), "")


@pytest.fixture(scope="module")
def systems():
    return {(p, a, b): DiagonalSystem(p, a, b) for p, a, b in DEFAULT_ROSTER}


def test_criterion_1_triple_agreement(systems):
    assert [(s.q, s.k) for s in systems.values()] == ROSTER_QK
    started = time.perf_counter()
    bad = first_failure(
        check(system, FormulaRows(system, 4)) for system in systems.values()
        for check in (check_triple_agreement, check_convolution_agreement)
    )
    elapsed = time.perf_counter() - started
    report(
        "1 (triple agreement, roster, r<=4)",
        not bad and elapsed < 300,
        bad or f"{elapsed:.1f}s",
    )


def test_criterion_2_walk_bridge(systems):
    bad = first_failure(
        check_walk_bridge(system, FormulaRows(system, 4))
        for system in systems.values()
    )
    report("2 (walk bridge k^r*w(r,0,alpha) = N_r)", not bad, bad)


def test_criterion_3_example_closed_forms():
    started = time.perf_counter()
    [result] = check_example_closed_forms()
    elapsed = time.perf_counter() - started
    report(
        "3 (closed-form walk displays, r=1..8)",
        result.ok and elapsed < 1.0,
        result.detail or f"{elapsed * 1000:.0f}ms",
    )


def test_criterion_4_neps_oracle():
    results = check_neps_oracle(instances=200, seed=42)
    report("4 (NEPS formula vs matrix power, 200 instances)",
           results[0].ok, results[0].detail)


def test_criterion_5_hamming_identities():
    bad = ""
    for b, q in [(2, 3), (2, 5), (3, 4)]:
        sizes = [q] * b
        graph = neps_construct(
            [complete_graph(q) for _ in range(b)], NepsBasis.standard(b)
        )
        recurrence = hamming_distance_walks(b, q, 6)
        for pattern in itertools.product((True, False), repeat=b):
            # a concrete vertex pair realizing the pattern: vertex 0 and
            # the vertex with digit 1 where the pattern disagrees
            vj = sum(q ** (b - 1 - t) for t, agree in enumerate(pattern)
                     if not agree)
            d = pattern.count(False)
            for r in range(7):
                values = {
                    hamming_walks(b, q, r, pattern),
                    recurrence[r][d],
                    neps_complete_walks(sizes, NepsBasis.standard(b), r, pattern),
                    graph.walk_count(r, 0, vj),
                }
                if len(values) != 1:
                    bad = f"H({b},{q}) r={r} pattern={pattern}: {values}"
                    break
            if bad:
                break
        if bad:
            break
    report("5 (Hamming walk identities, four routes)", not bad, bad)


def test_criterion_6_isomorphisms():
    cases = [
        (3, 2, 2, 1, 2),   # Gamma(2,9)  ~ H(2,3)
        (5, 2, 3, 1, 2),   # Gamma(3,25) ~ H(2,5)
        (2, 6, 7, 2, 3),   # Gamma(7,64) ~ H(3,4)
        (3, 4, 5, 2, 2),   # Gamma(5,81) ~ H(2,9)
    ]
    bad = ""
    for p, m, k, a, b in cases:
        field = build_field(p, m)
        view = HammingView(field, a, b)
        if not verify_isomorphism(view):
            bad = f"Gamma({k},{p**m}) vs H({b},{p**a})"
            break
    report("6 (GP-Hamming isomorphisms, exhaustive)", not bad, bad)


def test_criterion_7_partition_identities(systems):
    bad = first_failure(
        check_partition(system, FormulaRows(system, 4))
        for system in systems.values()
    )
    report("7 (partition: sums over alpha)", not bad, bad)


def test_criterion_8_divisibility_soundness():
    from diagwalks import k_is_integer, remark_cases

    bad = ""
    for p in (2, 3, 5, 7, 11, 13):
        for a in range(1, 4):
            for b in range(1, 13):
                rep = remark_cases(p, a, b)
                if rep.cases and not k_is_integer(p, a, b):
                    bad = f"p={p} a={a} b={b} cases={sorted(rep.cases)}"
                    break
            if bad:
                break
        if bad:
            break
    report("8 (sufficient conditions imply integral k)", not bad, bad)


def test_criterion_9_spot_values(systems):
    system = systems[(3, 1, 2)]
    n2 = system.count_nonzero(1, 2)
    m2 = system.count_all(0, 2)
    ok = n2 == 4 and m2 == 17
    report("9 (spot values N_2(1)=4, M_2(0)=17 over F9)", ok,
           "" if ok else f"N_2(1)={n2}, M_2(0)={m2}")
