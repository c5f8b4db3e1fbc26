"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute. Every comparison is exact equality; there are no
tolerances anywhere.
"""

import itertools
import math
import time

import pytest
from conftest import hamming_distance_walks

from diagwalks import (
    DiagonalSystem,
    HammingView,
    brute_force_distribution,
    build_field,
    complete_graph,
    complete_walks,
    convolution_distribution,
    hamming_walks,
    neps_complete_walks,
    neps_construct,
    verify_isomorphism,
    walk_solution_count,
)
from diagwalks.diagonal import MAX_ENUM_TUPLES
from diagwalks.neps import NepsBasis, agreement_pattern, vertex_index
from diagwalks.verify import check_neps_oracle

ROSTER = [
    (3, 1, 2, 9, 2),
    (5, 1, 2, 25, 3),
    (7, 1, 2, 49, 4),
    (2, 2, 3, 64, 7),
    (3, 2, 2, 81, 5),
]


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" -- {detail}" if detail else ""
    print(f"[{status}] criterion {criterion}{suffix}")
    assert ok, f"criterion {criterion} failed: {detail}"


@pytest.fixture(scope="module")
def systems():
    return {(p, a, b): DiagonalSystem(p, a, b) for p, a, b, _, _ in ROSTER}


def test_criterion_1_triple_agreement(systems):
    started = time.perf_counter()
    bad = ""
    for p, a, b, q, k in ROSTER:
        system = systems[(p, a, b)]
        assert (system.q, system.k) == (q, k)
        for r in range(5):
            if (q - 1) ** r > MAX_ENUM_TUPLES:
                continue
            brute = brute_force_distribution(system.field, k, r, True)
            conv = convolution_distribution(system.field, k, r, True)
            for alpha in range(q):
                formula = system.count_nonzero(alpha, r)
                if not (formula == int(brute[alpha]) == conv[alpha]):
                    bad = (
                        f"p={p} a={a} b={b} alpha={alpha} r={r}: "
                        f"{formula}/{int(brute[alpha])}/{conv[alpha]}"
                    )
                    break
            if bad:
                break
        if bad:
            break
    elapsed = time.perf_counter() - started
    report(
        "1 (triple agreement, roster, r<=4)",
        not bad and elapsed < 300,
        bad or f"{elapsed:.1f}s",
    )


def test_criterion_2_walk_bridge(systems):
    bad = ""
    for p, a, b, q, k in ROSTER:
        system = systems[(p, a, b)]
        for r in range(5):
            for alpha in range(q):
                walks = walk_solution_count(system.field, k, 0, alpha, r)
                formula = system.count_nonzero(alpha, r)
                if walks != formula:
                    bad = f"p={p} a={a} b={b} alpha={alpha} r={r}"
                    break
            if bad:
                break
        if bad:
            break
    report("2 (walk bridge k^r*w(r,0,alpha) = N_r)", not bad, bad)


def test_criterion_3_example_closed_forms():
    started = time.perf_counter()
    g1 = neps_construct(
        [complete_graph(3), complete_graph(4)], NepsBasis([(1, 1)])
    )
    g2 = neps_construct(
        [complete_graph(3), complete_graph(4)], NepsBasis([(1, 0), (0, 1)])
    )
    bad = ""
    for r in range(1, 9):
        numerator = 6 ** (r - 1) + (-1) ** r * (2 ** (r - 1) + 3 ** (r - 1)) + 1
        assert numerator % 2 == 0
        if numerator // 2 != g1.walk_count(r, 0, 0):
            bad = f"Kronecker closed form at r={r}"
            break
        binom_sum = sum(
            math.comb(r, ell)
            * complete_walks(3, ell, True)
            * complete_walks(4, r - ell, True)
            for ell in range(r + 1)
        )
        if binom_sum != g2.walk_count(r, 0, 0):
            bad = f"binomial sum at r={r}"
            break
    elapsed = time.perf_counter() - started
    report(
        "3 (closed-form walk displays, r=1..8)",
        not bad and elapsed < 1.0,
        bad or f"{elapsed * 1000:.0f}ms",
    )


def test_criterion_4_neps_oracle():
    results = check_neps_oracle(instances=200, seed=42, max_factors=3,
                                max_size=5, max_r=5)
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
            # a concrete vertex pair realizing the pattern
            vj = vertex_index([0 if agree else 1 for agree in pattern], sizes)
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
        view = HammingView(field, k, a, b)
        if not verify_isomorphism(view):
            bad = f"Gamma({k},{p**m}) vs H({b},{p**a})"
            break
    report("6 (GP-Hamming isomorphisms, exhaustive)", not bad, bad)


def test_criterion_7_partition_identities(systems):
    bad = ""
    for p, a, b, q, k in ROSTER:
        system = systems[(p, a, b)]
        for n in range(5):
            sum_n = sum(system.count_nonzero(alpha, n) for alpha in range(q))
            sum_m = sum(system.count_all(alpha, n) for alpha in range(q))
            if sum_n != (q - 1) ** n or sum_m != q**n:
                bad = f"p={p} a={a} b={b} n={n}"
                break
        if bad:
            break
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
